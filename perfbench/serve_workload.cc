/**
 * @file
 * serve_open: open-loop advice serving against serve::AdviceEngine.
 *
 * One generator thread (the main thread) submits on a fixed schedule
 * to an engine with 2 shards. The operation stream is drawn from the
 * seed: 16 tenants with Zipf(0.9) skew, 30% Train requests, PCs from
 * the mcf trace. Every request is timed from its due time, so a
 * generator stall counts against the requests it delays, and a
 * refused request counts as failed and over the limit. The generator
 * runs a light rate (mostly idle shards) and a moderate rate (spinning,
 * batching shards); the traced run then searches for the highest rate
 * whose p99 latency stays within the limit with no refusal and no
 * backlog.
 *
 * Every response is checked: served == accepted, every status Ok, and
 * every Advise score equal to a standalone TenantServer fed the same
 * per-tenant order.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <thread>

#include "common/rng.hh"
#include "common/zipf.hh"
#include "core/glider_predictor.hh"
#include "harness.hh"
#include "serve/advice_engine.hh"
#include "serve/tenant_server.hh"
#include "workloads/registry.hh"

namespace perfbench {
namespace {

using namespace glider;

constexpr std::size_t kTenants = 16;
constexpr double kZipf = 0.9;
constexpr double kTrainFraction = 0.3;
constexpr std::uint64_t kPcAccesses = 1'000'000; //!< mcf trace length
constexpr std::size_t kOpPool = 1u << 20; //!< ops drawn per set-up
constexpr double kLightRate = 250e3;
constexpr double kModerateRate = 2e6;
constexpr double kLimitUs = 100.0; //!< p99 latency limit
constexpr std::size_t kMaxPhaseOps = 4u << 20;
/** Latency percentiles are taken per this much due time. */
constexpr double kBucketS = 0.1;
constexpr int kSetupReps = 5;
/**
 * Ring slots per shard: at the fixed rates a host stall of a hundred
 * milliseconds fits (2M ops/s over 2 shards fills 256Ki slots in
 * ~260 ms), so stalls show as latency, not refusals.
 */
constexpr std::size_t kQueueCapacity = 1u << 18;

/** One pre-drawn operation. */
struct Op
{
    std::uint64_t pc = 0;
    std::uint64_t tenant = 0;
    bool train = false;
    bool opt_hit = false;
};

serve::EngineConfig
engineConfig()
{
    serve::EngineConfig c;
    c.shards = 2;
    c.queue_capacity = kQueueCapacity;
    return c;
}

struct ServeSetup
{
    std::vector<Op> pool;
    std::unique_ptr<serve::AdviceEngine> engine;
};

/** PCs from mcf, tenants and kinds from @p seed, then the engine. */
ServeSetup
serveSetup(std::uint64_t seed)
{
    ServeSetup s;
    traces::Trace trace("mcf");
    workloads::makeWorkload("mcf", kPcAccesses)->run(trace);
    ZipfPicker zipf(kTenants, kZipf);
    Rng rng(seed);
    std::size_t cursor = rng.below(trace.size());
    s.pool.resize(kOpPool);
    for (Op &op : s.pool) {
        op.tenant = 1 + zipf.pick(rng);
        op.pc = trace[cursor].pc;
        cursor = cursor + 1 == trace.size() ? 0 : cursor + 1;
        op.train = rng.chance(kTrainFraction);
        op.opt_hit = op.train && rng.chance(0.6);
    }
    s.engine = std::make_unique<serve::AdviceEngine>(engineConfig());
    return s;
}

serve::AdviceRequest
toRequest(const Op &op)
{
    serve::AdviceRequest req;
    req.tenant = op.tenant;
    req.pc = op.pc;
    req.kind = op.train ? serve::RequestKind::Train
                        : serve::RequestKind::Advise;
    req.opt_hit = op.opt_hit;
    return req;
}

/** p-th percentile of @p v by selection (reorders @p v). */
double
quantile(std::vector<float> &v, double p)
{
    if (v.empty())
        return 0.0;
    auto k = static_cast<std::size_t>(p / 100.0
                                      * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
    return v[k];
}

/** Outcome of one fixed-rate phase. */
struct Phase
{
    double rate = 0.0;
    std::uint64_t offered = 0, accepted = 0, refused = 0;
    std::uint64_t not_ok = 0, mismatched = 0;
    bool aborted = false;
    // Percentiles are taken per kBucketS of due time; each figure is
    // the median over the phase's buckets.
    double p50_us = 0.0, p99_us = 0.0;
    std::vector<float> bucket_p50;
    double lag_p99_us = 0.0;         //!< how late the generator ran
    double non_service_p99_us = 0.0; //!< latency less batch service
    double seconds = 0.0;
    double cpu_s = 0.0; //!< process CPU less the generator thread's
    std::uint64_t served = 0, batches = 0, busy_ns = 0;
    std::vector<float> submit_ns; //!< traced phases only

    /** p99 within the limit, no refusal, and no growing backlog. */
    bool
    meetsLimit() const
    {
        return !aborted && refused == 0 && p99_us <= kLimitUs
            && lag_p99_us <= kLimitUs;
    }
};

/**
 * The open-loop generator and its checker. Ops are consumed from the
 * pool cyclically; the reference TenantServer sees exactly the
 * accepted ones, in submission order, so every tenant's state evolves
 * identically on both sides.
 */
class Generator
{
  public:
    Generator(const std::vector<Op> &pool, serve::AdviceEngine &engine)
        : pool_(pool), engine_(engine),
          reference_(engine.config().predictor)
    {
    }

    /**
     * Offer @p rate ops/s for @p seconds (capped at kMaxPhaseOps). A
     * probe gives up once the generator falls a few milliseconds
     * behind, which already fails the limit.
     */
    Phase
    run(double rate, double seconds, bool probe, bool time_submit)
    {
        Phase w;
        w.rate = rate;
        const auto n = static_cast<std::size_t>(std::min(
            rate * seconds, static_cast<double>(kMaxPhaseOps)));
        responses_.assign(n, serve::AdviceResponse{});
        accepted_.assign(n, 0);
        lag_us_.assign(n, 0.0f);
        if (time_submit)
            w.submit_ns.reserve(n);
        std::atomic<std::uint64_t> done{0};
        const auto before = engine_.stats();
        const double cpu0 = processCpuSeconds();
        const double gen_cpu0 = threadCpuSeconds();
        const double period = 1e9 / rate;
        const std::uint64_t t0 = nowNs() + 100'000;
        auto due = [&](std::size_t i) {
            return t0
                + static_cast<std::uint64_t>(static_cast<double>(i) * period);
        };
        const std::size_t first = cursor_;
        std::size_t offered = 0;
        std::uint64_t now = nowNs();
        for (; offered < n; ++offered) {
            const std::uint64_t due_ns = due(offered);
            // Behind schedule, submit back to back and read the clock
            // only every 16 requests.
            if (now < due_ns || offered % 16 == 0)
                now = nowNs();
            while (now < due_ns)
                now = nowNs();
            const float lag = static_cast<float>(now - due_ns) / 1000.0f;
            lag_us_[offered] = lag;
            if (probe && lag > 5000.0f) {
                w.aborted = true;
                break;
            }
            serve::AdviceRequest req =
                toRequest(pool_[(first + offered) % pool_.size()]);
            req.response = &responses_[offered];
            req.done = &done;
            bool ok;
            if (time_submit) {
                const std::uint64_t s0 = nowNs();
                ok = engine_.submit(req);
                w.submit_ns.push_back(static_cast<float>(nowNs() - s0));
            } else {
                ok = engine_.submit(req);
            }
            accepted_[offered] = ok ? 1 : 0;
            w.accepted += ok ? 1 : 0;
        }
        w.offered = offered;
        w.refused = offered - w.accepted;
        cursor_ = (first + offered) % pool_.size();
        const std::uint64_t wait0 = nowNs();
        while (done.load(std::memory_order_acquire) < w.accepted) {
            if (nowNs() - wait0 > 30'000'000'000ull) {
                // The shards still own the response slots, so nothing
                // here may be freed or reused: give up on the process.
                std::fprintf(stderr, "perfbench: engine served %llu of "
                                     "%llu accepted requests in 30 s\n",
                             static_cast<unsigned long long>(done.load()),
                             static_cast<unsigned long long>(w.accepted));
                std::fflush(stdout);
                std::_Exit(1);
            }
            std::this_thread::yield();
        }
        w.seconds = secondsSince(t0);
        w.cpu_s = processCpuSeconds() - cpu0
            - (threadCpuSeconds() - gen_cpu0);
        const auto after = engine_.stats();
        w.served = after.served - before.served;
        w.batches = after.batches - before.batches;
        w.busy_ns = after.busy_ns - before.busy_ns;
        if (w.served != w.accepted)
            w.not_ok += w.served > w.accepted ? w.served - w.accepted
                                              : w.accepted - w.served;
        for (std::size_t i = 0; i < offered; ++i) {
            if (accepted_[i]
                && responses_[i].status != serve::ResponseStatus::Ok)
                ++w.not_ok;
        }
        summarize(w, due);
        w.mismatched = verify(first, offered);
        return w;
    }

  private:
    /**
     * Per-bucket percentiles of latency from the due time (a refused
     * request ranks as infinitely late), generator lag, and latency
     * less the mean batch service time; medians over buckets.
     */
    template <class Due>
    void
    summarize(Phase &w, const Due &due)
    {
        const double batch_service_us = w.batches
            ? static_cast<double>(w.busy_ns)
                / static_cast<double>(w.batches) / 1000.0
            : 0.0;
        const auto per = std::max<std::size_t>(
            1, static_cast<std::size_t>(w.rate * kBucketS));
        std::vector<float> p50, p99, lag99, ns99, lat, lag, nonsvc;
        for (std::size_t b = 0; b < w.offered; b += per) {
            const std::size_t e = std::min(b + per, w.offered);
            if (e - b < per / 2 && b > 0)
                break; // a short tail bucket
            lat.clear();
            nonsvc.clear();
            lag.assign(lag_us_.begin() + static_cast<long>(b),
                       lag_us_.begin() + static_cast<long>(e));
            for (std::size_t i = b; i < e; ++i) {
                if (!accepted_[i]) {
                    lat.push_back(std::numeric_limits<float>::infinity());
                    continue;
                }
                const double l =
                    static_cast<double>(responses_[i].served_ns - due(i))
                    / 1000.0;
                lat.push_back(static_cast<float>(l));
                nonsvc.push_back(static_cast<float>(l - batch_service_us));
            }
            p50.push_back(static_cast<float>(quantile(lat, 50.0)));
            p99.push_back(static_cast<float>(quantile(lat, 99.0)));
            lag99.push_back(static_cast<float>(quantile(lag, 99.0)));
            ns99.push_back(static_cast<float>(quantile(nonsvc, 99.0)));
        }
        w.bucket_p50 = p50;
        w.p50_us = quantile(p50, 50.0);
        w.p99_us = quantile(p99, 50.0);
        w.lag_p99_us = quantile(lag99, 50.0);
        w.non_service_p99_us = quantile(ns99, 50.0);
    }

    /** Replay the accepted ops through the reference, per tenant. */
    std::uint64_t
    verify(std::size_t first, std::size_t offered)
    {
        std::map<std::uint64_t, std::vector<std::size_t>> by_tenant;
        for (std::size_t i = 0; i < offered; ++i) {
            if (accepted_[i])
                by_tenant[pool_[(first + i) % pool_.size()].tenant]
                    .push_back(i);
        }
        std::uint64_t bad = 0;
        std::atomic<std::uint64_t> done{0};
        for (const auto &[tenant, idx] : by_tenant) {
            std::vector<serve::AdviceRequest> reqs(idx.size());
            std::vector<serve::AdviceResponse> resp(idx.size());
            std::vector<const serve::AdviceRequest *> run(idx.size());
            for (std::size_t j = 0; j < idx.size(); ++j) {
                reqs[j] = toRequest(pool_[(first + idx[j]) % pool_.size()]);
                reqs[j].response = &resp[j];
                reqs[j].done = &done;
                run[j] = &reqs[j];
            }
            reference_.processRun(reference_.tenant(tenant), run);
            for (std::size_t j = 0; j < idx.size(); ++j) {
                const auto &got = responses_[idx[j]];
                if (got.score != resp[j].score || got.level != resp[j].level
                    || got.status != resp[j].status)
                    ++bad;
            }
        }
        return bad;
    }

    const std::vector<Op> &pool_;
    serve::AdviceEngine &engine_;
    serve::TenantServer reference_;
    std::size_t cursor_ = 0;
    std::vector<serve::AdviceResponse> responses_;
    std::vector<std::uint8_t> accepted_;
    std::vector<float> lag_us_;
};

/** Fold a fixed-rate phase's checks into the report. */
void
checkPhase(const Phase &w, const char *what, Report &report)
{
    report.attempt(w.offered);
    report.failMany(w.refused, std::string(what) + ": refused by submit()");
    report.failMany(w.not_ok, std::string(what)
                                  + ": not served, or served not Ok");
    report.failMany(w.mismatched,
                    std::string(what)
                        + ": Advise score differs from the TenantServer "
                          "replay");
}

void
printPhase(const Phase &w, const char *what)
{
    std::printf("  %-9s %9.0f ops/s: %8llu offered, %llu refused, "
                "p50 %.2f us, p99 %.2f us, lag p99 %.2f us%s\n",
                what, w.rate, static_cast<unsigned long long>(w.offered),
                static_cast<unsigned long long>(w.refused), w.p50_us,
                w.p99_us, w.lag_p99_us,
                w.meetsLimit() ? "" : "  (over the limit)");
}

/**
 * Highest offered rate meeting the limit. The search grows 1.5x per
 * passing probe from the moderate rate until a rate fails twice in a
 * row (a lone failure may be a host stall), bisects that bracket three
 * times, then walks a staircase — down 5% after a failing probe, up 5%
 * after a passing one — until the budget is spent. The estimate is
 * the geometric mean rate of the staircase probes, which straddle the
 * threshold, so one probe's luck moves it by a fraction of a step. A
 * probe's mismatches count as failures; its refusals only mark the
 * rate as too high.
 */
double
searchMaxRate(Generator &gen, double budget_s, Report &report)
{
    constexpr double kProbeS = 0.6;
    constexpr double kGrow = 1.5, kStep = 1.05;
    constexpr int kMinStaircase = 4;
    const std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(budget_s * 1e9);
    auto probe = [&](double rate) {
        Phase w = gen.run(rate, kProbeS, true, false);
        report.failMany(w.mismatched, "probe: Advise score differs from "
                                      "the TenantServer replay");
        report.failMany(w.not_ok, "probe: not served, or served not Ok");
        printPhase(w, "probe");
        return w.meetsLimit();
    };
    double hi = kModerateRate * kGrow;
    while (probe(hi) || probe(hi))
        hi *= kGrow;
    double lo = hi / kGrow;
    for (int i = 0; i < 3; ++i) {
        const double mid = std::sqrt(lo * hi);
        (probe(mid) ? lo : hi) = mid;
    }
    // A probe also pays for its own checking; plan by its full cost.
    double rate = std::sqrt(lo * hi);
    double log_sum = 0.0;
    int probes = 0;
    std::uint64_t probe_ns = 0;
    while (probes < kMinStaircase || nowNs() + probe_ns <= deadline) {
        const std::uint64_t t0 = nowNs();
        log_sum += std::log(rate);
        ++probes;
        rate = probe(rate) ? rate * kStep : rate / kStep;
        probe_ns = nowNs() - t0;
    }
    return std::exp(log_sum / probes);
}

/** Standalone layer timings over the op pool. */
void
standaloneLayers(const std::vector<Op> &pool, Tracer &tracer,
                 Report &report)
{
    std::map<std::uint64_t, std::vector<const Op *>> by_tenant;
    for (const Op &op : pool)
        by_tenant[op.tenant].push_back(&op);

    // core: GliderPredictor alone, Advise ops gathered into
    // predictMany batches exactly as TenantServer gathers them.
    const core::GliderConfig cfg = engineConfig().predictor;
    double predict_ns = 0, train_ns = 0, advises = 0, trains = 0;
    {
        ScopedSpan root(tracer, "core.replay", -1, -1);
        constexpr std::size_t kB = core::GliderPredictor::kBatchChunk;
        std::vector<core::SlotCounts> counts(kB);
        std::vector<core::PredictRequest> reqs(kB);
        std::vector<core::Prediction> out(kB);
        for (const auto &[tenant, ops] : by_tenant) {
            core::GliderPredictor pred(cfg, 1);
            std::size_t npend = 0;
            auto flush = [&] {
                if (npend == 0)
                    return;
                std::uint64_t t = nowNs();
                pred.predictMany(
                    std::span<const core::PredictRequest>(reqs.data(), npend),
                    std::span<core::Prediction>(out.data(), npend));
                predict_ns += static_cast<double>(nowNs() - t);
                advises += static_cast<double>(npend);
                npend = 0;
            };
            for (const Op *op : ops) {
                if (!op->train) {
                    counts[npend] = pred.historyCounts(0);
                    reqs[npend] = {op->pc, 0, {}, &counts[npend]};
                    ++npend;
                    pred.observe(op->pc, 0);
                    if (npend == kB)
                        flush();
                } else {
                    flush();
                    std::uint64_t t = nowNs();
                    pred.train(op->pc, 0, pred.history(0), op->opt_hit);
                    train_ns += static_cast<double>(nowNs() - t);
                    trains += 1;
                    pred.observe(op->pc, 0);
                }
            }
            flush();
        }
    }
    report.metric("core.predict_many_ns_per_request", predict_ns / advises,
                  "ns");
    report.metric("core.train_ns_per_op", train_ns / trains, "ns");

    // serve: TenantServer::processRun alone, whole-tenant runs — the
    // no-queue floor of the serving path.
    serve::TenantServer server(cfg);
    std::atomic<std::uint64_t> done{0};
    std::vector<serve::AdviceRequest> reqs;
    std::vector<serve::AdviceResponse> resp(pool.size());
    std::vector<const serve::AdviceRequest *> run;
    double server_ns = 0;
    for (const auto &[tenant, ops] : by_tenant) {
        reqs.clear();
        run.clear();
        for (const Op *op : ops) {
            reqs.push_back(toRequest(*op));
            reqs.back().response = &resp[reqs.size() - 1];
            reqs.back().done = &done;
        }
        for (const auto &r : reqs)
            run.push_back(&r);
        ScopedSpan s(tracer, "serve.tenant_server", -1, -1);
        std::uint64_t t = nowNs();
        server.processRun(server.tenant(tenant), run);
        server_ns += static_cast<double>(nowNs() - t);
    }
    report.metric("serve.tenant_server_ns_per_op",
                  server_ns / static_cast<double>(pool.size()), "ns");
}

} // namespace

void
runServeOpen(const Options &opts, Report &report)
{
    std::vector<double> setup_s;
    ServeSetup setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup = ServeSetup{}; // stop the previous engine first
        std::uint64_t t0 = nowNs();
        setup = serveSetup(opts.seed);
        setup_s.push_back(secondsSince(t0));
    }
    Generator gen(setup.pool, *setup.engine);

    if (opts.trace) {
        Tracer tracer;
        Phase light, moderate;
        {
            ScopedSpan s(tracer, "serve.phase.light", -1, 0);
            light = gen.run(kLightRate, opts.seconds * 0.2, false, false);
        }
        checkPhase(light, "light", report);
        printPhase(light, "light");
        // The same moderate load untraced (which also warms the shards
        // up after the mostly idle light phase), then with submit()
        // timed.
        Phase plain =
            gen.run(kModerateRate, opts.seconds * 0.1, false, false);
        checkPhase(plain, "moderate", report);
        {
            ScopedSpan s(tracer, "serve.phase.moderate", -1, 1);
            moderate = gen.run(kModerateRate, opts.seconds * 0.1, false, true);
        }
        checkPhase(moderate, "moderate", report);
        printPhase(moderate, "moderate");
        double max_rate = 0.0;
        {
            ScopedSpan s(tracer, "serve.search", -1, 2);
            max_rate = searchMaxRate(gen, opts.seconds * 0.6, report);
        }
        std::printf("  max rate meeting p99 <= %.0f us: %.0f ops/s\n",
                    kLimitUs, max_rate);
        report.metric("serve.max_rate_mops", max_rate / 1e6, "Mop/s");
        report.metric("serve.light.p50_us", light.p50_us, "us");
        report.metric("serve.light.p99_us", light.p99_us, "us");
        report.metric("serve.moderate.p99_us", plain.p99_us, "us");
        report.metric("serve.non_service_us.p99", light.non_service_p99_us,
                      "us");
        report.metric("loadgen.lag_us.p99",
                      std::max(light.lag_p99_us, moderate.lag_p99_us), "us");
        report.metric("serve.service_ns_per_op",
                      static_cast<double>(moderate.busy_ns)
                          / static_cast<double>(moderate.served),
                      "ns");
        report.metric("serve.ops_per_batch",
                      static_cast<double>(moderate.served)
                          / static_cast<double>(moderate.batches),
                      "count");
        report.metric("serve.submit_ns.p50",
                      quantile(moderate.submit_ns, 50.0), "ns");
        report.metric("serve.submit_ns.p99",
                      quantile(moderate.submit_ns, 99.0), "ns");
        report.metric("serve.refused_frac",
                      static_cast<double>(light.refused + moderate.refused)
                          / static_cast<double>(light.offered
                                                + moderate.offered),
                      "ratio");
        report.metric("harness.tracing_overhead",
                      moderate.p50_us / plain.p50_us, "ratio");
        // Share of the two shard threads' time spent on the CPU.
        report.metric("harness.utilization",
                      (light.cpu_s + moderate.cpu_s)
                          / (light.seconds + moderate.seconds)
                          / static_cast<double>(engineConfig().shards),
                      "ratio");
        setup.engine->stop();
        standaloneLayers(setup.pool, tracer, report);
        std::vector<Tracer> all;
        all.push_back(std::move(tracer));
        writeSpans(opts.out_dir + "/spans-serve_open.jsonl", all);
        return;
    }

    report.metric("setup_s", median(setup_s), "s");
    Phase light = gen.run(kLightRate, opts.seconds * 0.45, false, false);
    checkPhase(light, "light", report);
    printPhase(light, "light");
    // The first moderate-rate second after the mostly idle light
    // phase runs slow; warm the shards up, checked but not reported.
    Phase warmup = gen.run(kModerateRate, opts.seconds * 0.05, false, false);
    checkPhase(warmup, "warm-up", report);
    // The moderate phase, in pieces of at most kMaxPhaseOps requests.
    std::vector<float> p50;
    for (double left = opts.seconds * 0.5; left > kBucketS;) {
        const double piece = std::min(
            left, static_cast<double>(kMaxPhaseOps) / kModerateRate);
        Phase moderate = gen.run(kModerateRate, piece, false, false);
        checkPhase(moderate, "moderate", report);
        printPhase(moderate, "moderate");
        p50.insert(p50.end(), moderate.bucket_p50.begin(),
                   moderate.bucket_p50.end());
        left -= piece;
    }
    // Engine CPU (the generator thread's excluded) per request at the
    // light rate: the cost of idling between requests.
    report.metric("cpu_ns_per_op",
                  light.cpu_s * 1e9 / static_cast<double>(light.offered),
                  "ns");
    report.metric("latency_p50_us", quantile(p50, 50.0), "us");
    report.metric("peak_rss_mib", peakRssMiB(), "MiB");
}

} // namespace perfbench
