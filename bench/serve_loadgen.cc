/**
 * @file
 * Closed-loop load generator for the advice serving engine.
 *
 * N client threads replay PC streams sliced from a cached workload
 * trace against a shared serve::AdviceEngine, picking the tenant of
 * each operation from a Zipf distribution (a few hot tenants, a long
 * cool tail) and mixing Train operations into the Advise stream.
 * Each client runs a fixed in-flight window: submit WINDOW
 * operations, wait until all are answered, record per-operation
 * latency (response timestamp minus submit timestamp), repeat.
 *
 * The same pre-generated operation streams are also replayed through
 * one standalone TenantServer with whole-tenant runs — the best-case
 * "raw predictMany" floor with maximal batching and zero queueing.
 * The headline gate metric is
 *
 *   serve.per_shard_floor_ratio = floor_ops_per_sec
 *                               / (served / busy_seconds)
 *
 * where busy_seconds is the steady-clock time the shard workers
 * spent from each batch's first pop to its last publish (idle
 * spinning and parking excluded), and the floor is timed in
 * thread-CPU time — i.e. how much slower the serving path (ring pop,
 * tenant grouping, batched predictMany, publish) is per shard than
 * the no-queue floor. Using busy time rather than end-to-end wall
 * time keeps client-side waiting out of the ratio; preemption of a
 * worker in mid-batch still counts, so on a host with fewer free
 * cores than shards plus clients the ratio reads high. The committed
 * baseline encodes an absolute
 * ceiling of 1.5x in its tolerance, so bench_diff fails CI if
 * queueing/batching overhead ever eats more than a third of the raw
 * prediction throughput.
 *
 * Knobs (defaults in parentheses): GLIDER_SERVE_SHARDS (2),
 * GLIDER_SERVE_QUEUE_CAP (1024), GLIDER_SERVE_CLIENTS (4),
 * GLIDER_SERVE_REQUESTS per client (50000), GLIDER_SERVE_WINDOW (64),
 * GLIDER_SERVE_TENANTS (16), GLIDER_SERVE_ZIPF_PCT (90, the Zipf
 * exponent x100), GLIDER_SERVE_TRAIN_PCT (30), GLIDER_SERVE_WORKLOAD
 * (mcf), plus GLIDER_ACCESSES for the backing trace length.
 *
 * Artifact: BENCH_serve_loadgen.json (p50/p95/p99 advice latency,
 * ops/sec, the floor ratio, and the engine's telemetry export).
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/rng.hh"
#include "common/zipf.hh"
#include "serve/advice_engine.hh"

namespace glider {
namespace bench {
namespace {

/** One pre-generated client operation. */
struct Op
{
    std::uint64_t tenant = 0;
    std::uint64_t pc = 0;
    bool train = false;
    bool opt_hit = false;
};

// Tenant skew comes from the shared exact-CDF sampler (promoted to
// common/zipf.hh); its binary-search pick draws the same ranks as the
// linear scan that used to live here, so output is unchanged.

/** Deterministic operation stream for one client. */
std::vector<Op>
makeClientOps(const traces::Trace &trace, const ZipfPicker &zipf,
              std::size_t client, std::size_t clients,
              std::size_t requests, double train_fraction)
{
    Rng rng(hashCombine(0x5EB7E10ADull, client));
    std::vector<Op> ops;
    ops.reserve(requests);
    // Each client walks its own contiguous slice of the shared
    // trace, wrapping, so the PC streams are realistic but disjoint.
    std::size_t cursor = client * (trace.size() / clients);
    for (std::size_t i = 0; i < requests; ++i) {
        Op op;
        op.tenant = 1 + zipf.pick(rng);
        op.pc = trace[cursor].pc;
        cursor = cursor + 1 == trace.size() ? 0 : cursor + 1;
        op.train = rng.chance(train_fraction);
        op.opt_hit = op.train && rng.chance(0.6);
        ops.push_back(op);
    }
    return ops;
}

/**
 * Best-case reference: the same operations, per tenant, through one
 * standalone TenantServer in whole-stream runs (maximal predictMany
 * batching, no queue, no threads). @return operations per second.
 */
double
runFloor(const serve::EngineConfig &config,
         const std::vector<std::vector<Op>> &streams)
{
    serve::TenantServer server(config.predictor);
    // Group every client's operations by tenant, preserving each
    // client's order (cross-client order is irrelevant to the floor).
    // The floor publishes real responses and a (single-threaded,
    // uncontended) done counter: producing answers is part of the
    // work; only the ring, the threads and their contention are
    // skipped.
    std::map<std::uint64_t, std::vector<serve::AdviceRequest>> runs;
    std::map<std::uint64_t, std::vector<serve::AdviceResponse>>
        responses;
    std::atomic<std::uint64_t> done{0};
    for (const auto &ops : streams) {
        for (const Op &op : ops) {
            serve::AdviceRequest req;
            req.tenant = op.tenant;
            req.pc = op.pc;
            req.kind = op.train ? serve::RequestKind::Train
                                : serve::RequestKind::Advise;
            req.opt_hit = op.opt_hit;
            req.response = nullptr;
            req.done = &done;
            runs[op.tenant].push_back(req);
        }
    }
    for (auto &[tenant, reqs] : runs) {
        auto &slots = responses[tenant];
        slots.resize(reqs.size());
        for (std::size_t i = 0; i < reqs.size(); ++i)
            reqs[i].response = &slots[i];
    }
    std::uint64_t total = 0;
    // Thread CPU time: the floor is one thread with no waiting.
    std::uint64_t t0 = serve::TenantServer::cpuNs();
    for (const auto &[tenant, reqs] : runs) {
        std::vector<const serve::AdviceRequest *> run;
        run.reserve(reqs.size());
        for (const auto &req : reqs)
            run.push_back(&req);
        server.processRun(server.tenant(tenant), run);
        total += reqs.size();
    }
    double seconds =
        static_cast<double>(serve::TenantServer::cpuNs() - t0) / 1e9;
    return seconds > 0.0 ? static_cast<double>(total) / seconds : 0.0;
}

/** Per-client engine driver state and results. */
struct ClientResult
{
    // 0..10ms at 10us resolution; the tail beyond lands in the
    // overflow bucket and still reports its exact max.
    obs::Histogram latency_us{0.0, 10'000.0, 1000};
    std::uint64_t backpressure = 0;
    std::uint64_t not_ok = 0;
};

/** Closed-loop client: WINDOW in flight, wait, measure, repeat. */
void
runClient(serve::AdviceEngine &engine, const std::vector<Op> &ops,
          std::size_t window, ClientResult &out)
{
    std::vector<serve::AdviceResponse> responses(window);
    std::vector<std::uint64_t> submitted_ns(window);
    std::atomic<std::uint64_t> done{0};
    for (std::size_t base = 0; base < ops.size(); base += window) {
        std::size_t n = std::min(window, ops.size() - base);
        done.store(0, std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) {
            const Op &op = ops[base + i];
            serve::AdviceRequest req;
            req.tenant = op.tenant;
            req.pc = op.pc;
            req.kind = op.train ? serve::RequestKind::Train
                                : serve::RequestKind::Advise;
            req.opt_hit = op.opt_hit;
            req.response = &responses[i];
            req.done = &done;
            submitted_ns[i] = serve::TenantServer::nowNs();
            while (!engine.submit(req)) {
                ++out.backpressure;
                std::this_thread::yield();
            }
        }
        while (done.load(std::memory_order_acquire) < n)
            std::this_thread::yield();
        for (std::size_t i = 0; i < n; ++i) {
            if (responses[i].status != serve::ResponseStatus::Ok)
                ++out.not_ok;
            out.latency_us.record(
                static_cast<double>(responses[i].served_ns
                                    - submitted_ns[i])
                / 1000.0);
        }
    }
}

int
loadgenMain()
{
    serve::EngineConfig config = serve::EngineConfig::fromEnv();
    const auto clients =
        static_cast<std::size_t>(env::u64(env::Knob::ServeClients));
    const auto requests = static_cast<std::size_t>(
        env::u64(env::Knob::ServeRequests));
    const auto window =
        static_cast<std::size_t>(env::u64(env::Knob::ServeWindow));
    const auto tenants =
        static_cast<std::size_t>(env::u64(env::Knob::ServeTenants));
    const double zipf_s =
        static_cast<double>(env::u64(env::Knob::ServeZipfPct)) / 100.0;
    const double train_fraction =
        static_cast<double>(env::u64(env::Knob::ServeTrainPct))
        / 100.0;
    const std::string workload = env::str(env::Knob::ServeWorkload);

    std::printf("serve_loadgen: %zu clients x %zu ops, window %zu, "
                "%zu tenants (zipf %.2f), %.0f%% train, %u shards, "
                "ring %zu, workload %s\n",
                clients, requests, window, tenants, zipf_s,
                train_fraction * 100.0, config.shards,
                config.queue_capacity, workload.c_str());

    const traces::Trace &trace = buildTrace(workload);
    ZipfPicker zipf(tenants, zipf_s);
    std::vector<std::vector<Op>> streams;
    streams.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c)
        streams.push_back(makeClientOps(trace, zipf, c, clients,
                                        requests, train_fraction));

    double floor_ops = runFloor(config, streams);
    std::printf("  floor (single-thread TenantServer, whole-tenant "
                "runs): %.0f ops/s\n",
                floor_ops);

    serve::AdviceEngine engine(config);
    std::vector<ClientResult> results(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    auto start = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&engine, &streams, &results, window, c] {
            runClient(engine, streams[c], window, results[c]);
        });
    }
    for (auto &t : threads)
        t.join();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    engine.stop();

    obs::Histogram latency(0.0, 10'000.0, 1000);
    std::uint64_t backpressure = 0, not_ok = 0;
    for (auto &r : results) {
        latency.merge(r.latency_us);
        backpressure += r.backpressure;
        not_ok += r.not_ok;
    }
    auto stats = engine.stats();
    std::uint64_t total = static_cast<std::uint64_t>(clients)
        * static_cast<std::uint64_t>(requests);
    if (not_ok != 0 || stats.served != total) {
        std::fprintf(stderr,
                     "serve_loadgen: FAILED — %llu non-Ok responses, "
                     "served %llu of %llu\n",
                     static_cast<unsigned long long>(not_ok),
                     static_cast<unsigned long long>(stats.served),
                     static_cast<unsigned long long>(total));
        return 1;
    }

    double ops_per_sec = seconds > 0.0
        ? static_cast<double>(total) / seconds
        : 0.0;
    double service_rate = stats.busy_ns > 0
        ? static_cast<double>(stats.served) * 1e9
            / static_cast<double>(stats.busy_ns)
        : 0.0;
    double ratio = service_rate > 0.0 ? floor_ops / service_rate
                                      : 0.0;

    std::printf("  engine: %.0f ops/s end to end over %.2fs, "
                "%llu backpressure retries\n",
                ops_per_sec, seconds,
                static_cast<unsigned long long>(backpressure));
    std::printf("  serving path: %.0f ops/s per busy shard "
                "(%.3fs busy across %u shards)\n",
                service_rate,
                static_cast<double>(stats.busy_ns) / 1e9,
                config.shards);
    std::printf("  latency: p50 %.1fus  p95 %.1fus  p99 %.1fus  "
                "max %.1fus\n",
                latency.percentile(50.0), latency.percentile(95.0),
                latency.percentile(99.0), latency.max());
    std::printf("  per-shard floor ratio: %.3fx (gate ceiling 1.5x)\n",
                ratio);

    auto report = makeReport("serve_loadgen");
    report.config("shards",
                  obs::json::Value(
                      static_cast<std::uint64_t>(config.shards)));
    report.config("queue_capacity",
                  obs::json::Value(static_cast<std::uint64_t>(
                      config.queue_capacity)));
    report.config("clients",
                  obs::json::Value(
                      static_cast<std::uint64_t>(clients)));
    report.config("requests_per_client",
                  obs::json::Value(
                      static_cast<std::uint64_t>(requests)));
    report.config("window",
                  obs::json::Value(static_cast<std::uint64_t>(window)));
    report.config("tenants",
                  obs::json::Value(
                      static_cast<std::uint64_t>(tenants)));
    report.config("zipf_s", obs::json::Value(zipf_s));
    report.config("train_fraction", obs::json::Value(train_fraction));
    report.config("workload", obs::json::Value(workload));

    // Absolute rates and latencies are machine-dependent: gated only
    // against collapse (tolerance 3.0). The floor ratio compares two
    // measurements from the same run and host, so its tolerance
    // encodes the absolute 1.5x acceptance ceiling instead:
    // baseline * (1 + tol) == 1.5.
    constexpr double kAbsTolerance = 3.0;
    report.metric("serve.ops_per_sec", ops_per_sec, "ops/s",
                  obs::Direction::HigherBetter, kAbsTolerance);
    report.metric("serve.latency_us.p50", latency.percentile(50.0),
                  "us", obs::Direction::LowerBetter, kAbsTolerance);
    report.metric("serve.latency_us.p95", latency.percentile(95.0),
                  "us", obs::Direction::LowerBetter, kAbsTolerance);
    report.metric("serve.latency_us.p99", latency.percentile(99.0),
                  "us", obs::Direction::LowerBetter, kAbsTolerance);
    report.metric("serve.floor_ops_per_sec", floor_ops, "ops/s",
                  obs::Direction::Info);
    report.metric("serve.per_shard_busy_ops_per_sec", service_rate,
                  "ops/s", obs::Direction::HigherBetter,
                  kAbsTolerance);
    double ratio_tolerance =
        ratio > 0.0 && ratio < 1.5 ? 1.5 / ratio - 1.0 : 0.0;
    report.metric("serve.per_shard_floor_ratio", ratio, "x",
                  obs::Direction::LowerBetter, ratio_tolerance);
    report.metric("serve.backpressure_retries",
                  static_cast<double>(backpressure), "",
                  obs::Direction::Info);

    obs::Registry registry;
    engine.exportMetrics(registry, "serve");
    report.attachRegistry("serve", registry);
    report.attach("latency_us", latency.toJson());
    report.write();
    return 0;
}

} // namespace
} // namespace bench
} // namespace glider

int
main()
{
    return glider::bench::loadgenMain();
}
