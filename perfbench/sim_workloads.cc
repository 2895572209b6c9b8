/**
 * @file
 * The two simulation workloads.
 *
 * sweep_private: a single-core, in-memory policy sweep. Four traces
 * (omnetpp, lbm, bc, mcf) run under LRU, Hawkeye, MPPPB, SHiP++,
 * Glider and MIN; every cell is one sim::runSingleCore call, made the
 * way examples/policy_shootout.cpp makes it. Most accesses stop in
 * the private L1/L2, which every cell walks again.
 *
 * mix4_streamed: one fixed 4-core shared-LLC mix (gcc, xalancbmk,
 * sphinx3, libquantum) under LRU, Hawkeye and Glider through
 * sim::runMultiCore, each core replaying a gtrace spilled during
 * set-up through sim::StreamingSource. Most accesses reach the LLC.
 *
 * The traces are fixed, so every cell's counts are the same on every
 * run and are pinned in perfbench/fingerprints.json; the seed only
 * permutes the order in which the cells are dispatched to threads.
 *
 * The traced run replays each cell again from the same public parts
 * (Hierarchy levels, CoreModel, StreamingSource) with spans around
 * each layer and checks that it reproduces the untraced counts.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "cachesim/access_source.hh"
#include "cachesim/simulator.hh"
#include "common/rng.hh"
#include "core/policy_factory.hh"
#include "harness.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "opt/optgen.hh"
#include "traces/access.hh"
#include "workloads/registry.hh"

namespace perfbench {
namespace {

using namespace glider;

/** CPU accesses per sweep trace and per mix core. */
constexpr std::uint64_t kSweepAccesses = 1'000'000;
constexpr std::uint64_t kMixAccesses = 1'000'000;

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/** Records per stage of the staged single-core replay. */
constexpr std::size_t kStageChunk = 4096;

/** The traced mix replay times CoreModel::step for 1 access in this many. */
constexpr std::uint64_t kSampleEvery = 32;

const std::vector<std::string> kSweepTraces = {"omnetpp", "lbm", "bc",
                                               "mcf"};
const std::vector<std::string> kSweepPolicies = {
    "LRU", "Hawkeye", "MPPPB", "SHiP++", "Glider", "MIN"};
const std::vector<std::string> kMixTraces = {"gcc", "xalancbmk",
                                             "sphinx3", "libquantum"};
const std::vector<std::string> kMixPolicies = {"LRU", "Hawkeye",
                                               "Glider"};

/** Policy name as used in metric names: "SHiP++" -> "shippp". */
std::string
metricKey(const std::string &policy)
{
    std::string out;
    for (char c : policy)
        out += c == '+' ? 'p'
                        : static_cast<char>(std::tolower(
                              static_cast<unsigned char>(c)));
    return out;
}

/** The simulated counts of one cell that the fingerprint pins. */
struct CellCounts
{
    sim::CacheStats llc;
    std::uint64_t instructions = 0; //!< single-core cells only
    double cycles = 0.0;            //!< single-core cells only
    std::vector<double> ipc;        //!< per core

    bool
    operator==(const CellCounts &o) const
    {
        return llc.accesses == o.llc.accesses && llc.hits == o.llc.hits
            && llc.misses == o.llc.misses
            && llc.evictions == o.llc.evictions
            && llc.bypasses == o.llc.bypasses
            && instructions == o.instructions && cycles == o.cycles
            && ipc == o.ipc;
    }

    std::string
    json(bool single_core) const
    {
        char buf[96];
        std::string out = "{";
        auto field = [&](const char *k, std::uint64_t v) {
            std::snprintf(buf, sizeof(buf), "\"%s\": %llu, ", k,
                          static_cast<unsigned long long>(v));
            out += buf;
        };
        field("llc_accesses", llc.accesses);
        field("llc_hits", llc.hits);
        field("llc_misses", llc.misses);
        field("llc_evictions", llc.evictions);
        field("llc_bypasses", llc.bypasses);
        if (single_core) {
            field("instructions", instructions);
            std::snprintf(buf, sizeof(buf), "\"cycles\": %.17g, ", cycles);
            out += buf;
        }
        out += "\"ipc\": [";
        for (std::size_t i = 0; i < ipc.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "",
                          ipc[i]);
            out += buf;
        }
        return out + "]}";
    }
};

CellCounts
countsOf(const sim::SingleCoreResult &r)
{
    return {r.llc, r.instructions, r.cycles, {r.ipc}};
}

CellCounts
countsOf(const sim::MultiCoreResult &r)
{
    return {r.llc, 0, 0.0, r.ipc_shared};
}

/** Cell dispatch order: every cell once, permuted by @p seed. */
std::vector<std::size_t>
dispatchOrder(std::size_t cells, std::uint64_t seed)
{
    std::vector<std::size_t> order(cells);
    for (std::size_t i = 0; i < cells; ++i)
        order[i] = i;
    Rng rng(seed ^ 0x70657266626e6368ull);
    for (std::size_t i = cells; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

/** One finished cell of the measured phase. */
struct CellRun
{
    std::size_t cell = 0;
    double seconds = 0.0;     //!< wall
    double cpu_seconds = 0.0; //!< the running thread's CPU
    std::uint64_t accesses = 0;
};

/**
 * Run cells on @p threads threads until @p seconds have passed,
 * cycling through @p order; @p fn(cell, thread) runs one cell and
 * returns the CPU accesses it simulated. No cell starts after the
 * deadline; cells in flight finish.
 */
template <class Fn>
std::vector<CellRun>
runCellsFor(double seconds, unsigned threads,
            const std::vector<std::size_t> &order, Fn &&fn, Report &report)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<CellRun>> done(threads);
    std::vector<std::exception_ptr> errors(threads);
    const std::uint64_t t0 = nowNs();
    const std::uint64_t deadline =
        t0 + static_cast<std::uint64_t>(seconds * 1e9);
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                try {
                    while (nowNs() < deadline) {
                        std::size_t k = next.fetch_add(1);
                        std::size_t cell = order[k % order.size()];
                        const std::uint64_t s = nowNs();
                        const double c = threadCpuSeconds();
                        const std::uint64_t acc = fn(cell, t);
                        done[t].push_back({cell, secondsSince(s),
                                           threadCpuSeconds() - c, acc});
                    }
                } catch (...) {
                    errors[t] = std::current_exception();
                }
            });
        }
    }
    for (auto &e : errors) {
        if (!e)
            continue;
        try {
            std::rethrow_exception(e);
        } catch (const std::exception &ex) {
            report.fail(std::string("cell threw: ") + ex.what());
        }
    }
    std::vector<CellRun> all;
    for (auto &d : done)
        all.insert(all.end(), d.begin(), d.end());
    return all;
}

/**
 * Remembers the first result of every cell and fails the report when
 * a later run of the same cell disagrees.
 */
class CellChecker
{
  public:
    explicit CellChecker(std::size_t cells) : first_(cells), seen_(cells) {}

    void
    check(std::size_t cell, const CellCounts &counts, const std::string &name,
          Report &report)
    {
        std::lock_guard<std::mutex> lock(mu_);
        report.attempt();
        if (!seen_[cell]) {
            seen_[cell] = true;
            first_[cell] = counts;
        } else if (!(first_[cell] == counts)) {
            report.fail(name + ": counts differ between runs of the cell");
        }
    }

    bool seen(std::size_t cell) const { return seen_[cell]; }
    const CellCounts &counts(std::size_t cell) const { return first_[cell]; }

    /** Fail every cell that never ran; @return true when all ran. */
    bool
    allRan(const std::vector<std::string> &names, Report &report) const
    {
        for (std::size_t c = 0; c < seen_.size(); ++c) {
            if (!seen_[c])
                report.fail(names[c] + ": did not run within --seconds");
        }
        return std::find(seen_.begin(), seen_.end(), false) == seen_.end();
    }

  private:
    std::mutex mu_;
    std::vector<CellCounts> first_;
    std::vector<bool> seen_;
};

/** Print the cell fingerprints for run.py to compare with the pins. */
void
printCells(const std::string &workload, const std::vector<std::string> &names,
           const CellChecker &checker, bool single_core)
{
    std::string out = "CELLS {\"workload\": \"" + workload + "\", \"cells\": {";
    bool first = true;
    for (std::size_t c = 0; c < names.size(); ++c) {
        if (!checker.seen(c))
            continue;
        out += first ? "" : ", ";
        out += "\"" + names[c] + "\": " + checker.counts(c).json(single_core);
        first = false;
    }
    std::printf("%s}}\n", out.c_str());
}

/**
 * End-to-end metrics of a simulation measured phase. The host's speed
 * drifts by several percent over seconds, so each cell's wall and CPU
 * time is the median over its repetitions, and the rates are taken
 * over one median pass of every cell.
 */
void
reportSimPhase(const std::vector<CellRun> &runs, unsigned threads,
               Report &report)
{
    std::map<std::size_t, std::vector<double>> wall, cpu;
    std::map<std::size_t, std::uint64_t> accesses;
    std::vector<double> latency_us;
    for (const CellRun &r : runs) {
        wall[r.cell].push_back(r.seconds);
        cpu[r.cell].push_back(r.cpu_seconds);
        accesses[r.cell] = r.accesses;
        latency_us.push_back(r.seconds * 1e6);
    }
    double pass_wall = 0.0, pass_cpu = 0.0, pass_accesses = 0.0;
    for (const auto &[cell, w] : wall) {
        pass_wall += median(w);
        pass_cpu += median(cpu[cell]);
        pass_accesses += static_cast<double>(accesses[cell]);
    }
    std::printf("%.3f M simulated accesses per second on %u threads\n",
                pass_accesses / pass_wall * static_cast<double>(threads)
                    / 1e6,
                threads);
    report.metric("cpu_ns_per_op", pass_cpu * 1e9 / pass_accesses, "ns");
    report.metric("latency_p50_us", percentile(latency_us, 50.0), "us");
    std::printf("measured %zu cells of %zu kinds\n", runs.size(),
                wall.size());
}

/**
 * The layers' self times must add up to the traced cell time within
 * 10%: whatever the harness itself spends between layers stays small.
 */
void
checkCoverage(double coverage, Report &report)
{
    report.metric("harness.layer_coverage", coverage, "ratio");
    report.attempt();
    if (coverage < 0.9 || coverage > 1.1)
        report.fail("layer self times sum to a share of "
                    + std::to_string(coverage) + " of the traced cell time");
}

/* ---------------------------------------------------------------- */
/* sweep_private                                                    */
/* ---------------------------------------------------------------- */

struct SweepSetup
{
    std::vector<traces::Trace> traces;
    double seconds = 0.0;
};

/** Generate the four sweep traces the way policy_shootout does. */
SweepSetup
sweepSetup(Tracer *tracer)
{
    SweepSetup s;
    std::uint64_t t0 = nowNs();
    for (const auto &name : kSweepTraces) {
        std::int32_t span =
            tracer ? tracer->begin("workloads.generate", -1, -1) : -1;
        traces::Trace t(name);
        workloads::makeWorkload(name, kSweepAccesses)->run(t);
        if (tracer)
            tracer->end(span);
        s.traces.push_back(std::move(t));
    }
    s.seconds = secondsSince(t0);
    return s;
}

/** One untraced sweep cell: exactly policy_shootout's calls. */
sim::SingleCoreResult
runSweepCell(const traces::Trace &trace, const std::string &policy)
{
    sim::SimOptions opts;
    if (policy == "MIN") {
        auto llc_stream = opt::extractLlcStream(trace, opts.hierarchy);
        return sim::runSingleCore(
            trace, std::make_unique<opt::BeladyPolicy>(llc_stream), opts);
    }
    return sim::runSingleCore(trace, core::makePolicy(policy), opts);
}

/** Access tallies of the staged replay. */
struct StageTally
{
    std::uint64_t cpu = 0;
    std::uint64_t l1_hits = 0;
    std::uint64_t l2 = 0;
    std::uint64_t l2_hits = 0;
    std::uint64_t llc = 0;
};

/**
 * runSingleCore staged level by level. L1, L2 and LLC are
 * non-inclusive with no back-invalidation and no writebacks, so L2
 * sees exactly L1's misses in order, the LLC exactly L2's misses, and
 * CoreModel only the depth sequence: pushing a chunk through L1, then
 * its L1 misses through L2, then the L2 misses through the LLC, then
 * the depths through CoreModel reproduces the interleaved run
 * exactly. Chunks split at the warmup boundary, where runSingleCore
 * clears the counters.
 */
CellCounts
stagedSingleCore(const traces::Trace &trace,
                 std::unique_ptr<sim::ReplacementPolicy> policy,
                 Tracer &tracer, std::int32_t parent, std::int32_t cell,
                 StageTally &tally)
{
    sim::SimOptions opts;
    sim::Hierarchy hier(opts.hierarchy, 1, std::move(policy));
    sim::CoreModel core(opts.core);
    sim::Cache &l1 = hier.l1(0);
    sim::Cache &l2 = hier.l2(0);
    sim::Cache &llc = hier.llc();

    const auto &recs = trace.records();
    const std::uint64_t n = recs.size();
    const auto warmup_end = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(n));
    std::vector<sim::AccessDepth> depth(kStageChunk);
    std::vector<std::uint32_t> miss1, miss2;
    miss1.reserve(kStageChunk);
    miss2.reserve(kStageChunk);

    for (std::uint64_t b = 0; b < n;) {
        std::uint64_t e = std::min<std::uint64_t>(b + kStageChunk, n);
        if (b < warmup_end && e > warmup_end)
            e = warmup_end;
        const auto len = static_cast<std::uint32_t>(e - b);
        miss1.clear();
        miss2.clear();
        {
            ScopedSpan s(tracer, "cachesim.l1", parent, cell);
            for (std::uint32_t i = 0; i < len; ++i) {
                const auto &r = recs[b + i];
                if (l1.access(0, r.pc, traces::blockAddr(r.address),
                              r.is_write))
                    depth[i] = sim::AccessDepth::L1;
                else
                    miss1.push_back(i);
            }
        }
        {
            ScopedSpan s(tracer, "cachesim.l2", parent, cell);
            for (std::uint32_t i : miss1) {
                const auto &r = recs[b + i];
                if (l2.access(0, r.pc, traces::blockAddr(r.address),
                              r.is_write))
                    depth[i] = sim::AccessDepth::L2;
                else
                    miss2.push_back(i);
            }
        }
        {
            ScopedSpan s(tracer, "cachesim.llc", parent, cell);
            for (std::uint32_t i : miss2) {
                const auto &r = recs[b + i];
                depth[i] = llc.access(0, r.pc, traces::blockAddr(r.address),
                                      r.is_write)
                    ? sim::AccessDepth::Llc
                    : sim::AccessDepth::Dram;
            }
        }
        {
            ScopedSpan s(tracer, "cachesim.core_model", parent, cell);
            for (std::uint32_t i = 0; i < len; ++i)
                core.step(depth[i], hier.latency(depth[i]));
        }
        tally.cpu += len;
        tally.l1_hits += len - miss1.size();
        tally.l2 += miss1.size();
        tally.l2_hits += miss1.size() - miss2.size();
        tally.llc += miss2.size();
        if (e == warmup_end) {
            hier.clearStatsCounters();
            core.clearCounters();
        }
        b = e;
    }
    core.finish();
    return {llc.stats(), core.instructions(), core.cycles(), {core.ipc()}};
}

/** Per-thread state of the traced sweep. */
struct SweepTraceState
{
    Tracer tracer;
    StageTally tally;
    std::vector<double> untraced_s;
    double min_cpu = 0.0, min_llc = 0.0; //!< MIN cells' stream sizes
};

void
sweepTraced(const Options &opts, const SweepSetup &setup,
            const std::vector<std::string> &names, Tracer &main_tracer,
            Report &report)
{
    const std::size_t np = kSweepPolicies.size();
    const std::size_t cells = kSweepTraces.size() * np;
    std::vector<SweepTraceState> state(opts.threads);
    std::atomic<std::size_t> next{0};
    auto order = dispatchOrder(cells, opts.seed);
    std::mutex report_mu;

    std::uint64_t t0 = nowNs();
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < opts.threads; ++t) {
            pool.emplace_back([&, t] {
                SweepTraceState &st = state[t];
                for (std::size_t k; (k = next.fetch_add(1)) < cells;) {
                    std::size_t cell = order[k];
                    const auto &trace = setup.traces[cell / np];
                    const std::string &pol = kSweepPolicies[cell % np];
                    auto id = static_cast<std::int32_t>(cell);

                    std::uint64_t u0 = nowNs();
                    CellCounts plain = countsOf(runSweepCell(trace, pol));
                    st.untraced_s.push_back(secondsSince(u0));

                    CellCounts staged;
                    {
                        ScopedSpan root(st.tracer, "harness.cell", -1, id);
                        std::unique_ptr<sim::ReplacementPolicy> policy;
                        traces::Trace llc_stream;
                        if (pol == "MIN") {
                            {
                                ScopedSpan s(st.tracer,
                                             "opt.extract_llc_stream",
                                             root.id(), id);
                                llc_stream = opt::extractLlcStream(
                                    trace, sim::SimOptions().hierarchy);
                            }
                            ScopedSpan s(st.tracer, "opt.belady_setup",
                                         root.id(), id);
                            policy = std::make_unique<opt::BeladyPolicy>(
                                llc_stream);
                            st.min_cpu += static_cast<double>(trace.size());
                            st.min_llc +=
                                static_cast<double>(llc_stream.size());
                        } else {
                            policy = core::makePolicy(pol);
                        }
                        staged = stagedSingleCore(trace, std::move(policy),
                                                  st.tracer, root.id(), id,
                                                  st.tally);
                    }
                    std::lock_guard<std::mutex> lock(report_mu);
                    report.attempt();
                    if (!(staged == plain))
                        report.fail(names[cell]
                                    + ": staged replay diverged from "
                                      "runSingleCore");
                }
            });
        }
    }
    const double wall = secondsSince(t0);

    // Aggregate spans: self time per layer, LLC time per policy.
    std::map<std::string, double> self;
    std::map<std::string, double> llc_ns;
    double cell_ns = 0.0, untraced = 0.0;
    StageTally tally;
    double min_cpu = 0.0, min_llc = 0.0;
    for (auto &st : state) {
        for (const auto &[name, ns] : st.tracer.selfTimes())
            self[name] += ns;
        for (const Span &s : st.tracer.spans()) {
            double d = static_cast<double>(s.end_ns - s.start_ns);
            if (std::string(s.name) == "harness.cell") {
                cell_ns += d;
            } else if (std::string(s.name) == "cachesim.llc") {
                llc_ns[kSweepPolicies[static_cast<std::size_t>(s.cell) % np]] +=
                    d;
            }
        }
        for (double x : st.untraced_s)
            untraced += x;
        tally.cpu += st.tally.cpu;
        tally.l1_hits += st.tally.l1_hits;
        tally.l2 += st.tally.l2;
        tally.l2_hits += st.tally.l2_hits;
        tally.llc += st.tally.llc;
        min_cpu += st.min_cpu;
        min_llc += st.min_llc;
    }
    // Every policy sees the same LLC stream of each trace.
    const double llc_per_policy =
        static_cast<double>(tally.llc) / static_cast<double>(np);

    const double cpu = static_cast<double>(tally.cpu);
    report.metric("cachesim.l1.ns_per_access", self["cachesim.l1"] / cpu,
                  "ns");
    report.metric("cachesim.l2.ns_per_access",
                  self["cachesim.l2"] / static_cast<double>(tally.l2), "ns");
    report.metric("cachesim.private_share",
                  (self["cachesim.l1"] + self["cachesim.l2"]) / cell_ns,
                  "ratio");
    report.metric("cachesim.l1.hit_ratio",
                  static_cast<double>(tally.l1_hits) / cpu, "ratio");
    report.metric("cachesim.l2.hit_ratio",
                  static_cast<double>(tally.l2_hits)
                      / static_cast<double>(tally.l2),
                  "ratio");
    report.metric("cachesim.llc_fraction",
                  static_cast<double>(tally.llc) / cpu, "ratio");
    report.metric("cachesim.core_model.ns_per_access",
                  self["cachesim.core_model"] / cpu, "ns");
    const double lru = llc_ns["LRU"] / llc_per_policy;
    for (const auto &pol : kSweepPolicies) {
        double v = llc_ns[pol] / llc_per_policy;
        report.metric("cachesim.llc.ns_per_llc_access." + metricKey(pol), v,
                      "ns");
        if (pol != "LRU")
            report.metric("policies.hook_ns_per_llc_access." + metricKey(pol),
                          v - lru, "ns");
    }
    report.metric("opt.extract_llc_stream_ns_per_access",
                  self["opt.extract_llc_stream"] / min_cpu, "ns");
    report.metric("opt.belady_setup_ns_per_llc_access",
                  self["opt.belady_setup"] / min_llc, "ns");

    double layers = 0.0;
    for (const auto &[name, ns] : self) {
        if (name != "harness.cell")
            layers += ns;
    }
    checkCoverage(layers / cell_ns, report);
    report.metric("harness.tracing_overhead", cell_ns / 1e9 / untraced,
                  "ratio");
    report.metric("harness.utilization",
                  (cell_ns / 1e9 + untraced)
                      / (wall * static_cast<double>(opts.threads)),
                  "ratio");

    // Standalone OPTgen over each trace's LLC stream (Hawkeye's
    // sampler shape on the single-core LLC).
    const sim::HierarchyConfig cfg;
    double optgen_ns = 0.0, sampled = 0.0, events = 0.0, llc_total = 0.0;
    const opt::PcHistory no_history;
    for (const auto &trace : setup.traces) {
        auto stream = opt::extractLlcStream(trace, cfg);
        opt::OptGenSampler sampler(cfg.llc.sets(), cfg.llc.ways);
        ScopedSpan s(main_tracer, "opt.optgen", -1, -1);
        std::uint64_t t = nowNs();
        for (const auto &r : stream) {
            std::uint64_t block = traces::blockAddr(r.address);
            std::uint64_t set = block & (cfg.llc.sets() - 1);
            if (!sampler.isSampled(set))
                continue;
            sampled += 1.0;
            if (sampler.access(set, block, r.pc, 0, no_history, false,
                               false))
                events += 1.0;
            while (sampler.popExpired())
                events += 1.0;
        }
        optgen_ns += static_cast<double>(nowNs() - t);
        llc_total += static_cast<double>(stream.size());
    }
    report.metric("opt.optgen_ns_per_sampled_access", optgen_ns / sampled,
                  "ns");
    report.metric("opt.optgen.training_events_per_kaccess",
                  events * 1000.0 / llc_total, "count");

    std::vector<Tracer> all;
    for (auto &st : state)
        all.push_back(std::move(st.tracer));
    all.push_back(std::move(main_tracer));
    writeSpans(opts.out_dir + "/spans-sweep_private.jsonl", all);
}

} // namespace

void
runSweepPrivate(const Options &opts, Report &report)
{
    const std::size_t np = kSweepPolicies.size();
    std::vector<std::string> names;
    for (const auto &t : kSweepTraces)
        for (const auto &p : kSweepPolicies)
            names.push_back(t + "/" + p);

    if (opts.trace) {
        Tracer main_tracer;
        SweepSetup setup = sweepSetup(&main_tracer);
        report.metric("workloads.gen_ns_per_access",
                      main_tracer.selfTimes()["workloads.generate"]
                          / static_cast<double>(kSweepAccesses
                                                * kSweepTraces.size()),
                      "ns");
        sweepTraced(opts, setup, names, main_tracer, report);
        return;
    }

    std::vector<double> setup_s;
    SweepSetup setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup = sweepSetup(nullptr);
        setup_s.push_back(setup.seconds);
    }
    report.metric("setup_s", median(setup_s), "s");

    CellChecker checker(names.size());
    auto order = dispatchOrder(names.size(), opts.seed);
    auto runs = runCellsFor(
        opts.seconds, opts.threads, order,
        [&](std::size_t cell, unsigned) -> std::uint64_t {
            const auto &trace = setup.traces[cell / np];
            auto res = runSweepCell(trace, kSweepPolicies[cell % np]);
            checker.check(cell, countsOf(res), names[cell], report);
            return res.accesses_simulated;
        },
        report);
    reportSimPhase(runs, opts.threads, report);
    report.metric("peak_rss_mib", peakRssMiB(), "MiB");

    // Output checks beyond run-to-run agreement: MIN bounds every
    // policy's misses on every trace. The pinned counts are compared
    // by run.py.
    printCells("sweep_private", names, checker, true);
    if (!checker.allRan(names, report))
        return;
    double reduction = 0.0, speedup_log = 0.0;
    for (std::size_t t = 0; t < kSweepTraces.size(); ++t) {
        const auto &min = checker.counts(t * np + (np - 1));
        for (std::size_t p = 0; p + 1 < np; ++p) {
            report.attempt();
            if (min.llc.misses > checker.counts(t * np + p).llc.misses)
                report.fail(names[t * np + p] + " has fewer misses than MIN");
        }
        const auto &lru = checker.counts(t * np + 0);
        const auto &glider = checker.counts(t * np + 4);
        reduction += 100.0
            * (static_cast<double>(lru.llc.misses)
               - static_cast<double>(glider.llc.misses))
            / static_cast<double>(lru.llc.misses);
        speedup_log += std::log(glider.ipc[0] / lru.ipc[0]);
    }
    const double nt = static_cast<double>(kSweepTraces.size());
    std::printf("glider_miss_reduction_pct %.4f (mean over traces)\n",
                reduction / nt);
    std::printf("glider_speedup_pct %.4f (geometric mean over traces)\n",
                100.0 * (std::exp(speedup_log / nt) - 1.0));
}

/* ---------------------------------------------------------------- */
/* mix4_streamed                                                    */
/* ---------------------------------------------------------------- */

namespace {

sim::SimOptions
mixOptions()
{
    sim::SimOptions o;
    o.hierarchy = sim::HierarchyConfig::forCores(4);
    o.warmup_fraction = 0.1;
    return o;
}

/** Spill the four mix traces into a fresh directory under @p dir. */
std::vector<std::string>
spillMix(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    ::setenv("GLIDER_TRACE_DIR", dir.c_str(), 1);
    std::vector<std::string> paths;
    for (const auto &name : kMixTraces)
        paths.push_back(workloads::ensureSpilledTrace(name, kMixAccesses));
    return paths;
}

/** Open one StreamingSource per core. */
std::vector<std::unique_ptr<sim::StreamingSource>>
openMix(const std::vector<std::string> &paths)
{
    std::vector<std::unique_ptr<sim::StreamingSource>> out;
    for (const auto &p : paths) {
        traces::StreamingTrace t;
        std::string err;
        if (!t.open(p, &err))
            throw std::runtime_error("cannot open " + p + ": " + err);
        out.push_back(std::make_unique<sim::StreamingSource>(std::move(t)));
    }
    return out;
}

/**
 * Counts the records a source hands out. runMultiCore rewinds fast
 * cores until the slowest finishes its quota, so the work of a mix
 * cell is only known from what the cores pulled; the count includes
 * the unread tail of each core's last chunk and repeats exactly from
 * run to run.
 */
class CountingSource final : public sim::AccessSource
{
  public:
    explicit CountingSource(sim::AccessSource &inner) : inner_(inner) {}

    const std::string &name() const override { return inner_.name(); }
    std::uint64_t size() const override { return inner_.size(); }

    std::span<const traces::AccessRecord>
    nextChunk() override
    {
        auto chunk = inner_.nextChunk();
        delivered_ += chunk.size();
        return chunk;
    }

    void rewind() override { inner_.rewind(); }

    std::uint64_t delivered() const { return delivered_; }

  private:
    sim::AccessSource &inner_;
    std::uint64_t delivered_ = 0;
};

/** One untraced mix cell; @p records gets the records delivered. */
sim::MultiCoreResult
runMixCell(const std::vector<std::string> &paths, const std::string &policy,
           std::uint64_t &records)
{
    auto sources = openMix(paths);
    std::vector<CountingSource> counted;
    counted.reserve(sources.size());
    for (auto &s : sources)
        counted.emplace_back(*s);
    std::vector<sim::AccessSource *> ptrs;
    for (auto &s : counted)
        ptrs.push_back(&s);
    auto res = sim::runMultiCore(ptrs, core::makePolicy(policy),
                                 kMixAccesses, mixOptions());
    records = 0;
    for (const auto &s : counted)
        records += s.delivered();
    return res;
}

/** Ticks taken by an empty timestamp pair. */
double
tickOverhead()
{
    std::vector<double> d;
    for (int i = 0; i < 2001; ++i) {
        std::uint64_t a = ticks();
        std::uint64_t b = ticks();
        d.push_back(static_cast<double>(b - a));
    }
    return median(d);
}

/** LLC accesses of OPTgen-sampled sets, recorded for a standalone replay. */
struct SampledLlcAccess
{
    std::uint64_t block;
    std::uint64_t pc;
    std::uint8_t core;
};

/** Counts and call timings of the traced mix replay. */
struct MixTally
{
    std::uint64_t cpu = 0, l2 = 0, llc = 0;
    std::uint64_t l1_hits = 0, l2_hits = 0;
    double llc_ns = 0.0;          //!< every LLC call, timed
    double core_sample_ns = 0.0;  //!< sampled CoreModel::step calls
    std::uint64_t core_samples = 0;
};

/** Private-level outcome of one record, decided ahead of the interleave. */
enum PrivateDepth : std::uint8_t { kL1Hit, kL2Hit, kBeyondL2 };

/**
 * runMultiCore's loop replayed from the same public parts.
 *
 * The timing-ordered interleave depends on each step's cycles, so the
 * loop itself cannot be staged. Its private levels can: a core's L1
 * and L2 see only that core's records, in stream order, whatever the
 * interleave, so each chunk is pushed through L1 and then its misses
 * through L2 when the chunk is fetched (spans cachesim.l1/l2). The
 * loop then walks the records in interleave order, calling the shared
 * LLC for the records that passed L2 (each call timed, summed into one
 * cachesim.llc span) and CoreModel for every record. What remains of
 * the loop span is the interleave itself: picking the next core and
 * stepping its CoreModel.
 */
CellCounts
stagedMultiCore(const std::vector<std::string> &paths,
                const std::string &policy, Tracer &tr, std::int32_t parent,
                std::int32_t cell, MixTally &tally, double tick_overhead,
                std::vector<SampledLlcAccess> *optgen_stream)
{
    const sim::SimOptions opts = mixOptions();
    const unsigned cores = static_cast<unsigned>(paths.size());
    auto sources = openMix(paths);
    sim::Hierarchy hier(opts.hierarchy, cores, core::makePolicy(policy));
    std::vector<sim::CoreModel> models(cores, sim::CoreModel(opts.core));
    struct Cursor
    {
        std::span<const traces::AccessRecord> chunk;
        std::size_t pos = 0;
        std::vector<std::uint8_t> depth; //!< PrivateDepth per record
        std::vector<std::uint32_t> miss;
    };
    std::vector<Cursor> cursor(cores);
    std::vector<std::uint64_t> executed(cores, 0);
    for (auto &s : sources)
        s->rewind();

    const std::uint64_t quota = kMixAccesses;
    const auto warmup = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(quota));
    bool warm = warmup == 0;
    unsigned cold_cores = warm ? 0 : cores;
    unsigned pending_cores = quota > 0 ? cores : 0;
    const std::uint64_t llc_sets = opts.hierarchy.llc.sets();
    opt::OptGenSampler sampler(llc_sets, opts.hierarchy.llc.ways);

    auto block_of = [](const traces::AccessRecord &r, unsigned core) {
        // runMultiCore folds the core id into the high address bits.
        return traces::blockAddr(r.address
                                 | (static_cast<std::uint64_t>(core) << 44));
    };
    auto fetch = [&](unsigned c, std::int32_t loop) {
        Cursor &cur = cursor[c];
        {
            ScopedSpan s(tr, "traces.decode", loop, cell);
            cur.chunk = sources[c]->nextChunk();
        }
        cur.pos = 0;
        if (cur.chunk.empty()) {
            sources[c]->rewind();
            return;
        }
        const auto core_id = static_cast<std::uint8_t>(c);
        cur.depth.resize(cur.chunk.size());
        cur.miss.clear();
        {
            ScopedSpan s(tr, "cachesim.l1", loop, cell);
            sim::Cache &l1 = hier.l1(c);
            for (std::uint32_t i = 0; i < cur.chunk.size(); ++i) {
                const auto &r = cur.chunk[i];
                if (l1.access(core_id, r.pc, block_of(r, c), r.is_write))
                    cur.depth[i] = kL1Hit;
                else
                    cur.miss.push_back(i);
            }
        }
        ScopedSpan s(tr, "cachesim.l2", loop, cell);
        sim::Cache &l2 = hier.l2(c);
        for (std::uint32_t i : cur.miss) {
            const auto &r = cur.chunk[i];
            cur.depth[i] = l2.access(core_id, r.pc, block_of(r, c), r.is_write)
                ? kL2Hit
                : kBeyondL2;
        }
    };

    sim::Cache &llc = hier.llc();
    double llc_ticks = 0.0;
    const std::uint64_t start_ns = nowNs();
    const std::uint64_t start_ticks = ticks();
    const std::int32_t loop = tr.begin("cachesim.interleave", parent, cell);
    for (std::uint64_t iter = 0; !warm || pending_cores > 0; ++iter) {
        unsigned next = 0;
        for (unsigned c = 1; c < cores; ++c) {
            if (models[c].cycles() < models[next].cycles())
                next = c;
        }
        Cursor &cur = cursor[next];
        while (cur.pos >= cur.chunk.size())
            fetch(next, loop);
        const auto &rec = cur.chunk[cur.pos];
        const std::uint8_t private_depth = cur.depth[cur.pos++];
        const auto core_id = static_cast<std::uint8_t>(next);
        sim::AccessDepth depth = sim::AccessDepth::L1;
        ++tally.cpu;
        if (private_depth == kL1Hit) {
            ++tally.l1_hits;
        } else if (private_depth == kL2Hit) {
            ++tally.l2;
            ++tally.l2_hits;
            depth = sim::AccessDepth::L2;
        } else {
            ++tally.l2;
            ++tally.llc;
            const std::uint64_t block = block_of(rec, next);
            const std::uint64_t t0 = ticks();
            const bool hit = llc.access(core_id, rec.pc, block, rec.is_write);
            llc_ticks += static_cast<double>(ticks() - t0) - tick_overhead;
            depth = hit ? sim::AccessDepth::Llc : sim::AccessDepth::Dram;
            if (optgen_stream && sampler.isSampled(block & (llc_sets - 1)))
                optgen_stream->push_back({block, rec.pc, core_id});
        }
        if (iter % kSampleEvery == 0) {
            const std::uint64_t t0 = ticks();
            models[next].step(depth, hier.latency(depth));
            tally.core_sample_ns +=
                static_cast<double>(ticks() - t0) - tick_overhead;
            ++tally.core_samples;
        } else {
            models[next].step(depth, hier.latency(depth));
        }
        ++executed[next];

        if (!warm) {
            if (executed[next] == warmup && --cold_cores == 0) {
                warm = true;
                hier.clearStatsCounters();
                for (auto &m : models)
                    m.clearCounters();
                executed.assign(cores, 0);
            }
        } else if (executed[next] == quota) {
            --pending_cores;
        }
    }
    tr.end(loop);
    const double ns_per_tick = static_cast<double>(nowNs() - start_ns)
        / static_cast<double>(ticks() - start_ticks);
    tally.llc_ns += llc_ticks * ns_per_tick;
    tally.core_sample_ns *= ns_per_tick;
    // The LLC calls, summed, as one span under the loop.
    const std::uint64_t loop_start = tr.spans()[loop].start_ns;
    tr.add({"cachesim.llc", loop_start,
            loop_start + static_cast<std::uint64_t>(llc_ticks * ns_per_tick),
            loop, cell});

    CellCounts out;
    out.llc = llc.stats();
    for (auto &m : models) {
        m.finish();
        out.ipc.push_back(m.ipc());
    }
    return out;
}

/** Discards records: times a kernel's generation alone. */
class NullSink final : public traces::TraceSink
{
  public:
    void push(const traces::AccessRecord &) override { ++n_; }
    using traces::TraceSink::push;
    std::uint64_t size() const override { return n_; }

  private:
    std::uint64_t n_ = 0;
};

void
mixTraced(const Options &opts, Report &report)
{
    // Set-up, split: generation alone into a discarding sink, then
    // generation plus gtrace encoding through ensureSpilledTrace.
    Tracer main_tracer;
    double gen_ns = 0.0, spill_ns = 0.0, bytes = 0.0, records = 0.0;
    for (const auto &name : kMixTraces) {
        ScopedSpan s(main_tracer, "workloads.generate", -1, -1);
        std::uint64_t t = nowNs();
        NullSink sink;
        workloads::makeWorkload(name, kMixAccesses)->run(sink);
        gen_ns += static_cast<double>(nowNs() - t);
    }
    std::vector<std::string> paths;
    {
        ScopedSpan s(main_tracer, "workloads.spill", -1, -1);
        std::uint64_t t = nowNs();
        paths = spillMix(opts.work_dir + "/spill");
        spill_ns = static_cast<double>(nowNs() - t);
    }
    for (const auto &p : paths) {
        traces::StreamingTrace t;
        if (t.open(p)) {
            bytes += static_cast<double>(t.fileBytes());
            records += static_cast<double>(t.size());
        }
    }
    report.metric("workloads.gen_ns_per_access", gen_ns / records, "ns");
    report.metric("traces.encode_ns_per_access",
                  (spill_ns - gen_ns) / records, "ns");
    report.metric("traces.bytes_per_access", bytes / records, "B");

    const double overhead = tickOverhead();
    const std::size_t cells = kMixPolicies.size();
    std::vector<MixTally> tallies(cells);
    std::vector<double> untraced_s(cells);
    std::vector<Tracer> tracers(opts.threads);
    std::vector<SampledLlcAccess> optgen_stream;
    std::mutex report_mu;
    std::atomic<std::size_t> next{0};
    auto order = dispatchOrder(cells, opts.seed);
    std::vector<std::uint64_t> busy_ns(opts.threads, 0);

    std::uint64_t t0 = nowNs();
    {
        std::vector<std::jthread> pool;
        for (unsigned t = 0; t < opts.threads; ++t) {
            pool.emplace_back([&, t] {
                for (std::size_t k; (k = next.fetch_add(1)) < cells;) {
                    std::size_t cell = order[k];
                    const std::string &pol = kMixPolicies[cell];
                    const auto id = static_cast<std::int32_t>(cell);
                    std::uint64_t delivered = 0;
                    std::uint64_t u0 = nowNs();
                    CellCounts plain =
                        countsOf(runMixCell(paths, pol, delivered));
                    untraced_s[cell] = secondsSince(u0);
                    CellCounts replay;
                    {
                        ScopedSpan root(tracers[t], "harness.cell", -1, id);
                        replay = stagedMultiCore(
                            paths, pol, tracers[t], root.id(), id,
                            tallies[cell], overhead,
                            pol == "LRU" ? &optgen_stream : nullptr);
                    }
                    busy_ns[t] += nowNs() - u0;
                    std::lock_guard<std::mutex> lock(report_mu);
                    report.attempt();
                    if (!(replay == plain))
                        report.fail("mix4/" + pol
                                    + ": traced replay diverged from "
                                      "runMultiCore");
                }
            });
        }
    }
    const double wall = secondsSince(t0);

    std::map<std::string, double> self;
    double cell_ns = 0.0;
    for (const Tracer &tr : tracers) {
        for (const auto &[name, ns] : tr.selfTimes())
            self[name] += ns;
        for (const Span &s : tr.spans()) {
            if (std::string(s.name) == "harness.cell")
                cell_ns += static_cast<double>(s.end_ns - s.start_ns);
        }
    }
    double cpu = 0, l2n = 0, llcn = 0, l1_hits = 0, l2_hits = 0;
    double core_ns = 0, untraced = 0;
    std::vector<double> llc_per_access(cells);
    for (std::size_t c = 0; c < cells; ++c) {
        const MixTally &m = tallies[c];
        llc_per_access[c] = m.llc_ns / static_cast<double>(m.llc);
        report.metric("cachesim.llc.ns_per_llc_access."
                          + metricKey(kMixPolicies[c]),
                      llc_per_access[c], "ns");
        cpu += static_cast<double>(m.cpu);
        l2n += static_cast<double>(m.l2);
        llcn += static_cast<double>(m.llc);
        l1_hits += static_cast<double>(m.l1_hits);
        l2_hits += static_cast<double>(m.l2_hits);
        core_ns += m.core_sample_ns / static_cast<double>(m.core_samples)
            * static_cast<double>(m.cpu);
        untraced += untraced_s[c];
        std::printf("mix4/%s: %llu CPU accesses executed\n",
                    kMixPolicies[c].c_str(),
                    static_cast<unsigned long long>(m.cpu));
    }
    for (std::size_t c = 1; c < cells; ++c)
        report.metric("policies.hook_ns_per_llc_access."
                          + metricKey(kMixPolicies[c]),
                      llc_per_access[c] - llc_per_access[0], "ns");

    report.metric("traces.decode_ns_per_access", self["traces.decode"] / cpu,
                  "ns");
    report.metric("cachesim.l1.ns_per_access", self["cachesim.l1"] / cpu,
                  "ns");
    report.metric("cachesim.l2.ns_per_access", self["cachesim.l2"] / l2n,
                  "ns");
    report.metric("cachesim.private_share",
                  (self["cachesim.l1"] + self["cachesim.l2"]) / cell_ns,
                  "ratio");
    report.metric("cachesim.l1.hit_ratio", l1_hits / cpu, "ratio");
    report.metric("cachesim.l2.hit_ratio", l2_hits / l2n, "ratio");
    report.metric("cachesim.llc_fraction", llcn / cpu, "ratio");
    // Sampled 1 in kSampleEvery; part of the interleave's self time.
    report.metric("cachesim.core_model.ns_per_access", core_ns / cpu, "ns");
    report.metric("cachesim.interleave.ns_per_access",
                  self["cachesim.interleave"] / cpu, "ns");
    double layers = 0.0;
    for (const auto &[name, ns] : self) {
        if (name != "harness.cell")
            layers += ns;
    }
    checkCoverage(layers / cell_ns, report);
    report.metric("harness.tracing_overhead", cell_ns / 1e9 / untraced,
                  "ratio");
    double busy = 0;
    for (auto b : busy_ns)
        busy += static_cast<double>(b) / 1e9;
    report.metric("harness.utilization",
                  busy / (wall * static_cast<double>(opts.threads)),
                  "ratio");

    // Standalone OPTgen over the sampled sets' LLC accesses of the
    // LRU interleave.
    {
        const auto &geom = mixOptions().hierarchy.llc;
        opt::OptGenSampler sampler(geom.sets(), geom.ways);
        const opt::PcHistory no_history;
        double events = 0;
        ScopedSpan s(main_tracer, "opt.optgen", -1, -1);
        std::uint64_t t = nowNs();
        for (const auto &a : optgen_stream) {
            if (sampler.access(a.block & (geom.sets() - 1), a.block, a.pc,
                               a.core, no_history, false, false))
                events += 1.0;
            while (sampler.popExpired())
                events += 1.0;
        }
        const double ns = static_cast<double>(nowNs() - t);
        report.metric("opt.optgen_ns_per_sampled_access",
                      ns / static_cast<double>(optgen_stream.size()), "ns");
        report.metric("opt.optgen.training_events_per_kaccess",
                      events * 1000.0 / static_cast<double>(tallies[0].llc),
                      "count");
    }
    tracers.push_back(std::move(main_tracer));
    writeSpans(opts.out_dir + "/spans-mix4_streamed.jsonl", tracers);
}

} // namespace

void
runMix4Streamed(const Options &opts, Report &report)
{
    if (opts.trace) {
        mixTraced(opts, report);
        return;
    }
    std::vector<double> setup_s;
    std::vector<std::string> paths;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        std::uint64_t t0 = nowNs();
        paths = spillMix(opts.work_dir + "/spill" + std::to_string(rep));
        setup_s.push_back(secondsSince(t0));
    }
    report.metric("setup_s", median(setup_s), "s");

    std::vector<std::string> names;
    for (const auto &p : kMixPolicies)
        names.push_back(p);
    CellChecker checker(names.size());
    auto order = dispatchOrder(names.size(), opts.seed);
    auto runs = runCellsFor(
        opts.seconds, opts.threads, order,
        [&](std::size_t cell, unsigned) -> std::uint64_t {
            std::uint64_t records = 0;
            auto res = runMixCell(paths, kMixPolicies[cell], records);
            checker.check(cell, countsOf(res), names[cell], report);
            return records;
        },
        report);
    reportSimPhase(runs, opts.threads, report);
    report.metric("peak_rss_mib", peakRssMiB(), "MiB");

    printCells("mix4_streamed", names, checker, false);
    if (!checker.allRan(names, report))
        return;
    const auto &lru = checker.counts(0);
    const auto &glider = checker.counts(2);
    double ipc_lru = 0, ipc_glider = 0;
    for (double x : lru.ipc)
        ipc_lru += x;
    for (double x : glider.ipc)
        ipc_glider += x;
    std::printf("glider_miss_reduction_pct %.4f (shared LLC)\n",
                100.0
                    * (static_cast<double>(lru.llc.misses)
                       - static_cast<double>(glider.llc.misses))
                    / static_cast<double>(lru.llc.misses));
    std::printf("glider_speedup_pct %.4f (IPC sum)\n",
                100.0 * (ipc_glider / ipc_lru - 1.0));
}

} // namespace perfbench
