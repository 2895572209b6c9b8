#include "simulator.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>

#include "common/logging.hh"

namespace glider {
namespace sim {

namespace {

/**
 * Poll interval for the cooperative cancellation token: frequent
 * enough that a soft deadline lands within milliseconds, coarse
 * enough that the check is invisible next to the access itself.
 */
constexpr std::uint64_t kCancelCheckMask = 4095;

/**
 * Each core runs its own process, but workload kernels all allocate
 * from the same base: the core id is ORed into the address from here.
 */
constexpr unsigned kCoreFoldShift = 44;

/**
 * Accesses before the stats reset. Fractions outside [0, 1) (and NaN)
 * are rejected: a negative one makes the conversion undefined; at 1
 * the reset lands on the last access and nothing is measured; past 1
 * it never comes and the warmup is measured.
 */
std::uint64_t
warmupAccesses(double fraction, std::uint64_t accesses)
{
    if (!(fraction >= 0.0 && fraction < 1.0))
        // glider-lint: allow(hotpath-transitive) option check, once
        // per run before the replay loop starts
        throw std::invalid_argument(
            "SimOptions::warmup_fraction must be in [0, 1)");
    return static_cast<std::uint64_t>(fraction
                                      * static_cast<double>(accesses));
}

/**
 * One core's cursor over its source, and its private L1/L2. The first
 * pass reads the source's memoised depth codes when it has any;
 * otherwise each chunk is filtered as it arrives. A rewind after a
 * memoised pass first runs that pass once through the filter, codes
 * discarded, so the filter enters the next pass in the state the full
 * walk carries over; from then on it filters live. Nothing the LLC
 * does reaches L1/L2, so filtering a chunk ahead changes no result.
 */
struct Lane
{
    Lane(AccessSource &src, const HierarchyConfig &config, bool fold)
        : source(src), memo(src.memoisedDepths(config)), filter(config),
          codes(memo ? memo.get() : &live), check_fold(fold)
    {
        GLIDER_ASSERT(src.size() > 0);
        GLIDER_ASSERT(!memo || memo->size() == src.size());
        source.rewind();
    }
    // `codes` may point into this Lane's own `live`.
    Lane(const Lane &) = delete;
    Lane &operator=(const Lane &) = delete;

    /**
     * Pull the next chunk, rewinding at the end of the stream (the
     * early-finisher rule). With more than one core, reject an
     * address the core fold would alias: its codes, taken unfolded,
     * could also differ from the folded walk's.
     */
    void
    refill()
    {
        if (memo)
            first += chunk.size();
        while ((chunk = source.nextChunk()).empty()) {
            source.rewind();
            if (memo) {
                for (auto c = source.nextChunk(); !c.empty();
                     c = source.nextChunk())
                    filter.filter(c, live);
                source.rewind();
                memo.reset();
                codes = &live;
                first = 0;
            }
        }
        pos = 0;
        if (check_fold) {
            std::uint64_t bits = 0;
            for (const auto &rec : chunk)
                bits |= rec.address;
            if (bits >> kCoreFoldShift)
                // glider-lint: allow(hotpath-transitive) input check,
                // never taken on a valid trace; the run ends here
                throw std::invalid_argument(
                    "multi-core replay: a trace address sets bit 44 or "
                    "above, where the core id is folded in");
        }
        if (!memo)
            filter.filter(chunk, live);
    }

    AccessSource &source;
    std::shared_ptr<const DepthCodes> memo; //!< first pass only
    PrivateFilter filter;
    DepthCodes live;         //!< the current chunk's codes, once live
    const DepthCodes *codes; //!< memo or live
    std::span<const traces::AccessRecord> chunk;
    std::uint64_t first = 0; //!< codes index of chunk[0]; 0 once live
    std::size_t pos = 0;
    std::uint64_t executed = 0; //!< accesses in this phase
    bool check_fold;
};

/**
 * The one replay loop: one source per core, each stepping
 * @p models[core], against the shared @p llc. Every core runs
 * @p warmup accesses, then all counters reset, and the run ends once
 * every core has run @p quota more. Only PrivateDepth::Llc records
 * reach the LLC, on the core-folded address. @return accesses run.
 */
std::uint64_t
replay(std::span<AccessSource *const> sources, Cache &llc,
       std::span<CoreModel> models, std::uint64_t warmup,
       std::uint64_t quota, const SimOptions &opts)
{
    const auto cores = static_cast<unsigned>(sources.size());
    GLIDER_ASSERT(cores >= 1 && models.size() == cores);
    std::uint32_t latency[4];
    for (AccessDepth d : {AccessDepth::L1, AccessDepth::L2,
                          AccessDepth::Llc, AccessDepth::Dram})
        latency[static_cast<int>(d)] = latencyOf(opts.hierarchy, d);
    // A deque constructs each Lane in place and never moves it.
    std::deque<Lane> lanes;
    for (auto *s : sources) {
        GLIDER_ASSERT(s);
        lanes.emplace_back(*s, opts.hierarchy, cores > 1); // glider-lint: allow(hotpath-alloc) per-run setup
    }

    // The warmup phase runs until every core has done `warmup`
    // accesses, the measured one until every core has done `quota`
    // more. A core's count crosses the phase's mark once, so counting
    // the cores short of it replaces a rescan of every core.
    bool warm = warmup == 0;
    std::uint64_t mark = warm ? quota : warmup;
    unsigned short_of = mark > 0 ? cores : 0;
    std::uint64_t i = 0;
    while (short_of > 0) {
        // Timing order: the core with the fewest cycles runs next, the
        // lowest index on a tie, which is how simultaneous execution
        // serialises onto the shared LLC. It keeps running while it
        // stays that core: below every lower-indexed core's cycles
        // (`lo`) and not above a higher one's (`hi`). One core runs
        // throughout.
        unsigned next = 0;
        double lo = HUGE_VAL, hi = HUGE_VAL;
        for (unsigned c = 1; c < cores; ++c) {
            const double t = models[c].cycles();
            if (t < models[next].cycles()) {
                lo = std::min({lo, hi, models[next].cycles()});
                hi = HUGE_VAL;
                next = c;
            } else {
                hi = std::min(hi, t);
            }
        }
        Lane &lane = lanes[next];
        // Moved to a local for the batch, so the clock can live in
        // registers; it goes back before anything reads models[].
        CoreModel model = std::move(models[next]);
        const auto core = static_cast<std::uint8_t>(next);
        const std::uint64_t fold = std::uint64_t{next} << kCoreFoldShift;
        bool stay = true;
        while (stay && short_of > 0) {
            if (lane.pos == lane.chunk.size())
                lane.refill();
            // Run the chunk from locals, stopping at the phase mark.
            const traces::AccessRecord *records = lane.chunk.data();
            const DepthCodes &codes = *lane.codes;
            const std::uint64_t first = lane.first;
            const std::size_t begin = lane.pos;
            std::size_t end = lane.chunk.size();
            if (lane.executed < mark)
                end = std::min<std::uint64_t>(end,
                                              begin + mark - lane.executed);
            std::size_t k = begin;
            do {
                if (opts.cancel && (i & kCancelCheckMask) == 0)
                    opts.cancel->throwIfCancelled();
                ++i;
                const auto &rec = records[k];
                AccessDepth depth = AccessDepth::L1;
                switch (codes[first + k]) {
                  case PrivateDepth::L1:
                    break;
                  case PrivateDepth::L2:
                    depth = AccessDepth::L2;
                    break;
                  case PrivateDepth::Llc:
                    depth = llc.access(core, rec.pc,
                                       traces::blockAddr(rec.address | fold),
                                       rec.is_write)
                        ? AccessDepth::Llc
                        : AccessDepth::Dram;
                    break;
                }
                model.step(depth, latency[static_cast<int>(depth)]);
                stay = model.cycles() < lo && model.cycles() <= hi;
            } while (++k < end && stay);
            lane.pos = k;
            lane.executed += k - begin;
            if (lane.executed == mark)
                --short_of;
        }
        models[next] = std::move(model);
        if (short_of == 0 && !warm) {
            warm = true;
            llc.clearStats();
            for (unsigned c = 0; c < cores; ++c) {
                models[c].clearCounters();
                lanes[c].executed = 0;
            }
            mark = quota;
            short_of = quota > 0 ? cores : 0;
        }
    }
    for (auto &m : models)
        m.finish();
    return i;
}

} // namespace

SingleCoreResult
runSingleCore(AccessSource &source,
              std::unique_ptr<ReplacementPolicy> llc_policy,
              const SimOptions &opts)
{
    GLIDER_ASSERT(source.size() > 0);
    // Warmup plus quota is one pass, so the run never rewinds.
    const std::uint64_t warmup =
        warmupAccesses(opts.warmup_fraction, source.size());
    Cache llc(opts.hierarchy.llc, std::move(llc_policy));
    CoreModel core(opts.core);
    AccessSource *const one[] = {&source};

    SingleCoreResult res;
    res.workload = source.name();
    res.policy = llc.policy().name();
    auto start = std::chrono::steady_clock::now();
    res.accesses_simulated = replay(one, llc, {&core, 1}, warmup,
                                    source.size() - warmup, opts);
    res.sim_seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    res.instructions = core.instructions();
    res.cycles = core.cycles();
    res.ipc = core.ipc();
    res.llc = llc.stats();
    res.predictor = llc.policy().predictorAccuracy();
    return res;
}

SingleCoreResult
runSingleCore(const traces::Trace &trace,
              std::unique_ptr<ReplacementPolicy> llc_policy,
              const SimOptions &opts)
{
    GLIDER_ASSERT(!trace.empty());
    TraceSource source(trace);
    return runSingleCore(source, std::move(llc_policy), opts);
}

MultiCoreResult
runMultiCore(std::span<AccessSource *const> sources,
             std::unique_ptr<ReplacementPolicy> llc_policy,
             std::uint64_t min_accesses_per_core, const SimOptions &opts)
{
    const auto cores = static_cast<unsigned>(sources.size());
    GLIDER_ASSERT(cores >= 1);
    const std::uint64_t warmup =
        warmupAccesses(opts.warmup_fraction, min_accesses_per_core);
    Cache llc(opts.hierarchy.llc, std::move(llc_policy), cores);
    // glider-lint: allow(hotpath-alloc) per-run setup
    std::vector<CoreModel> models(cores, CoreModel(opts.core));
    replay(sources, llc, models, warmup, min_accesses_per_core, opts);

    MultiCoreResult res;
    res.policy = llc.policy().name();
    for (unsigned c = 0; c < cores; ++c) {
        // glider-lint: allow(hotpath-alloc) per-run result assembly
        res.workloads.push_back(sources[c]->name());
        // glider-lint: allow(hotpath-alloc) per-run result assembly
        res.ipc_shared.push_back(models[c].ipc());
    }
    res.llc = llc.stats();
    return res;
}

MultiCoreResult
runMultiCore(const std::vector<const traces::Trace *> &traces,
             std::unique_ptr<ReplacementPolicy> llc_policy,
             std::uint64_t min_accesses_per_core, const SimOptions &opts)
{
    // glider-lint: allow(hotpath-alloc) per-run setup; the reserve
    // keeps every TraceSource where `sources` points
    std::vector<TraceSource> wrapped;
    wrapped.reserve(traces.size());
    std::vector<AccessSource *> sources;
    for (auto *t : traces) {
        GLIDER_ASSERT(t && !t->empty());
        sources.push_back(&wrapped.emplace_back(*t)); // glider-lint: allow(hotpath-alloc) per-run setup
    }
    return runMultiCore(sources, std::move(llc_policy),
                        min_accesses_per_core, opts);
}

} // namespace sim
} // namespace glider
