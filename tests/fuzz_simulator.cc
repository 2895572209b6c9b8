/**
 * @file
 * Seeded property-based fuzzer for the simulator.
 *
 * Each case derives a random (trace, hierarchy config) pair from a
 * deterministic seed and replays it through every registered
 * replacement policy inside verify::CheckedHierarchy, so every access
 * runs under the full structural-invariant sweep (shadow tag array,
 * flow conservation, counter coherence, LRU reference model for the
 * LRU policy). Each trace additionally runs a "MIN" differential
 * (the replaying BeladyPolicy must reproduce the hit count of the
 * batch simulateBelady oracle on the extracted LLC stream) and a
 * "STREAM" differential (the trace round-tripped through the gtrace
 * codec and replayed via StreamingSource must decode record-exactly
 * and leave every simulation result bit-identical to the in-memory
 * replay) and a "FILTER" differential (the replay loop, which reads
 * memoised or per-chunk private-filter codes and walks only the LLC,
 * must match a full Hierarchy::access walk exactly, single-core and
 * on the scenario's core count with forced rewinds, and
 * extractLlcStream must equal the records that walk sent to the LLC).
 *
 * On failure the trace prefix is shrunk while the failure reproduces,
 * then a one-line reproducer is printed:
 *
 *   REPRODUCE: fuzz_simulator --repro --seed 0x2a --policy SHiP --len 312
 *
 * Usage:
 *   fuzz_simulator [--cases N] [--seconds S] [--seed X]
 *   fuzz_simulator --repro --seed X [--policy NAME] [--len N]
 *
 * A "case" is one (trace, config, policy) run; the default budget is
 * 1000 cases (the CI sanitizer job uses --seconds 30 instead).
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cachesim/access_source.hh"
#include "cachesim/simulator.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "core/policy_factory.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "traces/access.hh"
#include "traces/gtrace.hh"
#include "verify/checked_hierarchy.hh"
#include "verify/checked_policy.hh"
#include "verify/invariants.hh"

namespace glider {
namespace fuzz {
namespace {

/** One generated scenario: hierarchy shape, cores, and CPU trace. */
struct Scenario
{
    sim::HierarchyConfig hier;
    unsigned cores = 1;
    traces::Trace trace;
};

std::uint64_t
pow2Between(Rng &rng, unsigned lo_log2, unsigned hi_log2)
{
    return 1ull << rng.range(lo_log2, hi_log2);
}

/**
 * Derive the scenario for (@p seed, @p case_index) deterministically;
 * @p len_override truncates the trace (used by shrinking / --repro).
 */
Scenario
makeScenario(std::uint64_t seed, std::uint64_t case_index,
             std::size_t len_override = 0)
{
    Rng rng(hashCombine(mix64(seed), case_index));
    Scenario s;

    // Small geometries so short traces still thrash every level.
    std::uint64_t l1_sets = pow2Between(rng, 1, 3);
    std::uint32_t l1_ways =
        static_cast<std::uint32_t>(pow2Between(rng, 0, 2));
    std::uint64_t l2_sets = pow2Between(rng, 2, 4);
    std::uint32_t l2_ways =
        static_cast<std::uint32_t>(pow2Between(rng, 1, 3));
    std::uint64_t llc_sets = pow2Between(rng, 0, 6);
    std::uint32_t llc_ways =
        static_cast<std::uint32_t>(pow2Between(rng, 0, 4));
    s.hier.l1 = sim::CacheConfig{"L1D", l1_sets * l1_ways * 64, l1_ways,
                                 4};
    s.hier.l2 = sim::CacheConfig{"L2", l2_sets * l2_ways * 64, l2_ways,
                                 12};
    s.hier.llc = sim::CacheConfig{"LLC", llc_sets * llc_ways * 64,
                                  llc_ways, 26};

    const unsigned core_choices[] = {1, 1, 1, 2, 4};
    s.cores = core_choices[rng.below(5)];

    std::size_t len = static_cast<std::size_t>(rng.range(200, 3000));
    if (len_override > 0 && len_override < len)
        len = len_override;

    // Access-pattern family for this scenario.
    enum { Uniform, Loop, Stride, HotCold, Phased };
    int pattern = static_cast<int>(rng.below(5));
    std::uint64_t blocks = rng.range(4, 4096);
    std::uint64_t loop_len = rng.range(8, 1024);
    std::uint64_t stride = rng.range(1, 8);
    std::uint64_t hot = rng.range(2, 64);
    std::uint64_t pcs = rng.range(1, 16);
    double write_p = rng.uniform() * 0.4;

    s.trace.setName("fuzz");
    std::uint64_t pos = 0;
    for (std::size_t i = 0; i < len; ++i) {
        std::uint64_t block = 0;
        switch (pattern) {
          case Uniform:
            block = rng.below(blocks);
            break;
          case Loop:
            block = pos++ % loop_len;
            break;
          case Stride:
            block = (pos * stride) % blocks;
            ++pos;
            break;
          case HotCold:
            block = rng.chance(0.9) ? rng.below(hot)
                                    : blocks + pos++;
            break;
          case Phased:
            block = (i < len / 2 ? 0 : blocks)
                + rng.below(loop_len);
            break;
        }
        std::uint64_t pc = 0x400000 + hashInto(block / 8, pcs) * 4;
        s.trace.push(pc, block * 64, rng.chance(write_p),
                     static_cast<std::uint8_t>(rng.below(s.cores)));
    }
    return s;
}

/** All policies a scenario runs, differential modes last. */
std::vector<std::string>
policyLineup()
{
    std::vector<std::string> names = core::policyNames();
    names.push_back("MIN");
    names.push_back("STREAM");
    names.push_back("FILTER");
    return names;
}

/**
 * Write @p trace as a gtrace at @p path with @p chunk records per
 * chunk. @return an error message, or std::nullopt on success.
 */
std::optional<std::string>
writeGtrace(const traces::Trace &trace, const std::string &path,
            std::uint32_t chunk)
{
    traces::GtraceWriter writer;
    if (!writer.open(path, trace.name(), chunk))
        return "cannot create " + path;
    for (const auto &rec : trace)
        writer.push(rec);
    if (!writer.finish())
        return "write error on " + path;
    return std::nullopt;
}

/** Temporary gtrace path for one differential case. */
std::string
tempGtracePath(const char *mode, std::uint64_t seed,
               std::uint64_t case_index)
{
    return std::string("/tmp/glider_fuzz_") + mode + "."
        + std::to_string(static_cast<unsigned long long>(
            hashCombine(seed, case_index)))
        + ".gtrace";
}

/** Whether two runs left the same LLC statistics. */
bool
sameLlc(const sim::CacheStats &a, const sim::CacheStats &b)
{
    return a.hits == b.hits && a.misses == b.misses
        && a.accesses == b.accesses && a.evictions == b.evictions
        && a.bypasses == b.bypasses;
}

/** Demand bit-identical LLC, core-model and predictor results. */
void
requireSameResult(const sim::SingleCoreResult &got,
                  const sim::SingleCoreResult &want,
                  const std::string &what)
{
    verify::require(sameLlc(got.llc, want.llc),
                    what + " changed LLC statistics");
    verify::require(got.instructions == want.instructions
                        && got.cycles == want.cycles
                        && got.ipc == want.ipc,
                    what + " changed core-model results");
    verify::require(got.predictor.events == want.predictor.events
                        && got.predictor.correct == want.predictor.correct,
                    what + " changed the predictor's accuracy counters");
}

/**
 * "STREAM" differential: round-trip the scenario trace through the
 * gtrace codec with a case-derived chunk size, demand record-exact
 * decode, then replay both the in-memory trace and the streamed file
 * through the single-core driver and demand bit-identical results.
 * Any divergence is a codec bug or a chunk-boundary bug in the
 * AccessSource replay loop.
 */
std::optional<std::string>
runStreamCase(std::uint64_t seed, std::uint64_t case_index,
              const Scenario &s)
{
    if (s.trace.empty())
        return std::nullopt;
    Rng rng(hashCombine(mix64(seed) ^ 0x57124Dull, case_index));
    auto chunk = static_cast<std::uint32_t>(1 + rng.below(64));
    std::string path = tempGtracePath("stream", seed, case_index);
    if (auto err = writeGtrace(s.trace, path, chunk))
        return "STREAM differential: " + *err;

    auto fail = [&](std::string msg) {
        std::remove(path.c_str());
        return std::optional<std::string>(std::move(msg));
    };
    traces::StreamingTrace st;
    std::string error;
    if (!st.open(path, &error))
        return fail("STREAM differential: reopen failed: " + error);
    verify::require(st.size() == s.trace.size(),
                    "STREAM differential: record count changed "
                    "across the codec round-trip");

    // Record-exact decode across every chunk boundary.
    std::vector<traces::AccessRecord> buf(st.maxChunkRecords());
    std::uint64_t i = 0;
    for (std::size_t c = 0; c < st.chunkCount(); ++c) {
        std::size_t n = st.readChunk(c, buf.data(), buf.size());
        for (std::size_t k = 0; k < n; ++k) {
            if (!(buf[k] == s.trace[i])) {
                return fail("STREAM differential: record "
                            + std::to_string(i)
                            + " decoded differently (chunk "
                            + std::to_string(c) + ")");
            }
            ++i;
        }
    }

    sim::SimOptions opts;
    opts.hierarchy = s.hier;
    opts.warmup_fraction = 0.25;
    auto mem = sim::runSingleCore(s.trace, core::makePolicy("LRU"),
                                  opts);
    sim::StreamingSource source(std::move(st));
    auto streamed = sim::runSingleCore(source, core::makePolicy("LRU"),
                                       opts);
    std::remove(path.c_str());
    requireSameResult(streamed, mem,
                      "STREAM differential: streamed replay");
    return std::nullopt;
}

/**
 * The multi-core reference: Hierarchy::access on every access, cores
 * interleaved lowest-cycles-first (lowest index on a tie), a stats
 * reset once every core has run warmup_fraction x @p quota accesses,
 * then every core running @p quota more, rewinding at the end of its
 * trace.
 */
sim::MultiCoreResult
referenceMultiCore(const std::vector<traces::Trace> &traces,
                   const std::string &policy, std::uint64_t quota,
                   const sim::SimOptions &opts)
{
    const auto cores = static_cast<unsigned>(traces.size());
    sim::Hierarchy hier(opts.hierarchy, cores, core::makePolicy(policy));
    std::vector<sim::CoreModel> models(cores, sim::CoreModel(opts.core));
    std::vector<std::size_t> cursor(cores, 0);
    std::vector<std::uint64_t> executed(cores, 0);
    auto allReached = [&](std::uint64_t mark) {
        for (auto e : executed) {
            if (e < mark)
                return false;
        }
        return true;
    };
    const auto warmup = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(quota));
    bool warm = warmup == 0;
    while (!warm || !allReached(quota)) {
        unsigned next = 0;
        for (unsigned c = 1; c < cores; ++c) {
            if (models[c].cycles() < models[next].cycles())
                next = c;
        }
        const auto &rec = traces[next][cursor[next]];
        cursor[next] = (cursor[next] + 1) % traces[next].size();
        sim::AccessDepth depth = hier.access(
            static_cast<std::uint8_t>(next), rec.pc,
            rec.address | (static_cast<std::uint64_t>(next) << 44),
            rec.is_write);
        models[next].step(depth, hier.latency(depth));
        ++executed[next];
        if (!warm && allReached(warmup)) {
            warm = true;
            hier.clearStatsCounters();
            for (auto &m : models)
                m.clearCounters();
            executed.assign(cores, 0);
        }
    }
    sim::MultiCoreResult ref;
    for (auto &m : models) {
        m.finish();
        ref.ipc_shared.push_back(m.ipc());
    }
    ref.llc = hier.llc().stats();
    return ref;
}

/** Demand bit-identical per-core IPC and LLC statistics. */
void
requireSameMix(const sim::MultiCoreResult &got,
               const sim::MultiCoreResult &want, const std::string &what)
{
    verify::require(got.ipc_shared == want.ipc_shared,
                    what + " changed a core's IPC");
    verify::require(sameLlc(got.llc, want.llc),
                    what + " changed LLC statistics");
}

/**
 * The multi-core half of FILTER: each of the scenario's cores replays
 * its own rotation of the trace at its own length, and the quota
 * exceeds every length, so every core rewinds after its memoised
 * pass. runMultiCore must match the reference exactly from memoised
 * traces and from streamed gtrace copies, which it filters chunk by
 * chunk.
 */
std::optional<std::string>
runFilterMixCase(std::uint64_t seed, std::uint64_t case_index,
                 const Scenario &s, const std::string &policy, Rng &rng)
{
    const std::size_t len = s.trace.size();
    std::vector<traces::Trace> per_core;
    for (unsigned c = 0; c < s.cores; ++c) {
        traces::Trace t("core" + std::to_string(c));
        // Lengths fall by len / (2 * cores) per core, to at least
        // len / 2.
        const std::size_t own = len - c * (len / (2 * s.cores));
        for (std::size_t k = 0; k < own; ++k)
            t.push(s.trace[(k + c * len / s.cores) % len]);
        per_core.push_back(std::move(t));
    }
    const std::uint64_t quota = len + 1;
    sim::SimOptions opts;
    opts.hierarchy = s.hier;
    opts.warmup_fraction = 0.25;
    const auto ref = referenceMultiCore(per_core, policy, quota, opts);
    const std::string what = "FILTER differential (" + policy + ", "
        + std::to_string(s.cores) + " cores)";

    std::vector<const traces::Trace *> ptrs;
    for (const auto &t : per_core)
        ptrs.push_back(&t);
    requireSameMix(sim::runMultiCore(ptrs, core::makePolicy(policy),
                                     quota, opts),
                   ref, what + ": memoised replay with rewinds");

    std::vector<std::string> paths;
    auto cleanup = [&] {
        for (const auto &p : paths)
            std::remove(p.c_str());
    };
    std::vector<std::unique_ptr<sim::StreamingSource>> sources;
    std::vector<sim::AccessSource *> source_ptrs;
    for (unsigned c = 0; c < s.cores; ++c) {
        paths.push_back(tempGtracePath(("filter" + std::to_string(c))
                                           .c_str(),
                                       seed, case_index));
        if (auto err = writeGtrace(per_core[c], paths.back(),
                                   static_cast<std::uint32_t>(
                                       1 + rng.below(64)))) {
            cleanup();
            return "FILTER differential: " + *err;
        }
        traces::StreamingTrace st;
        std::string error;
        if (!st.open(paths.back(), &error)) {
            cleanup();
            return "FILTER differential: reopen failed: " + error;
        }
        sources.push_back(
            std::make_unique<sim::StreamingSource>(std::move(st)));
        source_ptrs.push_back(sources.back().get());
    }
    auto streamed = sim::runMultiCore(source_ptrs,
                                      core::makePolicy(policy), quota,
                                      opts);
    cleanup();
    requireSameMix(streamed, ref,
                   what + ": per-chunk filtered replay with rewinds");
    return std::nullopt;
}

/**
 * "FILTER" differential: the reference is the full three-level walk
 * (Hierarchy::access on core 0 plus CoreModel, with the driver's
 * warmup reset), which re-runs L1/L2 for every policy. The single-core
 * driver must reproduce it exactly from the private-filter codes,
 * both from the trace's memo and filtering a streamed copy chunk by
 * chunk, and extractLlcStream must select exactly the records the
 * reference sent to the LLC. runFilterMixCase then runs the same
 * policy on the scenario's cores. The LLC policy is case-chosen.
 */
std::optional<std::string>
runFilterCase(std::uint64_t seed, std::uint64_t case_index,
              const Scenario &s)
{
    if (s.trace.empty())
        return std::nullopt;
    Rng rng(hashCombine(mix64(seed) ^ 0xF117E4ull, case_index));
    const auto names = core::policyNames();
    const std::string policy = names[rng.below(names.size())];
    sim::SimOptions opts;
    opts.hierarchy = s.hier;
    opts.warmup_fraction = 0.25;

    sim::Hierarchy hier(s.hier, 1, core::makePolicy(policy));
    sim::CoreModel core(opts.core);
    traces::Trace reached_llc;
    const auto warmup_end = static_cast<std::uint64_t>(
        opts.warmup_fraction * static_cast<double>(s.trace.size()));
    for (std::uint64_t i = 0; i < s.trace.size(); ++i) {
        const auto &rec = s.trace[i];
        sim::AccessDepth depth =
            hier.access(0, rec.pc, rec.address, rec.is_write);
        if (depth == sim::AccessDepth::Llc
            || depth == sim::AccessDepth::Dram)
            reached_llc.push(rec);
        core.step(depth, hier.latency(depth));
        if (i + 1 == warmup_end) {
            hier.clearStatsCounters();
            core.clearCounters();
        }
    }
    core.finish();
    sim::SingleCoreResult ref;
    ref.llc = hier.llc().stats();
    ref.instructions = core.instructions();
    ref.cycles = core.cycles();
    ref.ipc = core.ipc();
    ref.predictor = hier.llc().policy().predictorAccuracy();

    auto mem = sim::runSingleCore(s.trace, core::makePolicy(policy), opts);
    requireSameResult(mem, ref,
                      "FILTER differential (" + policy
                          + "): memoised replay");

    std::string path = tempGtracePath("filter", seed, case_index);
    if (auto err = writeGtrace(s.trace, path,
                               static_cast<std::uint32_t>(
                                   1 + rng.below(64))))
        return "FILTER differential: " + *err;
    traces::StreamingTrace st;
    std::string error;
    if (!st.open(path, &error)) {
        std::remove(path.c_str());
        return "FILTER differential: reopen failed: " + error;
    }
    sim::StreamingSource source(std::move(st));
    auto streamed =
        sim::runSingleCore(source, core::makePolicy(policy), opts);
    std::remove(path.c_str());
    requireSameResult(streamed, ref,
                      "FILTER differential (" + policy
                          + "): per-chunk filtered replay");

    traces::Trace llc = opt::extractLlcStream(s.trace, s.hier);
    verify::require(llc.records() == reached_llc.records(),
                    "FILTER differential: extractLlcStream differs from "
                    "the records the full walk sent to the LLC");
    return runFilterMixCase(seed, case_index, s, policy, rng);
}

/**
 * Run one (scenario, policy) case under full checking.
 * @return failure description, or std::nullopt on success.
 */
std::optional<std::string>
runCase(std::uint64_t seed, std::uint64_t case_index,
        const std::string &policy, std::size_t len_override = 0)
{
    Scenario s = makeScenario(seed, case_index, len_override);
    try {
        if (policy == "STREAM") {
            return runStreamCase(seed, case_index, s);
        } else if (policy == "FILTER") {
            return runFilterCase(seed, case_index, s);
        } else if (policy == "MIN") {
            // Differential: the replaying BeladyPolicy must reproduce
            // the batch oracle's hit count on the same LLC stream.
            traces::Trace llc = opt::extractLlcStream(s.trace, s.hier);
            if (llc.empty())
                return std::nullopt;
            opt::BeladyResult ref = opt::simulateBelady(
                llc, s.hier.llc.sets(), s.hier.llc.ways);
            std::uint64_t friendly = 0;
            for (auto l : ref.labels)
                friendly += l;
            verify::require(friendly == ref.hit_count,
                            "Belady label/hit inconsistency: friendly "
                            "labels do not match the oracle hit count");
            sim::Cache cache(
                s.hier.llc,
                verify::checkedPolicy(
                    std::make_unique<opt::BeladyPolicy>(llc)),
                s.cores);
            for (const auto &rec : llc) {
                cache.access(rec.core, rec.pc,
                             traces::blockAddr(rec.address),
                             rec.is_write);
            }
            verify::require(
                cache.stats().hits == ref.hit_count,
                "MIN differential: replayed BeladyPolicy hit count "
                "diverged from simulateBelady");
            verify::require(cache.stats().hits + cache.stats().misses
                                == cache.stats().accesses,
                            "counter coherence: hits + misses != "
                            "accesses in the MIN replay cache");
        } else {
            verify::CheckedPolicy::Options options;
            options.verify_lru = policy == "LRU";
            verify::CheckedHierarchy hier(s.hier, s.cores,
                                          core::makePolicy(policy),
                                          options);
            // Exercise warmup accounting mid-trace like the drivers.
            std::size_t warm = s.trace.size() / 4;
            for (std::size_t i = 0; i < s.trace.size(); ++i) {
                const auto &rec = s.trace[i];
                hier.access(rec.core, rec.pc, rec.address,
                            rec.is_write);
                if (i + 1 == warm)
                    hier.clearStatsCounters();
            }
            hier.check();
        }
    } catch (const verify::InvariantViolation &e) {
        return std::string(e.what());
    } catch (const std::exception &e) {
        return std::string("unexpected exception: ") + e.what();
    }
    return std::nullopt;
}

/**
 * Shrink a failing case by truncating the trace prefix while the
 * failure still reproduces. @return the minimal failing length.
 */
std::size_t
shrink(std::uint64_t seed, std::uint64_t case_index,
       const std::string &policy, std::size_t len)
{
    std::size_t step = len / 2;
    while (step >= 1) {
        // step < len, not len - step >= 1: the subtraction is
        // unsigned and would wrap once step overtakes len.
        if (step < len
            && runCase(seed, case_index, policy, len - step)) {
            len -= step;
        } else {
            step /= 2;
        }
    }
    return len;
}

struct Args
{
    std::uint64_t cases = 1000;
    double seconds = 0.0; //!< 0 = no time budget, use case budget
    std::uint64_t seed = 0xF0220000u;
    bool repro = false;
    std::string policy; //!< empty = all policies
    std::size_t len = 0;
};

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (a == "--repro") {
            args.repro = true;
        } else if (a == "--cases") {
            const char *v = value();
            if (!v)
                return false;
            args.cases = std::strtoull(v, nullptr, 0);
        } else if (a == "--seconds") {
            const char *v = value();
            if (!v)
                return false;
            args.seconds = std::strtod(v, nullptr);
        } else if (a == "--seed") {
            const char *v = value();
            if (!v)
                return false;
            args.seed = std::strtoull(v, nullptr, 0);
        } else if (a == "--policy") {
            const char *v = value();
            if (!v)
                return false;
            args.policy = v;
        } else if (a == "--len") {
            const char *v = value();
            if (!v)
                return false;
            args.len = std::strtoull(v, nullptr, 0);
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
            return false;
        }
    }
    return true;
}

int
reproduce(const Args &args)
{
    // --seed doubles as the case index namespace: a reproducer names
    // seed and case via one value (seed passed through, case 0), so
    // failure lines encode the *derived* per-case seed.
    std::vector<std::string> policies =
        args.policy.empty() ? policyLineup()
                            : std::vector<std::string>{args.policy};
    int rc = 0;
    for (const auto &policy : policies) {
        auto failure = runCase(args.seed, 0, policy, args.len);
        if (failure) {
            std::printf("FAIL  policy=%-8s %s\n", policy.c_str(),
                        failure->c_str());
            rc = 1;
        } else {
            std::printf("ok    policy=%s\n", policy.c_str());
        }
    }
    return rc;
}

int
run(const Args &args)
{
    using Clock = std::chrono::steady_clock;
    auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    std::vector<std::string> policies = policyLineup();
    std::uint64_t cases_run = 0, scenarios = 0, failures = 0;

    for (std::uint64_t index = 0;; ++index) {
        if (args.seconds > 0.0 ? elapsed() >= args.seconds
                               : cases_run >= args.cases) {
            break;
        }
        ++scenarios;
        // Every (trace, config, policy) triple is one case; the
        // per-case seed folds the scenario index so a failure line
        // reproduces without knowing the original budget.
        std::uint64_t case_seed = hashCombine(args.seed, index);
        for (const auto &policy : policies) {
            ++cases_run;
            auto failure = runCase(case_seed, 0, policy);
            if (!failure)
                continue;
            ++failures;
            std::size_t full_len = makeScenario(case_seed, 0).trace
                                       .size();
            std::size_t min_len =
                shrink(case_seed, 0, policy, full_len);
            auto shrunk = runCase(case_seed, 0, policy, min_len);
            std::printf("FUZZ FAILURE (case %" PRIu64 ", policy %s, "
                        "shrunk %zu -> %zu accesses)\n  %s\n",
                        cases_run, policy.c_str(), full_len, min_len,
                        shrunk ? shrunk->c_str() : failure->c_str());
            std::printf("REPRODUCE: fuzz_simulator --repro --seed "
                        "0x%" PRIx64 " --policy %s --len %zu\n",
                        case_seed, policy.c_str(), min_len);
            if (failures >= 10) {
                std::printf("too many failures; stopping early\n");
                goto done;
            }
        }
    }
done:
    std::printf("fuzz_simulator: %" PRIu64 " cases (%" PRIu64
                " scenarios x %zu policies) in %.1fs, %" PRIu64
                " failure%s\n",
                cases_run, scenarios, policies.size(), elapsed(),
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
}

} // namespace
} // namespace fuzz
} // namespace glider

int
main(int argc, char **argv)
{
    glider::fuzz::Args args;
    if (!glider::fuzz::parseArgs(argc, argv, args)) {
        std::fprintf(
            stderr,
            "usage: fuzz_simulator [--cases N] [--seconds S] "
            "[--seed X]\n"
            "       fuzz_simulator --repro --seed X [--policy NAME] "
            "[--len N]\n");
        return 2;
    }
    return args.repro ? glider::fuzz::reproduce(args)
                      : glider::fuzz::run(args);
}
