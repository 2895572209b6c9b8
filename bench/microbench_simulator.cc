/**
 * @file
 * Single-thread simulator-throughput microbenchmark: simulated LLC
 * accesses/second through sim::Cache, before vs after the
 * zero-allocation miss path.
 *
 * "Before" is a faithful replica of the pre-SetView Cache::access,
 * which copied the set's ways into a freshly allocated
 * std::vector<LineView> on every miss before asking the policy for a
 * victim. "After" is the production sim::Cache, which hands the
 * policy a zero-copy SetView of its own tag array. Both drive the
 * identical policy implementations, so the ratio isolates the
 * allocation+copy overhead that the refactor removed.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "common/alloc_guard.hh"
#include "common/env_registry.hh"
#include "core/policy_factory.hh"
#include "obs/bench_report.hh"

using namespace glider;

namespace {

/**
 * Replica of the pre-refactor Cache::access hot path: identical tag
 * lookup and fill, but the miss path heap-allocates a copy of the
 * set's ways for victim selection (the old victimWay contract).
 */
class LegacyCache
{
  public:
    LegacyCache(const sim::CacheConfig &config,
                std::unique_ptr<sim::ReplacementPolicy> policy)
        : config_(config), policy_(std::move(policy)),
          num_sets_(config.sets())
    {
        lines_.assign(num_sets_ * config_.ways, sim::LineView{});
        sim::CacheGeometry geom;
        geom.sets = num_sets_;
        geom.ways = config_.ways;
        geom.cores = 1;
        policy_->reset(geom);
    }

    bool
    access(std::uint8_t core, std::uint64_t pc,
           std::uint64_t block_addr, bool is_write)
    {
        std::uint64_t set = block_addr & (num_sets_ - 1);
        sim::LineView *base = &lines_[set * config_.ways];

        sim::ReplacementAccess acc;
        acc.set = set;
        acc.pc = pc;
        acc.block_addr = block_addr;
        acc.core = core;
        acc.is_write = is_write;

        for (std::uint32_t way = 0; way < config_.ways; ++way) {
            if (base[way].block_addr == block_addr) {
                policy_->onHit(acc, way);
                return true;
            }
        }

        // The old miss path: copy the set into a fresh vector.
        std::vector<sim::LineView> view(base, base + config_.ways);
        std::uint32_t victim = policy_->victimWay(
            acc, sim::SetView{view.data(), config_.ways});
        if (victim >= config_.ways)
            return false;
        if (base[victim].valid())
            policy_->onEvict(acc, victim, base[victim]);
        base[victim].block_addr = block_addr;
        policy_->onInsert(acc, victim);
        return false;
    }

  private:
    sim::CacheConfig config_;
    std::unique_ptr<sim::ReplacementPolicy> policy_;
    std::uint64_t num_sets_;
    std::vector<sim::LineView> lines_;
};

/** One (pc, block) access stream. */
struct Stream
{
    std::string name;
    std::vector<std::uint64_t> blocks;
};

/** Streaming scan far larger than the LLC: every access misses. */
Stream
missStream(std::uint64_t accesses)
{
    Stream s;
    s.name = "miss-heavy";
    s.blocks.reserve(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        s.blocks.push_back(i % 262'144); // 8x the 32K-line LLC
    return s;
}

/** Alternating hot-set hits and cold streaming misses (~50/50). */
Stream
mixedStream(std::uint64_t accesses)
{
    Stream s;
    s.name = "mixed";
    s.blocks.reserve(accesses);
    std::uint64_t cold = 1 << 20; // outside the hot region
    for (std::uint64_t i = 0; i < accesses; ++i) {
        if (i & 1)
            s.blocks.push_back((i / 2) % 4096); // hot: fits in LLC
        else
            s.blocks.push_back(cold++);
    }
    return s;
}

sim::CacheConfig
llcConfig()
{
    sim::CacheConfig cfg;
    cfg.name = "LLC";
    cfg.size_bytes = 2 * 1024 * 1024;
    cfg.ways = 16;
    return cfg;
}

/**
 * In a -DGLIDER_ALLOCGUARD=ON build, replay @p s once over the
 * already-warmed @p cache under the counting operator new and return
 * the number of heap allocations (0 in a healthy build). Returns 0
 * immediately when the guard is compiled out.
 */
std::uint64_t
guardedAllocations(sim::Cache &cache, const Stream &s)
{
    if (!allocGuardEnabled())
        return 0;
    ScopedAllocCheck guard;
    std::uint64_t hits = 0;
    for (std::uint64_t block : s.blocks)
        hits += cache.access(0, 0x400000, block, false) ? 1 : 0;
    if (hits == static_cast<std::uint64_t>(-1))
        std::printf("impossible\n");
    return guard.allocations();
}

/** Accesses/second of @p cache over @p s (best of @p reps passes). */
template <typename CacheT>
double
measure(CacheT &cache, const Stream &s, int reps)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t hits = 0;
        for (std::uint64_t block : s.blocks)
            hits += cache.access(0, 0x400000, block, false) ? 1 : 0;
        auto t1 = std::chrono::steady_clock::now();
        double secs = std::chrono::duration<double>(t1 - t0).count();
        double rate = static_cast<double>(s.blocks.size()) / secs;
        if (rate > best)
            best = rate;
        // Keep the compiler honest about the access results.
        if (hits == static_cast<std::uint64_t>(-1))
            std::printf("impossible\n");
    }
    return best;
}

} // namespace

int
main()
{
    std::uint64_t accesses = env::u64(env::Knob::MicroAccesses);
    int reps = static_cast<int>(env::u64(env::Knob::MicroReps));

    std::printf("microbench_simulator: single-thread simulated "
                "accesses/second, %llu accesses x %d reps (best)\n",
                static_cast<unsigned long long>(accesses), reps);
    std::printf("%-8s %-10s %14s %14s %9s\n", "Policy", "Stream",
                "legacy (M/s)", "zero-alloc", "speedup");

    auto report = obs::BenchReport("microbench_simulator");
    report.config("accesses", obs::json::Value(accesses));
    report.config("reps",
                  obs::json::Value(static_cast<std::int64_t>(reps)));
    report.config("metrics_enabled",
                  obs::json::Value(obs::kMetricsEnabled));

    // Tolerances are stamped per metric kind: absolute accesses/sec
    // is machine-dependent, so the committed baseline gates it only
    // against collapse (300%); the legacy-vs-zero-alloc speedup is a
    // same-machine ratio and gets a tight band.
    constexpr double kAbsTolerance = 3.0;
    constexpr double kRatioTolerance = 0.35;

    report.config("alloc_guard",
                  obs::json::Value(allocGuardEnabled()));

    const std::vector<Stream> streams = {missStream(accesses),
                                         mixedStream(accesses)};
    std::uint64_t guard_violations = 0;
    for (const char *policy : {"LRU", "SRRIP", "SHiP++"}) {
        for (const auto &s : streams) {
            LegacyCache legacy(llcConfig(), core::makePolicy(policy));
            sim::Cache current(llcConfig(), core::makePolicy(policy));
            double before = measure(legacy, s, reps);
            double after = measure(current, s, reps);
            // With the counting allocator compiled in, the warmed
            // production path must not touch the heap at all.
            std::uint64_t allocs = guardedAllocations(current, s);
            if (allocs > 0) {
                std::printf("ALLOC GUARD: %s/%s allocated %llu "
                            "time(s) on the warmed access path\n",
                            policy, s.name.c_str(),
                            static_cast<unsigned long long>(allocs));
                guard_violations += allocs;
            }
            std::printf("%-8s %-10s %14.2f %14.2f %8.2fx\n", policy,
                        s.name.c_str(), before / 1e6, after / 1e6,
                        after / before);
            std::fflush(stdout);
            std::string cell = std::string(policy) + "." + s.name;
            report.metric("throughput." + cell + ".legacy", before,
                          "accesses/s", obs::Direction::HigherBetter,
                          kAbsTolerance);
            report.metric("throughput." + cell + ".zero_alloc", after,
                          "accesses/s", obs::Direction::HigherBetter,
                          kAbsTolerance);
            report.metric("speedup." + cell, after / before, "x",
                          obs::Direction::HigherBetter,
                          kRatioTolerance);
        }
    }
    report.write();
    if (guard_violations > 0)
        return 1;
    return 0;
}
