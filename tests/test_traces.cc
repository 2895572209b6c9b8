/**
 * @file
 * Unit tests for src/traces: record semantics, trace container,
 * Table 2 statistics, the process-wide TraceCache, and the
 * determinism/shape guarantees of the workload generators that
 * everything downstream (oracles, golden tests, benches) rests on.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "traces/access.hh"
#include "traces/trace.hh"
#include "traces/trace_cache.hh"
#include "traces/trace_stats.hh"
#include "workloads/registry.hh"

namespace glider {
namespace traces {
namespace {

TEST(Access, BlockAddrStripsOffset)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockAddr(0x1000), 0x1000u >> 6);
}

TEST(Access, SameBlockForNeighbours)
{
    EXPECT_EQ(blockAddr(0x1234), blockAddr(0x1234 + 1));
}

TEST(Trace, PushAndIndex)
{
    Trace t("x");
    t.push(0x400000, 0x1000);
    t.push(0x400004, 0x2000, true, 2);
    ASSERT_EQ(t.size(), 2u);
    EXPECT_EQ(t[0].pc, 0x400000u);
    EXPECT_FALSE(t[0].is_write);
    EXPECT_TRUE(t[1].is_write);
    EXPECT_EQ(t[1].core, 2);
}

TEST(Trace, TruncateShrinksOnly)
{
    Trace t("x");
    for (int i = 0; i < 10; ++i)
        t.push(1, i * 64);
    t.truncate(4);
    EXPECT_EQ(t.size(), 4u);
    t.truncate(100);
    EXPECT_EQ(t.size(), 4u);
}

TEST(Trace, SliceClampsToBounds)
{
    Trace t("x");
    for (int i = 0; i < 10; ++i)
        t.push(1, i * 64);
    Trace s = t.slice(8, 5);
    EXPECT_EQ(s.size(), 2u);
    EXPECT_EQ(s[0].address, 8u * 64);
    Trace empty = t.slice(20, 5);
    EXPECT_TRUE(empty.empty());
}

TEST(TraceStats, CountsUniquePcsAndBlocks)
{
    Trace t("stats");
    // 2 PCs, 3 unique blocks, 6 accesses.
    t.push(1, 0 * 64);
    t.push(1, 1 * 64);
    t.push(2, 2 * 64);
    t.push(2, 2 * 64 + 8); // same block as previous
    t.push(1, 0 * 64);
    t.push(2, 1 * 64);
    TraceStats s = computeStats(t);
    EXPECT_EQ(s.accesses, 6u);
    EXPECT_EQ(s.unique_pcs, 2u);
    EXPECT_EQ(s.unique_addrs, 3u);
    EXPECT_DOUBLE_EQ(s.accesses_per_pc, 3.0);
    EXPECT_DOUBLE_EQ(s.accesses_per_addr, 2.0);
}

TEST(TraceStats, EmptyTraceIsAllZero)
{
    TraceStats s = computeStats(Trace("empty"));
    EXPECT_EQ(s.accesses, 0u);
    EXPECT_EQ(s.unique_pcs, 0u);
    EXPECT_EQ(s.accesses_per_pc, 0.0);
}

TEST(TraceStats, FormatRowContainsName)
{
    Trace t("mcf");
    t.push(1, 64);
    auto row = formatStatsRow(computeStats(t));
    EXPECT_NE(row.find("mcf"), std::string::npos);
}

/** Builder that counts invocations and encodes the key in the trace. */
TraceCache::Builder
countingBuilder(std::atomic<int> &builds)
{
    return [&builds](const std::string &name, std::uint64_t accesses,
                     Trace &out) {
        ++builds;
        for (std::uint64_t i = 0; i < accesses; ++i)
            out.push(std::hash<std::string>{}(name), i * 64);
    };
}

TEST(TraceCache, BuildsOncePerKey)
{
    std::atomic<int> builds{0};
    TraceCache cache(countingBuilder(builds));
    const Trace &a = cache.get("wl", 10);
    const Trace &b = cache.get("wl", 10);
    EXPECT_EQ(&a, &b); // same storage, not a copy
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(TraceCache, DistinctKeysDoNotCollide)
{
    // Same name with different lengths, and different names with the
    // same length, are all distinct keys with independent builds.
    std::atomic<int> builds{0};
    TraceCache cache(countingBuilder(builds));
    EXPECT_EQ(cache.get("wl", 10).size(), 10u);
    EXPECT_EQ(cache.get("wl", 20).size(), 20u);
    EXPECT_EQ(cache.get("other", 10).size(), 10u);
    EXPECT_NE(cache.get("wl", 10)[0].pc, cache.get("other", 10)[0].pc);
    EXPECT_EQ(builds.load(), 3);
    EXPECT_EQ(cache.size(), 3u);
}

TEST(TraceCache, ConcurrentGetsShareOneBuild)
{
    std::atomic<int> builds{0};
    TraceCache cache(countingBuilder(builds));
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] {
            const Trace &t = cache.get("shared", 1000);
            if (t.size() != 1000)
                ++mismatches;
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(mismatches.load(), 0);
}

TEST(TraceCache, ClearDropsEntriesAndRebuilds)
{
    std::atomic<int> builds{0};
    TraceCache cache(countingBuilder(builds));
    cache.get("wl", 10);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get("wl", 10);
    EXPECT_EQ(builds.load(), 2);
}

TEST(TraceCache, AssignsNameWhenBuilderLeavesItEmpty)
{
    TraceCache cache([](const std::string &, std::uint64_t, Trace &out) {
        out.push(1, 64);
    });
    EXPECT_EQ(cache.get("fallback", 1).name(), "fallback");
}

TEST(WorkloadGen, DeterministicAcrossIndependentRuns)
{
    // Kernels are pure functions of their parameters: two separately
    // constructed instances must emit byte-identical traces.
    for (const auto &wl : workloads::offlineSubset()) {
        Trace a, b;
        workloads::makeWorkload(wl, 20'000)->run(a);
        workloads::makeWorkload(wl, 20'000)->run(b);
        ASSERT_EQ(a.size(), b.size()) << wl;
        for (std::size_t i = 0; i < a.size(); ++i)
            ASSERT_EQ(a[i], b[i]) << wl << " diverges at " << i;
    }
}

TEST(WorkloadGen, PrefixStability)
{
    // A longer budget extends the trace; it must not reshuffle the
    // prefix (oracle labels computed on a short run stay valid).
    Trace small, big;
    workloads::makeWorkload("mcf", 10'000)->run(small);
    workloads::makeWorkload("mcf", 20'000)->run(big);
    ASSERT_GE(big.size(), small.size());
    for (std::size_t i = 0; i < small.size(); ++i)
        ASSERT_EQ(small[i], big[i]) << "prefix diverges at " << i;
}

TEST(WorkloadGen, DistributionShape)
{
    // Loose structural bounds every synthetic benchmark must meet to
    // be a plausible LLC study input: a realistic PC population and
    // genuine temporal reuse, but nowhere near one-PC/one-block
    // degeneracy.
    for (const auto &wl : workloads::offlineSubset()) {
        Trace t;
        workloads::makeWorkload(wl, 30'000)->run(t);
        TraceStats s = computeStats(t);
        EXPECT_GE(s.accesses, 30'000u) << wl;
        EXPECT_GE(s.unique_pcs, 4u) << wl;
        EXPECT_LE(s.unique_pcs, 100'000u) << wl;
        EXPECT_GT(s.unique_addrs, 64u) << wl;
        EXPECT_GT(s.accesses_per_addr, 1.05) << wl;
    }
}

TEST(WorkloadGen, DifferentBenchmarksDiffer)
{
    Trace a, b;
    workloads::makeWorkload("mcf", 10'000)->run(a);
    workloads::makeWorkload("lbm", 10'000)->run(b);
    bool differ = a.size() != b.size();
    for (std::size_t i = 0; !differ && i < a.size(); ++i)
        differ = !(a[i] == b[i]);
    EXPECT_TRUE(differ);
}

} // namespace
} // namespace traces
} // namespace glider
