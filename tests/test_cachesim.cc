/**
 * @file
 * Unit tests for src/cachesim: cache mechanics, hierarchy routing,
 * the core timing model, the private-filter memo, and the simulation
 * drivers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cachesim/basic_lru.hh"
#include "cachesim/cache.hh"
#include "cachesim/core_model.hh"
#include "cachesim/hierarchy.hh"
#include "cachesim/private_filter.hh"
#include "cachesim/simulator.hh"

namespace glider {
namespace sim {
namespace {

CacheConfig
tinyConfig(std::uint64_t size = 4 * 64, std::uint32_t ways = 2)
{
    CacheConfig c;
    c.name = "tiny";
    c.size_bytes = size;
    c.ways = ways;
    c.latency = 1;
    return c;
}

TEST(CacheConfig, SetsFromGeometry)
{
    CacheConfig c;
    c.size_bytes = 2 * 1024 * 1024;
    c.ways = 16;
    EXPECT_EQ(c.sets(), 2048u);
    c.size_bytes = 32 * 1024;
    c.ways = 8;
    EXPECT_EQ(c.sets(), 64u);
}

TEST(CacheConfig, RejectsZeroWays)
{
    CacheConfig c;
    c.ways = 0;
    EXPECT_THROW(c.sets(), std::invalid_argument);
    EXPECT_THROW(Cache(c, std::make_unique<BasicLruPolicy>()),
                 std::invalid_argument);
}

TEST(Cache, RejectsSizeBelowOneSet)
{
    // A zero size divides evenly into zero sets, which passes the
    // power-of-two check; the first access would index an empty
    // tag array.
    EXPECT_EQ(tinyConfig(0, 2).sets(), 0u);
    EXPECT_THROW(Cache(tinyConfig(0, 2),
                       std::make_unique<BasicLruPolicy>()),
                 std::invalid_argument);
}

TEST(LineView, DefaultIsInvalidAndFilledIsValid)
{
    EXPECT_FALSE(LineView{}.valid());
    EXPECT_TRUE(LineView{0}.valid()); // block 0 is a real block
    EXPECT_TRUE(LineView{traces::blockAddr(~std::uint64_t{0})}.valid());
}

TEST(BasicLru, ResetRejectsWaysOutsideOneToSixteen)
{
    BasicLruPolicy lru;
    EXPECT_THROW(lru.reset(CacheGeometry{8, 0, 1}),
                 std::invalid_argument);
    EXPECT_THROW(lru.reset(CacheGeometry{8, 17, 1}),
                 std::invalid_argument);
    EXPECT_NO_THROW(lru.reset(CacheGeometry{8, 1, 1}));
    EXPECT_NO_THROW(lru.reset(CacheGeometry{8, 16, 1}));
}

TEST(BasicLru, FillsWaysInOrderThenEvictsInTouchOrder)
{
    BasicLruPolicy lru;
    lru.reset(CacheGeometry{1, 16, 1});
    ReplacementAccess acc;
    // A fresh set fills way 0 first, then 1, ..., as the "first
    // invalid way" rule does.
    for (std::uint32_t w = 0; w < 16; ++w) {
        ASSERT_EQ(lru.victimWay(acc, SetView{}), w);
        lru.onInsert(acc, w);
    }
    // Touch every way in a scrambled order; victims then follow it.
    std::vector<std::uint32_t> order;
    for (std::uint32_t i = 0; i < 16; ++i)
        order.push_back((i * 7 + 3) % 16);
    for (std::uint32_t w : order)
        lru.onHit(acc, w);
    for (std::uint32_t w : order) {
        ASSERT_EQ(lru.victimWay(acc, SetView{}), w);
        lru.onInsert(acc, w);
    }
}

TEST(Cache, HitAfterFill)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    EXPECT_FALSE(cache.access(0, 1, 100, false)); // cold miss
    EXPECT_TRUE(cache.access(0, 1, 100, false));  // now resident
    EXPECT_EQ(cache.stats().accesses, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(Cache, LruEvictionOrder)
{
    // 2 sets x 2 ways; blocks 0,2,4 land in set 0.
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    cache.access(0, 1, 2, false);
    cache.access(0, 1, 0, false); // refresh block 0
    cache.access(0, 1, 4, false); // evicts block 2 (LRU)
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(2));
    EXPECT_TRUE(cache.probe(4));
}

TEST(Cache, SetsAreIndependent)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    // Blocks 0 and 1 map to different sets; filling set 0 never
    // disturbs set 1.
    cache.access(0, 1, 1, false);
    for (std::uint64_t b = 0; b < 20; b += 2)
        cache.access(0, 1, b, false);
    EXPECT_TRUE(cache.probe(1));
}

TEST(Cache, ProbeHasNoSideEffects)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    auto before = cache.stats().accesses;
    cache.probe(0);
    cache.probe(12345);
    EXPECT_EQ(cache.stats().accesses, before);
}

/** Policy that always bypasses: nothing is ever cached. */
class AlwaysBypass : public ReplacementPolicy
{
  public:
    std::string name() const override { return "bypass"; }
    void reset(const CacheGeometry &geom) override { geom_ = geom; }
    std::uint32_t
    victimWay(const ReplacementAccess &, SetView) override
    {
        return geom_.ways;
    }
    void onHit(const ReplacementAccess &, std::uint32_t) override {}
    void onEvict(const ReplacementAccess &, std::uint32_t,
                 const LineView &) override
    {
    }
    void onInsert(const ReplacementAccess &, std::uint32_t) override {}

  private:
    CacheGeometry geom_;
};

TEST(Cache, BypassNeverFills)
{
    Cache cache(tinyConfig(), std::make_unique<AlwaysBypass>());
    cache.access(0, 1, 0, false);
    cache.access(0, 1, 0, false);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().bypasses, 2u);
    EXPECT_FALSE(cache.probe(0));
}

TEST(Cache, ClearStatsKeepsContents)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    cache.clearStats();
    EXPECT_EQ(cache.stats().accesses, 0u);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_TRUE(cache.access(0, 1, 0, false)); // still a hit
}

TEST(Cache, ResetClearsContents)
{
    Cache cache(tinyConfig(), std::make_unique<BasicLruPolicy>());
    cache.access(0, 1, 0, false);
    cache.reset();
    EXPECT_FALSE(cache.probe(0));
}

TEST(Hierarchy, DepthProgression)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 1, std::make_unique<BasicLruPolicy>());
    // First touch goes all the way to DRAM; after the fill, the L1
    // serves it.
    EXPECT_EQ(h.access(0, 1, 0x5000, false), AccessDepth::Dram);
    EXPECT_EQ(h.access(0, 1, 0x5000, false), AccessDepth::L1);
}

TEST(Hierarchy, LatencyMonotoneInDepth)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 1, std::make_unique<BasicLruPolicy>());
    EXPECT_LT(h.latency(AccessDepth::L1), h.latency(AccessDepth::L2));
    EXPECT_LT(h.latency(AccessDepth::L2), h.latency(AccessDepth::Llc));
    EXPECT_LT(h.latency(AccessDepth::Llc), h.latency(AccessDepth::Dram));
}

TEST(Hierarchy, L2CatchesL1Evictions)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 1, std::make_unique<BasicLruPolicy>());
    // Fill one L1 set (64 sets x 8 ways; stride 64*64 bytes stays in
    // set 0) past capacity; the evicted-but-L2-resident block then
    // hits in L2.
    std::uint64_t stride = 64 * 64;
    for (int i = 0; i < 9; ++i)
        h.access(0, 1, i * stride, false);
    EXPECT_EQ(h.access(0, 1, 0, false), AccessDepth::L2);
}

TEST(Hierarchy, PerCoreLlcMissCounters)
{
    HierarchyConfig cfg;
    Hierarchy h(cfg, 2, std::make_unique<BasicLruPolicy>());
    h.access(0, 1, 0x100000, false);
    h.access(1, 1, 0x200000, false);
    h.access(1, 1, 0x300000, false);
    EXPECT_EQ(h.llcMissesFor(0), 1u);
    EXPECT_EQ(h.llcMissesFor(1), 2u);
}

TEST(CoreModel, PureL1HitsRunAtFullWidth)
{
    CoreModel core;
    for (int i = 0; i < 1000; ++i)
        core.step(AccessDepth::L1, 4);
    core.finish();
    EXPECT_NEAR(core.ipc(), 4.0, 1e-9);
}

TEST(CoreModel, DramMissesLowerIpc)
{
    CoreParams p;
    CoreModel fast(p), slow(p);
    for (int i = 0; i < 1000; ++i) {
        fast.step(AccessDepth::L1, 4);
        slow.step(AccessDepth::Dram, 242);
    }
    fast.finish();
    slow.finish();
    EXPECT_LT(slow.ipc(), fast.ipc());
    EXPECT_GT(slow.ipc(), 0.0);
}

TEST(CoreModel, MshrLimitSerialisesMissBursts)
{
    // With 1 MSHR misses serialise; with 16 they overlap.
    CoreParams serial;
    serial.mshrs = 1;
    CoreParams parallel;
    parallel.mshrs = 16;
    CoreModel a(serial), b(parallel);
    for (int i = 0; i < 200; ++i) {
        a.step(AccessDepth::Dram, 242);
        b.step(AccessDepth::Dram, 242);
    }
    a.finish();
    b.finish();
    EXPECT_LT(a.ipc(), b.ipc());
}

TEST(CoreModel, FinishDrainsOutstanding)
{
    CoreModel core;
    core.step(AccessDepth::Dram, 242);
    double before = core.cycles();
    core.finish();
    EXPECT_GT(core.cycles(), before);
}

TEST(CoreModel, ClearCountersResets)
{
    CoreModel core;
    core.step(AccessDepth::Dram, 242);
    core.clearCounters();
    EXPECT_EQ(core.instructions(), 0u);
    EXPECT_EQ(core.cycles(), 0.0);
}

TEST(CoreModel, ClearCountersRetainsInFlightWindow)
{
    CoreModel core;
    // A long DRAM miss is still outstanding at the warmup boundary:
    // completion 1001 cycles, 4 instructions issued, 1 cycle elapsed.
    core.step(AccessDepth::Dram, 1000);
    core.clearCounters();
    // Post-warmup: 100 L1 hits retire 400 instructions in 100 cycles,
    // but the rebased miss (completion now 1000) must still stall the
    // drain — it was in flight, not dropped.
    for (int i = 0; i < 100; ++i)
        core.step(AccessDepth::L1, 4);
    core.finish();
    EXPECT_EQ(core.instructions(), 400u);
    EXPECT_DOUBLE_EQ(core.cycles(), 1000.0);
    EXPECT_DOUBLE_EQ(core.ipc(), 0.4);
}

traces::Trace
streamingTrace(std::size_t blocks, int sweeps)
{
    traces::Trace t("stream");
    for (int s = 0; s < sweeps; ++s) {
        for (std::size_t b = 0; b < blocks; ++b)
            t.push(0x400000, b * 64);
    }
    return t;
}

TEST(Simulator, SingleCoreRunsAndReports)
{
    auto trace = streamingTrace(100000, 2);
    SimOptions opts;
    auto res = runSingleCore(trace, std::make_unique<BasicLruPolicy>(),
                             opts);
    EXPECT_EQ(res.policy, "LRU");
    EXPECT_GT(res.instructions, 0u);
    EXPECT_GT(res.ipc, 0.0);
    EXPECT_GT(res.llc.accesses, 0u);
}

TEST(Simulator, WarmupReducesMeasuredAccesses)
{
    auto trace = streamingTrace(50000, 2);
    SimOptions none;
    none.warmup_fraction = 0.0;
    SimOptions half;
    half.warmup_fraction = 0.5;
    auto a = runSingleCore(trace, std::make_unique<BasicLruPolicy>(),
                           none);
    auto b = runSingleCore(trace, std::make_unique<BasicLruPolicy>(),
                           half);
    EXPECT_GT(a.instructions, b.instructions);
}

TEST(Simulator, MultiCoreRunsAllCores)
{
    auto t0 = streamingTrace(20000, 1);
    auto t1 = streamingTrace(30000, 1);
    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.1;
    auto res = runMultiCore({&t0, &t1},
                            std::make_unique<BasicLruPolicy>(), 10000,
                            opts);
    ASSERT_EQ(res.ipc_shared.size(), 2u);
    EXPECT_GT(res.ipc_shared[0], 0.0);
    EXPECT_GT(res.ipc_shared[1], 0.0);
}

TEST(Simulator, MultiCoreRewindsShortTraces)
{
    auto t0 = streamingTrace(100, 1); // far shorter than the quota
    auto t1 = streamingTrace(20000, 1);
    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    auto res = runMultiCore({&t0, &t1},
                            std::make_unique<BasicLruPolicy>(), 5000,
                            opts);
    EXPECT_GT(res.ipc_shared[0], 0.0);
}

} // namespace
} // namespace sim
} // namespace glider

namespace glider {
namespace sim {
namespace {

TEST(Simulator, MultiCorePrivateAddressSpaces)
{
    // Two cores running the *same* trace must not constructively
    // share LLC lines: the driver folds the core id into the
    // physical address, so per-core data is disjoint.
    traces::Trace t("dup");
    for (int i = 0; i < 30000; ++i)
        t.push(0x400000, static_cast<std::uint64_t>(i % 3000) * 4096);

    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    auto solo = runMultiCore({&t}, std::make_unique<BasicLruPolicy>(),
                             20000, opts);
    auto dup = runMultiCore({&t, &t},
                            std::make_unique<BasicLruPolicy>(), 20000,
                            opts);
    // With sharing, the second core would hit on the first core's
    // fills and the total misses would collapse; with disjoint
    // address spaces the duplicated run misses at least as much per
    // core as the solo run.
    EXPECT_GE(dup.llc.misses + dup.llc.misses / 10,
              2 * solo.llc.misses);
}

TEST(Simulator, MultiCoreRejectsAddressesThatAliasUnderTheCoreFold)
{
    // Core 0 folds nothing, so its address 1 << 44 would land on core
    // 1's block 0 in the shared LLC.
    traces::Trace high("high");
    for (int i = 0; i < 1000; ++i)
        high.push(0x400000, static_cast<std::uint64_t>(i) * 64);
    high.push(0x400000, std::uint64_t{1} << 44);
    traces::Trace low("low");
    for (int i = 0; i < 1000; ++i)
        low.push(0x400000, static_cast<std::uint64_t>(i) * 64);

    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    EXPECT_THROW(runMultiCore({&high, &low},
                              std::make_unique<BasicLruPolicy>(), 2000,
                              opts),
                 std::invalid_argument);
    // A single core folds nothing and accepts any address.
    EXPECT_NO_THROW(runMultiCore({&high},
                                 std::make_unique<BasicLruPolicy>(), 2000,
                                 opts));
    EXPECT_NO_THROW(
        runSingleCore(high, std::make_unique<BasicLruPolicy>(), opts));
}

TEST(Simulator, MultiCoreLlcIsSharedCapacity)
{
    // One core with a 2-core-sized LLC fits its working set; four
    // duplicated cores must contend and miss more in total than 4x
    // a quarter-share would suggest. Weak sanity check: per-core
    // shared IPC does not exceed solo IPC (no free lunch).
    traces::Trace t("ws");
    for (int i = 0; i < 40000; ++i)
        t.push(0x400000, static_cast<std::uint64_t>(i % 40000) * 64);
    SimOptions opts;
    opts.hierarchy = HierarchyConfig::forCores(2);
    opts.warmup_fraction = 0.0;
    auto solo = runMultiCore({&t}, std::make_unique<BasicLruPolicy>(),
                             30000, opts);
    auto shared = runMultiCore({&t, &t},
                               std::make_unique<BasicLruPolicy>(),
                               30000, opts);
    EXPECT_LE(shared.ipc_shared[0], solo.ipc_shared[0] * 1.02);
}

} // namespace
} // namespace sim
} // namespace glider

namespace glider {
namespace sim {
namespace {

/** A trace that exercises all three private depths. */
traces::Trace
mixedTrace(std::size_t n)
{
    traces::Trace t("mixed");
    for (std::size_t i = 0; i < n; ++i) {
        // A hot set that stays in L1, a warm one for L2, and a
        // stream that misses both.
        std::uint64_t block = i % 3 == 0 ? i % 16
            : i % 3 == 1                 ? 1000 + i % 2048
                                         : 100000 + i;
        t.push(0x400000 + (i % 7) * 4, block * 64, i % 5 == 0);
    }
    return t;
}

TEST(PrivateFilterMemo, CodesMatchTheHierarchyWalk)
{
    auto t = mixedTrace(20000);
    HierarchyConfig cfg;
    auto codes = PrivateFilter::of(t, cfg);
    ASSERT_EQ(codes->size(), t.size());
    EXPECT_LE(codes->bytes(), t.size() / 4 + 8);

    Hierarchy hier(cfg, 1, std::make_unique<BasicLruPolicy>());
    std::uint64_t llc = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
        AccessDepth d = hier.access(0, t[i].pc, t[i].address,
                                    t[i].is_write);
        PrivateDepth want = d == AccessDepth::L1 ? PrivateDepth::L1
            : d == AccessDepth::L2               ? PrivateDepth::L2
                                                 : PrivateDepth::Llc;
        ASSERT_EQ((*codes)[i], want) << "access " << i;
        llc += want == PrivateDepth::Llc;
    }
    EXPECT_EQ(codes->llcCount(), llc);
    EXPECT_GT(llc, 0u);
    EXPECT_LT(llc, t.size());
}

TEST(PrivateFilterMemo, SameTraceAndShapeBuildOnce)
{
    auto t = mixedTrace(5000);
    HierarchyConfig cfg;
    auto a = PrivateFilter::of(t, cfg);
    auto b = PrivateFilter::of(t, cfg);
    EXPECT_EQ(a.get(), b.get());
}

TEST(PrivateFilterMemo, PushAndTruncateForceARebuild)
{
    auto t = mixedTrace(5000);
    HierarchyConfig cfg;
    auto before = PrivateFilter::of(t, cfg);
    t.push(0x400000, 0x1234 * 64);
    auto pushed = PrivateFilter::of(t, cfg);
    EXPECT_NE(pushed.get(), before.get());
    EXPECT_EQ(pushed->size(), 5001u);

    t.truncate(4000);
    auto truncated = PrivateFilter::of(t, cfg);
    EXPECT_NE(truncated.get(), pushed.get());
    EXPECT_EQ(truncated->size(), 4000u);
    // Shortening keeps a prefix, so its codes are a prefix too.
    for (std::uint64_t i = 0; i < truncated->size(); ++i)
        ASSERT_EQ((*truncated)[i], (*before)[i]) << "access " << i;

    // Truncating to a length the trace already has is no change.
    t.truncate(4000);
    EXPECT_EQ(PrivateFilter::of(t, cfg).get(), truncated.get());
}

TEST(PrivateFilterMemo, EachL1L2ShapeGetsItsOwnCodes)
{
    auto t = mixedTrace(5000);
    HierarchyConfig base;
    auto codes = PrivateFilter::of(t, base);

    HierarchyConfig l1 = base;
    l1.l1.size_bytes *= 2;
    EXPECT_NE(PrivateFilter::of(t, l1).get(), codes.get());

    HierarchyConfig l2 = base;
    l2.l2.ways *= 2;
    EXPECT_NE(PrivateFilter::of(t, l2).get(), codes.get());

    // The LLC and the latencies play no part in the private pass.
    HierarchyConfig four = HierarchyConfig::forCores(4);
    four.l1.latency += 1;
    EXPECT_EQ(PrivateFilter::of(t, four).get(), codes.get());
    EXPECT_EQ(PrivateFilter::of(t, base).get(), codes.get());
}

TEST(PrivateFilterMemo, CopiesStartCold)
{
    auto t = mixedTrace(5000);
    HierarchyConfig cfg;
    auto codes = PrivateFilter::of(t, cfg);
    traces::Trace copy = t;
    EXPECT_NE(PrivateFilter::of(copy, cfg).get(), codes.get());
    // A move carries the memo along with the records.
    traces::Trace moved = std::move(t);
    EXPECT_EQ(PrivateFilter::of(moved, cfg).get(), codes.get());
}

TEST(PrivateFilterMemo, ConcurrentFirstTouchBuildsOnce)
{
    constexpr int kThreads = 8;
    auto t = mixedTrace(50000);
    HierarchyConfig cfg;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<const DepthCodes>> got(kThreads);
    {
        std::vector<std::jthread> pool;
        for (int i = 0; i < kThreads; ++i) {
            pool.emplace_back([&, i] {
                ready.fetch_add(1, std::memory_order_acq_rel);
                while (ready.load(std::memory_order_acquire) < kThreads) {
                }
                got[i] = PrivateFilter::of(t, cfg);
            });
        }
    }
    for (int i = 1; i < kThreads; ++i)
        EXPECT_EQ(got[i].get(), got[0].get());

    // The memo builds under its lock: one build however many ask.
    std::atomic<int> builds{0};
    ready = 0;
    std::vector<std::shared_ptr<const int>> values(kThreads);
    {
        std::vector<std::jthread> pool;
        for (int i = 0; i < kThreads; ++i) {
            pool.emplace_back([&, i] {
                ready.fetch_add(1, std::memory_order_acq_rel);
                while (ready.load(std::memory_order_acquire) < kThreads) {
                }
                values[i] = t.memo().get<int>({1, 2, 3, 4}, [&] {
                    builds.fetch_add(1, std::memory_order_relaxed);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                    return std::make_shared<const int>(42);
                });
            });
        }
    }
    EXPECT_EQ(builds.load(), 1);
    for (const auto &v : values)
        EXPECT_EQ(*v, 42);
}

TEST(Simulator, RejectsWarmupFractionOutsideUnitInterval)
{
    auto trace = streamingTrace(1000, 1);
    for (double bad : {-0.1, 1.0, 1.5,
                       std::numeric_limits<double>::quiet_NaN()}) {
        SimOptions opts;
        opts.warmup_fraction = bad;
        EXPECT_THROW(runSingleCore(trace,
                                   std::make_unique<BasicLruPolicy>(),
                                   opts),
                     std::invalid_argument)
            << bad;
        EXPECT_THROW(runMultiCore({&trace},
                                  std::make_unique<BasicLruPolicy>(), 500,
                                  opts),
                     std::invalid_argument)
            << bad;
    }
}

TEST(Simulator, AcceptsWarmupFractionInsideUnitInterval)
{
    auto trace = streamingTrace(1000, 1);
    for (double good : {0.0, 0.5, 0.999}) {
        SimOptions opts;
        opts.warmup_fraction = good;
        auto single = runSingleCore(
            trace, std::make_unique<BasicLruPolicy>(), opts);
        EXPECT_GT(single.instructions, 0u) << good;
        auto multi = runMultiCore(
            {&trace}, std::make_unique<BasicLruPolicy>(), 500, opts);
        EXPECT_GT(multi.ipc_shared[0], 0.0) << good;
    }
}

} // namespace
} // namespace sim
} // namespace glider
