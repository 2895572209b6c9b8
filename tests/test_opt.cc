/**
 * @file
 * Tests for src/opt: next-use computation, exact Belady MIN (unit
 * and optimality properties), the replaying BeladyPolicy, OPTgen,
 * and LLC-stream extraction.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cachesim/basic_lru.hh"
#include "cachesim/cache.hh"
#include "common/rng.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "opt/optgen.hh"

namespace glider {
namespace opt {
namespace {

traces::Trace
fromBlocks(const std::vector<std::uint64_t> &blocks)
{
    traces::Trace t("blocks");
    for (auto b : blocks)
        t.push(0x400000 + b * 4, b * 64);
    return t;
}

TEST(NextUse, SimpleChain)
{
    auto t = fromBlocks({1, 2, 1, 3, 2, 1});
    auto next = computeNextUse(t);
    EXPECT_EQ(next[0], 2u);
    EXPECT_EQ(next[1], 4u);
    EXPECT_EQ(next[2], 5u);
    EXPECT_EQ(next[3], SIZE_MAX);
    EXPECT_EQ(next[4], SIZE_MAX);
    EXPECT_EQ(next[5], SIZE_MAX);
}

TEST(Belady, TinyFullyAssociativeExample)
{
    // 1 set, 2 ways. Sequence: A B C A B. MIN keeps A and B (C has
    // no reuse), so the second A and B hit.
    auto t = fromBlocks({0, 2, 4, 0, 2}); // even blocks, sets=1
    auto res = simulateBelady(t, 1, 2);
    EXPECT_EQ(res.hit_count, 2u);
    EXPECT_EQ(res.hits[3], 1);
    EXPECT_EQ(res.hits[4], 1);
    // The first A and B are labelled friendly (their reuse hits),
    // C and the final accesses are not.
    EXPECT_EQ(res.labels[0], 1);
    EXPECT_EQ(res.labels[1], 1);
    EXPECT_EQ(res.labels[2], 0);
    EXPECT_EQ(res.labels[3], 0);
    EXPECT_EQ(res.labels[4], 0);
}

TEST(Belady, CyclicThrashGetsCapacityFractionOfHits)
{
    // Cyclic sweep over 4 blocks with 1 set x 2 ways: LRU would get
    // zero hits; MIN keeps a subset pinned.
    std::vector<std::uint64_t> seq;
    for (int sweep = 0; sweep < 10; ++sweep)
        for (std::uint64_t b = 0; b < 4; ++b)
            seq.push_back(b);
    auto t = fromBlocks(seq);
    auto res = simulateBelady(t, 1, 2);
    // MIN can retain at least one block across each sweep boundary.
    EXPECT_GE(res.hit_count, 9u);
}

double
lruHitRate(const traces::Trace &t, std::uint64_t sets,
           std::uint32_t ways)
{
    sim::CacheConfig cfg;
    cfg.size_bytes = sets * ways * 64;
    cfg.ways = ways;
    sim::Cache cache(cfg, std::make_unique<sim::BasicLruPolicy>());
    std::uint64_t hits = 0;
    for (const auto &rec : t)
        hits += cache.access(0, rec.pc, traces::blockAddr(rec.address),
                             false);
    return static_cast<double>(hits) / static_cast<double>(t.size());
}

/** MIN optimality: Belady's hit rate dominates LRU on random traces. */
class BeladyDominance : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BeladyDominance, BeatsOrMatchesLru)
{
    Rng rng(GetParam());
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 4000; ++i)
        seq.push_back(rng.below(64));
    auto t = fromBlocks(seq);
    auto res = simulateBelady(t, 4, 4);
    EXPECT_GE(res.hitRate() + 1e-12, lruHitRate(t, 4, 4));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BeladyDominance,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/** Labels are consistent with hits: every hit has a friendly parent. */
TEST(Belady, LabelHitConsistency)
{
    Rng rng(99);
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 3000; ++i)
        seq.push_back(rng.below(40));
    auto t = fromBlocks(seq);
    auto res = simulateBelady(t, 2, 4);
    // Count hits and friendly labels: each hit at i corresponds to
    // exactly one earlier friendly access, so the counts match.
    std::uint64_t friendly = 0;
    for (auto l : res.labels)
        friendly += l;
    EXPECT_EQ(friendly, res.hit_count);
}

TEST(BeladyPolicy, ReplayMatchesSimulatedHitCount)
{
    Rng rng(7);
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 5000; ++i)
        seq.push_back(rng.below(96));
    auto t = fromBlocks(seq);
    auto reference = simulateBelady(t, 4, 4);

    sim::CacheConfig cfg;
    cfg.size_bytes = 4 * 4 * 64;
    cfg.ways = 4;
    sim::Cache cache(cfg, std::make_unique<BeladyPolicy>(t));
    for (const auto &rec : t)
        cache.access(0, rec.pc, traces::blockAddr(rec.address), false);
    EXPECT_EQ(cache.stats().hits, reference.hit_count);
}

TEST(OptGenSet, HitWhenIntervalFits)
{
    OptGenSet set(/*ways=*/1, /*history=*/8, /*entries=*/4);
    PcHistory none;
    EXPECT_FALSE(set.access(10, 1, 0, none, false, false).has_value());
    auto ev = set.access(10, 2, 0, none, false, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->opt_hit);
    EXPECT_EQ(ev->pc, 1u); // labels the *previous* access's PC
}

TEST(OptGenSet, MissWhenCapacityExceeded)
{
    // 1 way: intervals of A and B overlap, so only one can fit.
    OptGenSet set(1, 8, 4);
    PcHistory none;
    set.access(10, 1, 0, none, false, false); // A
    set.access(20, 2, 0, none, false, false); // B
    auto ev_a = set.access(10, 3, 0, none, false, false); // A again
    ASSERT_TRUE(ev_a.has_value());
    EXPECT_TRUE(ev_a->opt_hit); // A's interval [0,2) fits
    auto ev_b = set.access(20, 4, 0, none, false, false); // B again
    ASSERT_TRUE(ev_b.has_value());
    EXPECT_FALSE(ev_b->opt_hit); // quantum 1..2 already full
}

TEST(OptGenSet, TwoWaysAllowOverlap)
{
    OptGenSet set(2, 16, 8);
    PcHistory none;
    set.access(10, 1, 0, none, false, false);
    set.access(20, 2, 0, none, false, false);
    auto a = set.access(10, 3, 0, none, false, false);
    auto b = set.access(20, 4, 0, none, false, false);
    ASSERT_TRUE(a && b);
    EXPECT_TRUE(a->opt_hit);
    EXPECT_TRUE(b->opt_hit);
}

TEST(OptGenSet, ExpiredEntriesTrainNegative)
{
    OptGenSet set(1, 4, 8); // 4-quantum window
    PcHistory none;
    set.access(10, 1, 0, none, true, true);
    // Six unrelated accesses age block 10 out of the window.
    for (std::uint64_t b = 0; b < 6; ++b)
        set.access(100 + b, 2, 0, none, false, false);
    bool found = false;
    while (auto ev = set.popExpired()) {
        if (ev->block == 10) {
            found = true;
            EXPECT_FALSE(ev->opt_hit);
            EXPECT_EQ(ev->pc, 1u);
            EXPECT_TRUE(ev->prediction_valid);
            EXPECT_TRUE(ev->predicted_friendly);
        }
    }
    EXPECT_TRUE(found);
}

TEST(OptGenSet, CapacityEvictionTrainsNegative)
{
    OptGenSet set(4, 1024, /*entries=*/2);
    PcHistory none;
    set.access(1, 11, 0, none, false, true);
    set.access(2, 12, 0, none, false, true);
    set.access(3, 13, 0, none, false, true); // displaces the oldest
    auto ev = set.popExpired();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->pc, 11u);
    EXPECT_FALSE(ev->opt_hit);
}

TEST(OptGenSet, EntryAtNewBaseSurvivesWindowSlide)
{
    OptGenSet set(1, 4, 8); // 4-quantum window
    PcHistory none;
    set.access(10, 0xA, 0, none, false, false); // t=0
    set.access(11, 0xB, 0, none, false, false); // t=1
    set.access(12, 0xC, 0, none, false, false); // t=2
    set.access(13, 0xD, 0, none, false, false); // t=3
    // t=4 slides the window to new_base=1: the t=0 entry ages out,
    // while the t=1 entry (last_time == new_base) must survive.
    set.access(14, 0xE, 0, none, false, false);
    auto ev = set.popExpired();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->block, 10u);
    EXPECT_FALSE(ev->opt_hit);
    EXPECT_FALSE(set.popExpired().has_value());
    EXPECT_EQ(set.stats().expired_negatives, 1u);

    // One quantum later (new_base=2) the t=1 entry emits exactly one
    // negative — not zero, not a duplicate.
    set.access(15, 0xF, 0, none, false, false);
    ev = set.popExpired();
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->block, 11u);
    EXPECT_FALSE(set.popExpired().has_value());
    EXPECT_EQ(set.stats().expired_negatives, 2u);
}

TEST(OptGenSet, UtilizationAtExactWindowBoundary)
{
    OptGenSet set(1, 4, 8);
    PcHistory none;
    // Four accesses to one block: clock_ lands exactly on
    // history_quanta_, the boundary between the partial-window and
    // sliding-window scan ranges of occupancyUtilization().
    for (int i = 0; i < 4; ++i)
        set.access(42, 0x1, 0, none, false, false);
    EXPECT_EQ(set.clock(), 4u);
    // Three closed one-quantum intervals reserved occupancy in quanta
    // 0..2; the newest quantum is empty: 3 / (4 quanta * 1 way).
    EXPECT_DOUBLE_EQ(set.occupancyUtilization(), 0.75);
}

TEST(OptGenSampler, DrainInterleavesAcrossSets)
{
    // 2 sets, 1 way, both sampled; per-set sampler capacity is
    // 2*ways = 2 tracked addresses.
    OptGenSampler sampler(2, 1, 2);
    PcHistory none;
    // Four distinct blocks per set queue two capacity-eviction
    // negatives in each set's expired queue.
    for (std::uint64_t b = 0; b < 4; ++b) {
        sampler.access(0, 100 + b, 0x10, 0, none, false, false);
        sampler.access(1, 200 + b, 0x20, 0, none, false, false);
    }
    std::vector<std::uint64_t> pcs;
    while (auto ev = sampler.popExpired())
        pcs.push_back(ev->pc);
    ASSERT_EQ(pcs.size(), 4u);
    // Round-robin drain alternates the two sets; a cursor that never
    // advances on success would drain one set exhaustively first.
    EXPECT_NE(pcs[0], pcs[1]);
    EXPECT_EQ(pcs[0], pcs[2]);
    EXPECT_EQ(pcs[1], pcs[3]);
}

TEST(OptGenSampler, DrainWrapsPastCursorAndSeesRefills)
{
    // 8 sets, 1 way, all sampled. Slots are hash-ranked by set index:
    // slot 0..7 hold sets 0, 3, 2, 4, 7, 1, 5, 6. Each set tracks 2
    // addresses, so 4 distinct blocks queue 2 capacity negatives.
    OptGenSampler sampler(8, 1, 8);
    PcHistory none;
    auto fill = [&](std::uint64_t set, std::uint64_t tag) {
        for (std::uint64_t b = 0; b < 4; ++b)
            sampler.access(set, tag + b, tag + b, 0, none, false, false);
    };
    std::vector<std::uint64_t> pcs;
    auto pop = [&] {
        auto ev = sampler.popExpired();
        pcs.push_back(ev ? ev->pc : 0);
    };
    // Draining set 4 (slot 3) leaves the cursor mid-ring at slot 4.
    fill(4, 400);
    pop();
    pop();
    pop();
    // Queue sets on both sides of the cursor: sets 0 and 2 (slots 0
    // and 2) sit before it, sets 7 and 5 (slots 4 and 6) after it.
    fill(0, 100);
    fill(2, 200);
    fill(5, 500);
    fill(7, 700);
    pop();
    pop();
    pop();
    // Refill set 2 part-way through the drain.
    fill(2, 210);
    while (auto ev = sampler.popExpired())
        pcs.push_back(ev->pc);
    pop();
    // Recorded from the round-robin linear scan over every slot: set
    // 4 then empty; slots 4 and 6, then wrap to slot 0; the refilled
    // set 2 is served in turn, and drains last.
    const std::vector<std::uint64_t> expected = {
        401, 400, 0, 701, 501, 101, 211, 700,
        500, 100, 210, 203, 202, 201, 200, 0};
    EXPECT_EQ(pcs, expected);
}

TEST(OptGenSet, HistorySnapshotRoundTrips)
{
    OptGenSet set(2, 16, 8);
    PcHistory h{111, 222, 333};
    set.access(10, 1, 3, h, true, true);
    auto ev = set.access(10, 2, 0, {}, false, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->history, h);
    EXPECT_EQ(ev->core, 3);
}

TEST(OptGenSampler, SamplesSubsetOfSets)
{
    OptGenSampler sampler(2048, 16, 64);
    std::size_t sampled = 0;
    for (std::uint64_t s = 0; s < 2048; ++s)
        sampled += sampler.isSampled(s);
    EXPECT_EQ(sampled, 64u);
}

TEST(OptGenSampler, SampleIsStrideAliasFree)
{
    // No single residue class modulo small strides may own all the
    // sampled sets (the failure mode of strided sampling).
    OptGenSampler sampler(256, 16, 64);
    for (std::uint64_t stride : {2, 4, 8}) {
        std::vector<std::size_t> count(stride, 0);
        for (std::uint64_t s = 0; s < 256; ++s) {
            if (sampler.isSampled(s))
                ++count[s % stride];
        }
        for (auto c : count)
            EXPECT_GT(c, 0u) << "stride " << stride;
    }
}

TEST(OptGenSampler, SmallCachesSampleEverySet)
{
    OptGenSampler sampler(8, 2, 64);
    for (std::uint64_t s = 0; s < 8; ++s)
        EXPECT_TRUE(sampler.isSampled(s));
}

TEST(LlcStream, FiltersL1L2Hits)
{
    traces::Trace t("hot");
    // One block touched repeatedly: only the first access escapes L1.
    for (int i = 0; i < 100; ++i)
        t.push(1, 0x8000);
    auto llc = extractLlcStream(t);
    EXPECT_EQ(llc.size(), 1u);
}

TEST(LlcStream, StreamingPassesThrough)
{
    traces::Trace t("cold");
    for (int i = 0; i < 1000; ++i)
        t.push(1, static_cast<std::uint64_t>(i) * 4096);
    auto llc = extractLlcStream(t);
    EXPECT_EQ(llc.size(), 1000u);
}

TEST(LlcStream, PreservesOrderAndPcs)
{
    traces::Trace t("mix");
    for (int i = 0; i < 64; ++i)
        t.push(0x400000 + i, static_cast<std::uint64_t>(i) * 1ull << 20);
    auto llc = extractLlcStream(t);
    ASSERT_EQ(llc.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(llc[i].pc, 0x400000u + i);
}

} // namespace
} // namespace opt
} // namespace glider

namespace glider {
namespace opt {
namespace {

/**
 * Property: OPTgen's per-set hit reconstruction tracks exact Belady.
 * OPTgen is an online approximation (bounded window, bounded
 * entries), so it may under-count hits, but on traces whose reuse
 * fits the window the two must agree closely.
 */
class OptGenVsExact : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OptGenVsExact, AgreesOnShortReuseTraces)
{
    Rng rng(GetParam());
    // Single-set trace with reuse distances well inside the window.
    const std::uint32_t ways = 4;
    std::vector<std::uint64_t> blocks;
    for (int i = 0; i < 2000; ++i)
        blocks.push_back(rng.below(8)); // 8 blocks, 4 ways

    traces::Trace t("optgen");
    for (auto b : blocks)
        t.push(0x400000 + b * 4, b * 64 * 1 /*same set: sets=1*/);
    auto exact = simulateBelady(t, 1, ways);

    OptGenSet set(ways, 8 * ways, 8 * ways);
    std::uint64_t optgen_hits = 0;
    for (auto b : blocks) {
        auto ev = set.access(b, 0x400000 + b * 4, 0, {}, false, false);
        if (ev && ev->opt_hit)
            ++optgen_hits;
    }
    // Within 5% of the exact oracle's hit count.
    double exact_hits = static_cast<double>(exact.hit_count);
    EXPECT_NEAR(static_cast<double>(optgen_hits), exact_hits,
                0.05 * exact_hits + 8.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptGenVsExact,
                         ::testing::Values(11, 12, 13, 14, 15));

TEST(OptGen, NeverExceedsCapacityPerQuantum)
{
    // Adversarial: all blocks conflict; the number of positive labels
    // in any window is bounded by what the capacity admits. Verified
    // indirectly: hit rate can never exceed (ways)/(unique blocks).
    Rng rng(77);
    const std::uint32_t ways = 2;
    const std::uint64_t uniq = 16;
    OptGenSet set(ways, 8 * ways, 8 * ways);
    std::uint64_t hits = 0, events = 0;
    for (int i = 0; i < 5000; ++i) {
        auto b = rng.below(uniq);
        auto ev = set.access(b, 1, 0, {}, false, false);
        if (ev) {
            ++events;
            hits += ev->opt_hit;
        }
    }
    ASSERT_GT(events, 0u);
    EXPECT_LT(static_cast<double>(hits) / static_cast<double>(events),
              0.8);
}

} // namespace
} // namespace opt
} // namespace glider
