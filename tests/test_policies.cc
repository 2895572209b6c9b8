/**
 * @file
 * Tests for src/policies: RRIP mechanics, set dueling, SHiP
 * signature learning, MPPPB perceptron training, and the Hawkeye
 * OPTgen-guided framework.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "cachesim/cache.hh"
#include "common/rng.hh"
#include "policies/coalesce.hh"
#include "policies/frd.hh"
#include "policies/hawkeye.hh"
#include "policies/heuristics.hh"
#include "policies/lru.hh"
#include "policies/mpppb.hh"
#include "policies/mustache.hh"
#include "policies/random.hh"
#include "policies/rrip.hh"
#include "policies/sdbp.hh"
#include "policies/ship.hh"

namespace glider {
namespace policies {
namespace {

sim::CacheConfig
smallLlc()
{
    sim::CacheConfig c;
    c.name = "llc";
    c.size_bytes = 64 * 16 * 64; // 64 sets x 16 ways
    c.ways = 16;
    c.latency = 26;
    return c;
}

/** Run a block stream through a cache, returning the hit count. */
std::uint64_t
runStream(sim::Cache &cache, const std::vector<std::uint64_t> &blocks,
          std::uint64_t pc_base = 0x400000)
{
    std::uint64_t hits = 0;
    for (auto b : blocks)
        hits += cache.access(0, pc_base + (b % 7) * 4, b, false);
    return hits;
}

/** Cyclic sweep over n blocks repeated r times, all in one set. */
std::vector<std::uint64_t>
cyclic(std::uint64_t n, int r, std::uint64_t sets = 64)
{
    std::vector<std::uint64_t> out;
    for (int i = 0; i < r; ++i)
        for (std::uint64_t b = 0; b < n; ++b)
            out.push_back(b * sets); // same set index
    return out;
}

TEST(Srrip, HitPromotesToZero)
{
    sim::Cache cache(smallLlc(), std::make_unique<SrripPolicy>());
    cache.access(0, 1, 0, false);
    EXPECT_TRUE(cache.access(0, 1, 0, false));
}

TEST(Srrip, ScanResistantVsLru)
{
    // A hot block plus a long scan: SRRIP keeps the hot block alive
    // longer than LRU because scans insert at distant RRPV.
    auto make_stream = [] {
        std::vector<std::uint64_t> s;
        Rng rng(4);
        for (int i = 0; i < 20000; ++i) {
            if (i % 3 == 0)
                s.push_back((rng.next() % 8) * 64); // hot set of 8
            else
                s.push_back((1000 + i) * 64); // scan
        }
        return s;
    };
    sim::Cache srrip(smallLlc(), std::make_unique<SrripPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    auto s = make_stream();
    auto h_srrip = runStream(srrip, s);
    auto h_lru = runStream(lru, s);
    EXPECT_GT(h_srrip, h_lru);
}

TEST(Brrip, MostInsertionsAreDistant)
{
    // Thrash pattern: BRRIP retains a fraction of the working set
    // (bimodal), so it beats LRU on a cyclic over-capacity sweep.
    sim::Cache brrip(smallLlc(), std::make_unique<BrripPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    auto s = cyclic(32, 40); // 2x the 16-way set capacity
    auto h_brrip = runStream(brrip, s);
    auto h_lru = runStream(lru, s);
    EXPECT_GT(h_brrip, h_lru);
    EXPECT_EQ(h_lru, 0u);
}

TEST(Drrip, TracksBetterComponentOnThrash)
{
    // Thrash every set (32 blocks per 16-way set): the BRRIP leaders
    // win the duel and the follower sets retain part of the working
    // set, unlike LRU which gets nothing.
    sim::Cache drrip(smallLlc(), std::make_unique<DrripPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    std::vector<std::uint64_t> s;
    for (int sweep = 0; sweep < 60; ++sweep)
        for (std::uint64_t b = 0; b < 32 * 64; ++b)
            s.push_back(b);
    auto h_drrip = runStream(drrip, s);
    auto h_lru = runStream(lru, s);
    EXPECT_EQ(h_lru, 0u);
    EXPECT_GT(h_drrip, h_lru);
}

TEST(Ship, LearnsStreamingSignatures)
{
    // PC A streams (never reuses); PC B's lines are hot. After
    // training, SHiP must protect B's lines from A's stream.
    sim::Cache ship(smallLlc(), std::make_unique<ShipPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    std::vector<std::pair<std::uint64_t, std::uint64_t>> accesses;
    Rng rng(5);
    for (int i = 0; i < 40000; ++i) {
        if (i % 2 == 0)
            accesses.push_back({0xA000, (100000 + i) * 64}); // stream
        else
            accesses.push_back({0xB000, (rng.next() % 256) * 64}); // hot
    }
    std::uint64_t h_ship = 0, h_lru = 0;
    for (auto [pc, b] : accesses) {
        h_ship += ship.access(0, pc, b, false);
        h_lru += lru.access(0, pc, b, false);
    }
    EXPECT_GT(h_ship, h_lru);
}

TEST(ShipPP, AtLeastAsGoodAsShipOnMixedStream)
{
    sim::Cache ship(smallLlc(), std::make_unique<ShipPolicy>());
    sim::Cache shpp(smallLlc(), std::make_unique<ShipPPPolicy>());
    Rng rng(6);
    std::uint64_t h_ship = 0, h_shpp = 0;
    for (int i = 0; i < 60000; ++i) {
        std::uint64_t pc, b;
        if (i % 3 == 0) {
            pc = 0xA000;
            b = (200000 + i) * 64;
        } else {
            pc = 0xB000 + (i % 2) * 8;
            b = (rng.next() % 512) * 64;
        }
        h_ship += ship.access(0, pc, b, false);
        h_shpp += shpp.access(0, pc, b, false);
    }
    EXPECT_GE(h_shpp + h_shpp / 10, h_ship); // within 10% or better
}

TEST(Mpppb, LearnsDeadPcs)
{
    sim::Cache mp(smallLlc(), std::make_unique<MpppbPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    Rng rng(8);
    std::uint64_t h_mp = 0, h_lru = 0;
    for (int i = 0; i < 60000; ++i) {
        std::uint64_t pc, b;
        if (i % 2 == 0) {
            pc = 0xDEAD;
            b = (500000 + i) * 64; // never reused
        } else {
            pc = 0xF00D;
            b = (rng.next() % 300) * 64; // hot
        }
        h_mp += mp.access(0, pc, b, false);
        h_lru += lru.access(0, pc, b, false);
    }
    EXPECT_GT(h_mp, h_lru);
}

/** Exposes the protected training hook for direct unit testing. */
class TestableHawkeye : public HawkeyePolicy
{
  public:
    using HawkeyePolicy::onTrainingEvent;
};

TEST(Hawkeye, PredictsStreamingPcAverse)
{
    TestableHawkeye policy;
    sim::CacheGeometry geom{64, 16, 1};
    policy.reset(geom);
    // Feed training events directly: PC 0xA000 is always an OPT miss.
    for (int i = 0; i < 64; ++i) {
        opt::TrainingEvent ev;
        ev.opt_hit = false;
        ev.pc = 0xA000;
        policy.onTrainingEvent(ev);
    }
    EXPECT_FALSE(policy.isFriendly(0xA000, 0));
}

TEST(Hawkeye, PredictsReusedPcFriendly)
{
    TestableHawkeye policy;
    policy.reset(sim::CacheGeometry{64, 16, 1});
    for (int i = 0; i < 64; ++i) {
        opt::TrainingEvent ev;
        ev.opt_hit = true;
        ev.pc = 0xB000;
        policy.onTrainingEvent(ev);
    }
    EXPECT_TRUE(policy.isFriendly(0xB000, 0));
}

TEST(Hawkeye, BeatsLruOnThrashingSet)
{
    sim::Cache hawk(smallLlc(), std::make_unique<HawkeyePolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    auto s = cyclic(32, 80); // set 0 is sampled by OPTgen
    auto h_hawk = runStream(hawk, s);
    auto h_lru = runStream(lru, s);
    EXPECT_EQ(h_lru, 0u);
    EXPECT_GT(h_hawk, s.size() / 10);
}

TEST(Hawkeye, AccuracyCountersAdvance)
{
    auto policy = std::make_unique<HawkeyePolicy>();
    auto *probe = policy.get();
    sim::Cache cache(smallLlc(), std::move(policy));
    auto s = cyclic(32, 40);
    runStream(cache, s);
    EXPECT_GT(probe->predictorAccuracy().events, 100u);
    EXPECT_LE(probe->predictorAccuracy().correct,
              probe->predictorAccuracy().events);
}

TEST(Hawkeye, MixedFriendlyAverseStreams)
{
    // Hot region behind PC B; stream behind PC A. Hawkeye should
    // learn to insert A's lines averse and protect B's.
    sim::Cache hawk(smallLlc(), std::make_unique<HawkeyePolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    Rng rng(12);
    std::uint64_t h_hawk = 0, h_lru = 0;
    for (int i = 0; i < 80000; ++i) {
        std::uint64_t pc, b;
        if (i % 2 == 0) {
            pc = 0xAAAA;
            b = (1u << 20) + i; // pure stream
        } else {
            pc = 0xBBBB;
            b = rng.next() % 700; // hot-ish region (~44KB)
        }
        h_hawk += hawk.access(0, pc, b, false);
        h_lru += lru.access(0, pc, b, false);
    }
    EXPECT_GT(h_hawk, h_lru);
}

TEST(RandomPolicy, FillsInvalidWaysFirst)
{
    sim::Cache cache(smallLlc(), std::make_unique<RandomPolicy>());
    for (std::uint64_t b = 0; b < 16; ++b)
        cache.access(0, 1, b * 64, false);
    for (std::uint64_t b = 0; b < 16; ++b)
        EXPECT_TRUE(cache.probe(b * 64));
}

TEST(Frd, BeatsLruOnHotPlusStreamMix)
{
    // The stream PC's lines are never reused, so its learned forward
    // reuse distance collapses toward "dead"; the hot PC's stays
    // short. FRD evicts the dead lines first.
    sim::Cache frd(smallLlc(), std::make_unique<FrdPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    Rng rng(41);
    std::uint64_t h_frd = 0, h_lru = 0;
    for (int i = 0; i < 80000; ++i) {
        std::uint64_t pc, b;
        if (i % 2 == 0) {
            pc = 0xF00D;
            b = (1u << 22) + i * 64; // dead-on-arrival stream
        } else {
            pc = 0xBEEF;
            b = (rng.next() % 500) * 64; // hot region
        }
        h_frd += frd.access(0, pc, b, false);
        h_lru += lru.access(0, pc, b, false);
    }
    EXPECT_GT(h_frd, h_lru);
}

TEST(Mustache, LookaheadBeatsLruOnCyclicSweep)
{
    // Cyclic sweep of ways+2 blocks in one set: LRU always evicts the
    // block needed next (zero hits); the successor chain names the
    // upcoming blocks, so MUSTACHE protects them and retains a
    // partial working set.
    sim::Cache mustache(smallLlc(), std::make_unique<MustachePolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    auto stream = cyclic(18, 400);
    std::uint64_t h_m = runStream(mustache, stream);
    std::uint64_t h_l = runStream(lru, stream);
    EXPECT_EQ(h_l, 0u);
    EXPECT_GT(h_m, 0u);
}

TEST(Coalesce, BypassesDeadStreamAndKeepsHotSet)
{
    sim::Cache coalesce(smallLlc(), std::make_unique<CoalescePolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    Rng rng(43);
    std::uint64_t h_c = 0, h_l = 0;
    for (int i = 0; i < 80000; ++i) {
        std::uint64_t pc, b;
        if (i % 2 == 0) {
            pc = 0xDEAD;
            b = (1u << 23) + i * 64; // never-reused scan
        } else {
            pc = 0xF17E;
            b = (rng.next() % 500) * 64; // hot region
        }
        h_c += coalesce.access(0, pc, b, false);
        h_l += lru.access(0, pc, b, false);
    }
    EXPECT_GT(h_c, h_l);
}

TEST(EntropyAge, RetainsTightLoop)
{
    // One PC looping over half a set: low window entropy, near
    // insertion, nearly every revisit hits.
    sim::Cache cache(smallLlc(), std::make_unique<EntropyAgePolicy>());
    auto stream = cyclic(8, 500);
    std::uint64_t hits = runStream(cache, stream, 0x500000);
    EXPECT_GT(hits, stream.size() / 2);
}

TEST(DecayCount, FrequencyBeatsLruUnderScans)
{
    // LFU-with-forgetting: frequently revisited blocks build counts
    // that one-shot scan lines (count 1) never displace.
    sim::Cache decay(smallLlc(), std::make_unique<DecayCountPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    Rng rng(44);
    std::uint64_t h_d = 0, h_l = 0;
    for (int i = 0; i < 80000; ++i) {
        std::uint64_t b;
        if (i % 2 == 0)
            b = (1u << 24) + i * 64; // scan
        else
            b = (rng.next() % 400) * 64; // hot region
        h_d += decay.access(0, 0x77, b, false);
        h_l += lru.access(0, 0x77, b, false);
    }
    EXPECT_GT(h_d, h_l);
}

} // namespace
} // namespace policies
} // namespace glider

namespace glider {
namespace policies {
namespace {

TEST(Sdbp, LearnsDeadStreamVsHotMix)
{
    sim::Cache sdbp(smallLlc(), std::make_unique<SdbpPolicy>());
    sim::Cache lru(smallLlc(), std::make_unique<LruPolicy>());
    Rng rng(21);
    std::uint64_t h_sdbp = 0, h_lru = 0;
    for (int i = 0; i < 80000; ++i) {
        std::uint64_t pc, b;
        if (i % 2 == 0) {
            pc = 0xD00D;
            b = (1u << 21) + i; // dead-on-arrival stream
        } else {
            pc = 0xCAFE;
            b = rng.next() % 600; // hot region
        }
        h_sdbp += sdbp.access(0, pc, b, false);
        h_lru += lru.access(0, pc, b, false);
    }
    EXPECT_GT(h_sdbp, h_lru);
}

TEST(Sdbp, RunsOnUniformRandomWithoutPathology)
{
    sim::Cache sdbp(smallLlc(), std::make_unique<SdbpPolicy>());
    Rng rng(22);
    std::uint64_t hits = 0;
    for (int i = 0; i < 40000; ++i)
        hits += sdbp.access(0, 0x100 + rng.next() % 5,
                            rng.next() % 2048, false);
    EXPECT_GT(hits, 0u);
}

/**
 * Property sweep: on a hot-region-plus-stream mixture, every
 * learning policy must beat LRU, across several geometry shapes.
 */
class LearningBeatsLru
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(LearningBeatsLru, OnHotPlusStreamMix)
{
    auto [policy_name, ways] = GetParam();
    sim::CacheConfig cfg;
    cfg.size_bytes = 64ull * ways * 64;
    cfg.ways = static_cast<std::uint32_t>(ways);

    auto make = [&](const std::string &name)
        -> std::unique_ptr<sim::ReplacementPolicy> {
        if (name == "SHiP++")
            return std::make_unique<ShipPPPolicy>();
        if (name == "SDBP")
            return std::make_unique<SdbpPolicy>();
        if (name == "Hawkeye")
            return std::make_unique<HawkeyePolicy>();
        return std::make_unique<MpppbPolicy>();
    };
    sim::Cache smart(cfg, make(policy_name));
    sim::Cache lru(cfg, std::make_unique<LruPolicy>());

    Rng rng(33);
    std::uint64_t hot_blocks = 64ull * ways / 2;
    std::uint64_t h_smart = 0, h_lru = 0;
    for (int i = 0; i < 60000; ++i) {
        std::uint64_t pc, b;
        if (i % 2 == 0) {
            pc = 0xAB00; // stream PC
            b = (1u << 22) + i;
        } else {
            pc = 0xCD00;
            b = rng.next() % hot_blocks;
        }
        h_smart += smart.access(0, pc, b, false);
        h_lru += lru.access(0, pc, b, false);
    }
    EXPECT_GE(h_smart, h_lru) << policy_name << " ways=" << ways;
}

// std::string rather than const char *: gtest prints a pointer
// parameter with its address, which would put a per-run address into
// the discovered test name.
INSTANTIATE_TEST_SUITE_P(
    PoliciesAndGeometries, LearningBeatsLru,
    ::testing::Combine(::testing::Values(std::string("SHiP++"), "SDBP",
                                         "Hawkeye", "MPPPB"),
                       ::testing::Values(4, 8, 16)));

} // namespace
} // namespace policies
} // namespace glider
