/**
 * @file
 * Tests for the verification layer itself: the CheckedPolicy shadow
 * model must accept every well-behaved policy unchanged and reject
 * deliberately broken ones on the exact access that violates the
 * protocol, and CheckedHierarchy's cross-level sweep must hold on
 * real runs including warmup resets.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cachesim/cache.hh"
#include "common/rng.hh"
#include "traces/trace.hh"
#include "core/policy_factory.hh"
#include "policies/lru.hh"
#include "verify/checked_hierarchy.hh"
#include "verify/checked_policy.hh"
#include "verify/invariants.hh"

namespace glider {
namespace verify {
namespace {

sim::CacheConfig
tinyCache(std::uint32_t ways = 4)
{
    sim::CacheConfig c;
    c.size_bytes = 8 * ways * 64; // 8 sets
    c.ways = ways;
    return c;
}

/** A short mixed trace with reuse, thrash, and a cold stream. */
traces::Trace
mixedTrace(std::uint64_t seed, int accesses = 4000)
{
    Rng rng(seed);
    traces::Trace t("verify-mix");
    std::uint64_t cold = 1 << 16;
    for (int i = 0; i < accesses; ++i) {
        std::uint64_t block;
        if (rng.chance(0.5))
            block = rng.below(24);
        else if (rng.chance(0.5))
            block = static_cast<std::uint64_t>(i) % 300;
        else
            block = cold++;
        t.push(0x400000 + (block % 8) * 4, block * 64,
               rng.chance(0.2), 0);
    }
    return t;
}

/** Returns an out-of-range way on every miss. */
class OutOfRangePolicy : public policies::LruPolicy
{
  public:
    std::string name() const override { return "OutOfRange"; }
    std::uint32_t
    victimWay(const sim::ReplacementAccess &, sim::SetView lines)
        noexcept override
    {
        return lines.ways + 3; // beyond even the bypass sentinel
    }
};

/** Claims to be LRU but always victimises way 0. */
class StuckAtZeroPolicy : public policies::LruPolicy
{
  public:
    std::uint32_t
    victimWay(const sim::ReplacementAccess &, sim::SetView)
        noexcept override
    {
        return 0;
    }
};

TEST(CheckedPolicy, RejectsOutOfRangeVictim)
{
    sim::Cache cache(tinyCache(),
                     checkedPolicy(std::make_unique<OutOfRangePolicy>()));
    EXPECT_THROW(cache.access(0, 0x400000, 1, false),
                 InvariantViolation);
}

TEST(CheckedPolicy, LruReferenceCatchesNonLruVictims)
{
    // Way 0 is also what true LRU picks while the set is empty, so
    // the stuck-at-zero policy survives exactly one miss per set;
    // the second miss in any set must prefer the invalid way 1 and
    // trips the reference model.
    CheckedPolicy::Options opts;
    opts.verify_lru = true;
    sim::Cache cache(tinyCache(),
                     checkedPolicy(std::make_unique<StuckAtZeroPolicy>(),
                                   opts));
    EXPECT_NO_THROW(cache.access(0, 0x400000, 0, false));
    EXPECT_THROW(cache.access(0, 0x400000, 8, false),
                 InvariantViolation);
}

TEST(CheckedPolicy, TrueLruPassesReferenceModel)
{
    // 1 and 3 ways are not powers of two, which the fuzzer never
    // draws; 16 ways puts a way in the top nibble of LRU's recency
    // word.
    for (std::uint32_t ways : {1u, 3u, 4u, 8u, 16u}) {
        SCOPED_TRACE(ways);
        CheckedPolicy::Options opts;
        opts.verify_lru = true;
        sim::Cache cache(
            tinyCache(ways),
            checkedPolicy(std::make_unique<policies::LruPolicy>(), opts));
        for (const auto &rec : mixedTrace(0xBEEF))
            ASSERT_NO_THROW(cache.access(rec.core, rec.pc,
                                         traces::blockAddr(rec.address),
                                         rec.is_write));
        EXPECT_GT(cache.stats().hits, 0u);
        EXPECT_GT(cache.stats().evictions, 0u);
    }
}

/** Direct protocol-order drives against a standalone checker. */
class CheckedPolicyProtocol : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        checker_ = std::make_unique<CheckedPolicy>(
            std::make_unique<policies::LruPolicy>());
        checker_->reset(sim::CacheGeometry{8, 4, 1});
        lines_.assign(4, sim::LineView{});
    }

    sim::SetView
    view() const
    {
        return sim::SetView{lines_.data(),
                            static_cast<std::uint32_t>(lines_.size())};
    }

    static sim::ReplacementAccess
    access(std::uint64_t set, std::uint64_t block)
    {
        sim::ReplacementAccess a;
        a.set = set;
        a.block_addr = block;
        a.pc = 0x400000;
        return a;
    }

    std::unique_ptr<CheckedPolicy> checker_;
    std::vector<sim::LineView> lines_;
};

TEST_F(CheckedPolicyProtocol, SecondVictimWayWithoutInsertThrows)
{
    checker_->victimWay(access(1, 100), view());
    EXPECT_THROW(checker_->victimWay(access(1, 200), view()),
                 InvariantViolation);
}

TEST_F(CheckedPolicyProtocol, InsertWithoutOpenMissThrows)
{
    EXPECT_THROW(checker_->onInsert(access(1, 100), 0),
                 InvariantViolation);
}

TEST_F(CheckedPolicyProtocol, HitOnNonResidentBlockThrows)
{
    EXPECT_THROW(checker_->onHit(access(1, 100), 0),
                 InvariantViolation);
}

TEST_F(CheckedPolicyProtocol, EvictOfInvalidVictimThrows)
{
    // The set is empty, so the chosen victim way holds no valid
    // line and no onEvict may be reported for it.
    auto way = checker_->victimWay(access(1, 100), view());
    EXPECT_THROW(checker_->onEvict(access(1, 100), way,
                                   sim::LineView{50}),
                 InvariantViolation);
}

TEST_F(CheckedPolicyProtocol, TagArrayMismatchThrows)
{
    // Complete one legal miss so the shadow believes block 100 sits
    // in set 1, then present a tag array that disagrees.
    auto way = checker_->victimWay(access(1, 100), view());
    checker_->onInsert(access(1, 100), way);
    lines_[way] = sim::LineView{999}; // cache claims 999
    EXPECT_THROW(checker_->victimWay(access(1, 200), view()),
                 InvariantViolation);
}

TEST_F(CheckedPolicyProtocol, WellFormedMissSequencePasses)
{
    std::uint32_t way_of_two = 0;
    for (std::uint64_t b = 0; b < 4; ++b) {
        auto way = checker_->victimWay(access(2, b), view());
        ASSERT_LT(way, 4u);
        EXPECT_NO_THROW(checker_->onInsert(access(2, b), way));
        lines_[way] = sim::LineView{b};
        if (b == 2)
            way_of_two = way;
    }
    EXPECT_NO_THROW(checker_->onHit(access(2, 2), way_of_two));
}

TEST(CheckedPolicy, NameAndCountersForward)
{
    auto owner =
        std::make_unique<CheckedPolicy>(std::make_unique<policies::LruPolicy>());
    auto *checker = owner.get();
    EXPECT_EQ(checker->name(), "LRU");
    sim::Cache cache(tinyCache(), std::move(owner));
    for (const auto &rec : mixedTrace(0xCAFE))
        cache.access(rec.core, rec.pc, traces::blockAddr(rec.address),
                     rec.is_write);
    // Protocol-derived event counts reconcile with the cache's own
    // stats (no warmup reset in this run).
    EXPECT_EQ(checker->hits(), cache.stats().hits);
    EXPECT_EQ(checker->misses(), cache.stats().misses);
    EXPECT_EQ(checker->evictions(), cache.stats().evictions);
    EXPECT_EQ(checker->bypasses(), cache.stats().bypasses);
    EXPECT_GT(checker->evictions(), 0u);
}

TEST(CheckedHierarchy, EveryRegisteredPolicyPassesChecked)
{
    auto trace = mixedTrace(0xD00D, 6000);
    for (const auto &name : core::policyNames()) {
        sim::HierarchyConfig cfg;
        cfg.l1.size_bytes = 2 * 1024;
        cfg.l2.size_bytes = 8 * 1024;
        cfg.llc.size_bytes = 32 * 1024;
        CheckedPolicy::Options opts;
        opts.verify_lru = name == "LRU";
        CheckedHierarchy hier(cfg, 1, core::makePolicy(name), opts);
        std::size_t i = 0;
        for (const auto &rec : trace) {
            if (i++ == trace.size() / 3)
                hier.clearStatsCounters(); // warmup accounting path
            ASSERT_NO_THROW(hier.access(rec.core, rec.pc, rec.address,
                                        rec.is_write))
                << name << " at access " << i;
        }
        EXPECT_NO_THROW(hier.check()) << name;
    }
}

TEST(CheckedHierarchy, FlowConservationOnMultiCore)
{
    Rng rng(7);
    sim::HierarchyConfig cfg;
    cfg.l1.size_bytes = 2 * 1024;
    cfg.l2.size_bytes = 8 * 1024;
    cfg.llc.size_bytes = 32 * 1024;
    CheckedHierarchy hier(cfg, 4, core::makePolicy("Glider"));
    for (int i = 0; i < 8000; ++i) {
        auto core = static_cast<std::uint8_t>(rng.below(4));
        std::uint64_t block =
            rng.chance(0.6) ? rng.below(64) : 4096 + rng.below(2048);
        ASSERT_NO_THROW(hier.access(core, 0x400000 + core * 4,
                                    block * 64, false));
    }
    EXPECT_NO_THROW(hier.check());
}

} // namespace
} // namespace verify
} // namespace glider
