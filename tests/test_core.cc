/**
 * @file
 * Tests for the Glider core library: PCHR semantics, ISVM mechanics,
 * the adaptive threshold, the predictor, and the full policy —
 * including the paper's headline claim that history disambiguates
 * contexts a single-PC counter (Hawkeye) cannot.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "cachesim/cache.hh"
#include "common/rng.hh"
#include "core/glider_policy.hh"
#include "core/glider_predictor.hh"
#include "core/isvm.hh"
#include "core/pc_history_register.hh"
#include "core/policy_factory.hh"
#include "policies/hawkeye.hh"
#include "policies/lru.hh"
#include "verify/checked_policy.hh"

namespace glider {
namespace core {
namespace {

TEST(Pchr, KeepsLastKUniquePcs)
{
    PcHistoryRegister pchr(3);
    pchr.observe(1);
    pchr.observe(2);
    pchr.observe(1); // duplicate: refresh, not insert
    pchr.observe(3);
    pchr.observe(4); // evicts 2 (LRU among unique)
    EXPECT_EQ(pchr.size(), 3u);
    EXPECT_TRUE(pchr.contains(1));
    EXPECT_FALSE(pchr.contains(2));
    EXPECT_TRUE(pchr.contains(3));
    EXPECT_TRUE(pchr.contains(4));
}

TEST(Pchr, KSparseRepresentationIsOrderInsensitive)
{
    // The Figure 7 property: two orderings of the same unique PCs
    // produce the same feature set.
    PcHistoryRegister a(4), b(4);
    for (auto pc : {10, 11, 13})
        a.observe(pc);
    for (auto pc : {13, 11, 10})
        b.observe(pc);
    auto sa = a.snapshot();
    auto sb = b.snapshot();
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    EXPECT_EQ(sa, sb);
}

TEST(Isvm, SlotHashWithinSixteen)
{
    for (std::uint64_t pc = 0; pc < 1000; ++pc)
        EXPECT_LT(Isvm::slotOf(pc * 4 + 0x400000), 16u);
}

// Regression tests for the one-hash contract (a pre-existing bug
// hashed every history PC twice per train: once for the threshold
// check, once for the update). The thread-local invocation counter
// in isvmSlotOf makes the contract directly observable.

TEST(Isvm, TrainHashesEachHistoryPcExactlyOnce)
{
    Isvm isvm;
    opt::PcHistory h{100, 200, 300, 400, 500};
    std::uint64_t before = isvmSlotHashCount();
    isvm.train(h, true, 1000);
    EXPECT_EQ(isvmSlotHashCount() - before, h.size())
        << "train must hash each history PC exactly once "
           "(double-hash regression)";

    // A threshold-skipped train still costs exactly one hash per PC:
    // the same feature serves the check and the (skipped) update.
    for (int i = 0; i < 50; ++i)
        isvm.train(h, true, 10);
    ASSERT_GT(isvm.predict(h), 10); // next positive train skips
    before = isvmSlotHashCount();
    isvm.train(h, true, 10);
    EXPECT_EQ(isvmSlotHashCount() - before, h.size());
}

TEST(Isvm, TrainMatchesHandHashedExpectation)
{
    // Pin the update against slots computed from the published hash
    // (the top 4 bits of the splitmix/murmur finalizer), written out
    // by hand so a change to isvmSlotOf's hashing cannot hide.
    auto hand_slot = [](std::uint64_t pc) {
        std::uint64_t x = pc;
        x ^= x >> 33;
        x *= 0xFF51AFD7ED558CCDull;
        x ^= x >> 33;
        x *= 0xC4CEB9FE1A85EC53ull;
        x ^= x >> 33;
        return static_cast<std::size_t>(x >> 60);
    };
    opt::PcHistory h{0xA0, 0xB4, 0xC8, 0xDC, 0xF0};
    Isvm isvm;
    isvm.train(h, true, 0); // sum 0 is not above threshold: applies
    int want[16] = {};
    for (std::uint64_t pc : h)
        ++want[hand_slot(pc)];
    auto weights = isvm.weights();
    for (std::size_t j = 0; j < Isvm::kWeights; ++j)
        EXPECT_EQ(static_cast<int>(weights[j]), want[j])
            << "slot " << j;
}

TEST(GliderPredictor, TrainHashesEachHistoryPcExactlyOnce)
{
    GliderPredictor pred;
    opt::PcHistory h{0x10, 0x20, 0x30, 0x40, 0x50};
    std::uint64_t before = isvmSlotHashCount();
    pred.train(0x99, 0, h, true);
    EXPECT_EQ(isvmSlotHashCount() - before, h.size());
}

TEST(GliderPredictor, PerAccessPredictionIsHashFree)
{
    // The PCHR maintains the slot-count feature incrementally, so a
    // prediction against the live history costs zero slot hashes.
    GliderPredictor pred;
    for (std::uint64_t pc = 1; pc <= 5; ++pc)
        pred.observe(pc * 64, 0);
    std::uint64_t before = isvmSlotHashCount();
    pred.decisionSum(0x1234, 0);
    EXPECT_EQ(isvmSlotHashCount() - before, 0u);

    // The batched path with a pre-resolved feature is hash-free too.
    SlotCounts counts = pred.historyCounts(0);
    PredictRequest req;
    req.pc = 0x1234;
    req.counts = &counts;
    Prediction out;
    before = isvmSlotHashCount();
    pred.predictMany(std::span<const PredictRequest>(&req, 1),
                     std::span<Prediction>(&out, 1));
    EXPECT_EQ(isvmSlotHashCount() - before, 0u);
}

TEST(Pchr, ObserveHashesIncrementally)
{
    PcHistoryRegister pchr(3);
    std::uint64_t before = isvmSlotHashCount();
    pchr.observe(100); // new PC: one hash to add its slot
    EXPECT_EQ(isvmSlotHashCount() - before, 1u);
    before = isvmSlotHashCount();
    pchr.observe(100); // refresh: no hashing at all
    EXPECT_EQ(isvmSlotHashCount() - before, 0u);
    pchr.observe(200);
    pchr.observe(300);
    before = isvmSlotHashCount();
    pchr.observe(400); // insert + evict LRU: two hashes
    EXPECT_EQ(isvmSlotHashCount() - before, 2u);
}

TEST(Isvm, TrainingMovesPrediction)
{
    Isvm isvm;
    opt::PcHistory h{100, 200, 300};
    EXPECT_EQ(isvm.predict(h), 0);
    for (int i = 0; i < 10; ++i)
        isvm.train(h, true, 1000);
    EXPECT_GT(isvm.predict(h), 0);
    for (int i = 0; i < 30; ++i)
        isvm.train(h, false, 1000);
    EXPECT_LT(isvm.predict(h), 0);
}

TEST(Isvm, ThresholdStopsUpdates)
{
    Isvm isvm;
    opt::PcHistory h{100, 200, 300};
    for (int i = 0; i < 100; ++i)
        isvm.train(h, true, /*threshold=*/6);
    // Updates stop once the sum exceeds the threshold. One final
    // update can overshoot by at most k^2 (k history elements, each
    // contributing to a slot that up to k elements share).
    EXPECT_LE(isvm.predict(h), 6 + 9);
}

TEST(Isvm, WeightsSaturateAtEightBit)
{
    Isvm isvm;
    opt::PcHistory h{100};
    for (int i = 0; i < 500; ++i)
        isvm.train(h, true, 100000);
    EXPECT_LE(isvm.predict(h), Isvm::kWeightMax);
}

TEST(Isvm, StorageIsSixteenSignedBytes)
{
    // The Table 3 budget is real, not bookkeeping: one ISVM costs
    // exactly its 16 8-bit weights.
    EXPECT_EQ(sizeof(Isvm), 16u);
    EXPECT_EQ(Isvm::kWeightMax, 127);
    EXPECT_EQ(Isvm::kWeightMin, -128);
}

TEST(Isvm, SaturationBoundaryIsExact)
{
    // Drive one slot to each rail and pin the boundary arithmetic:
    // the weight parks exactly at +127 / -128, further same-sign
    // updates are no-ops, and one opposite update steps off the rail
    // by exactly the multiplicity.
    Isvm isvm;
    opt::PcHistory h{100};
    auto slot = Isvm::slotOf(100);
    for (int i = 0; i < 500; ++i)
        isvm.train(h, true, 100000);
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMax);
    EXPECT_EQ(isvm.predict(h), Isvm::kWeightMax);
    isvm.train(h, true, 100000); // saturated: must not wrap
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMax);
    isvm.train(h, false, 100000);
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMax - 1);
    for (int i = 0; i < 600; ++i)
        isvm.train(h, false, 100000);
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMin);
    EXPECT_EQ(isvm.predict(h), Isvm::kWeightMin);
    isvm.train(h, false, 100000); // saturated low: must not wrap
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMin);
    isvm.train(h, true, 100000);
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMin + 1);
}

TEST(Isvm, DuplicateSlotUpdatesClampLikePerStepApplication)
{
    // Two history PCs landing in the same slot apply a ±2 step; near
    // the rail the clamp must agree with one-at-a-time application
    // (same-sign contributions make the orderings equivalent).
    std::uint64_t a = 0, b = 0;
    for (std::uint64_t pc = 1; pc < 100000; ++pc) {
        if (Isvm::slotOf(pc) == Isvm::slotOf(0x12345)) {
            (a == 0 ? a : b) = pc;
            if (b != 0)
                break;
        }
    }
    ASSERT_NE(a, 0u);
    ASSERT_NE(b, 0u);
    Isvm isvm;
    opt::PcHistory pair{a, b};
    for (int i = 0; i < 70; ++i)
        isvm.train(pair, true, 100000); // +2 per step
    auto slot = Isvm::slotOf(a);
    EXPECT_EQ(isvm.weights()[slot], Isvm::kWeightMax);
    EXPECT_EQ(isvm.predict(pair), 2 * Isvm::kWeightMax);
}

TEST(Isvm, SeparatesContextsByHistory)
{
    // Same current PC, two different histories with opposite labels:
    // the ISVM must learn both (the thing a per-PC counter cannot).
    Isvm isvm;
    opt::PcHistory hot{1111, 2222};
    opt::PcHistory cold{3333, 4444};
    for (int i = 0; i < 40; ++i) {
        isvm.train(hot, true, 30);
        isvm.train(cold, false, 30);
    }
    EXPECT_GT(isvm.predict(hot), 0);
    EXPECT_LT(isvm.predict(cold), 0);
}

TEST(IsvmTable, StorageMatchesPaperBudget)
{
    // §5.4: 2048 PCs x 16 weights x 8 bits = 32.8KB (decimal KB).
    IsvmTable table(2048);
    EXPECT_EQ(table.storageBytes(), 2048u * 16u);
    EXPECT_NEAR(static_cast<double>(table.storageBytes()) / 1000.0,
                32.8, 0.1);
}

TEST(IsvmTable, PcsMapStably)
{
    IsvmTable table(64);
    opt::PcHistory h{5};
    table.forPc(0xABC).train(h, true, 1000);
    EXPECT_GT(table.forPc(0xABC).predict(h), 0);
    // A different core hashes elsewhere (almost surely).
    EXPECT_EQ(table.forPc(0xABC, 1).predict(h), 0);
}

TEST(AdaptiveThreshold, StartsAtFirstCandidate)
{
    AdaptiveThreshold at;
    EXPECT_EQ(at.current(), 0);
}

TEST(AdaptiveThreshold, CyclesThroughCandidatesWhileExploring)
{
    AdaptiveThreshold at;
    std::set<int> seen;
    for (int i = 0; i < 5 * 2048; ++i) {
        seen.insert(at.current());
        at.record(true);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(AdaptiveThreshold, ExploitsBestCandidate)
{
    AdaptiveThreshold at;
    // Make candidate index 2 (threshold 100) look best: feed correct
    // predictions only while it is active.
    for (int i = 0; i < 5 * 2048; ++i) {
        at.record(at.current() == 100);
    }
    EXPECT_EQ(at.current(), 100);
}

TEST(GliderPredictor, ClassifyThresholds)
{
    GliderPredictor pred;
    EXPECT_EQ(pred.classify(60), GliderPrediction::FriendlyHigh);
    EXPECT_EQ(pred.classify(59), GliderPrediction::FriendlyLow);
    EXPECT_EQ(pred.classify(0), GliderPrediction::FriendlyLow);
    EXPECT_EQ(pred.classify(-1), GliderPrediction::Averse);
}

TEST(GliderPredictor, LearnsContextDependentPattern)
{
    GliderPredictor pred;
    std::uint64_t shared_pc = 0x4000;
    opt::PcHistory ctx_a{0x100, 0x104};
    opt::PcHistory ctx_b{0x200, 0x204};
    for (int i = 0; i < 200; ++i) {
        pred.train(shared_pc, 0, ctx_a, true);
        pred.train(shared_pc, 0, ctx_b, false);
    }
    EXPECT_NE(pred.predictWith(shared_pc, ctx_a),
              GliderPrediction::Averse);
    EXPECT_EQ(pred.predictWith(shared_pc, ctx_b),
              GliderPrediction::Averse);
}

TEST(GliderPredictor, StorageBudgetNearPaper)
{
    GliderPredictor pred;
    // ISVM table 32.8KB + PCHR 0.01KB for one core.
    EXPECT_NEAR(static_cast<double>(pred.storageBytes()), 32778.0,
                64.0);
}

TEST(PolicyFactory, AllNamesConstruct)
{
    for (const auto &name : policyNames()) {
        auto p = makePolicy(name);
        ASSERT_NE(p, nullptr) << name;
        EXPECT_EQ(p->name(), name);
    }
}

TEST(PolicyFactory, PaperLineup)
{
    auto lineup = paperLineup();
    EXPECT_EQ(lineup.size(), 4u);
    EXPECT_EQ(lineup.back(), "Glider");
}

TEST(PolicyFactory, ZooLineupConstructs)
{
    auto zoo = zooLineup();
    EXPECT_EQ(zoo.size(), 5u);
    auto names = policyNames();
    std::set<std::string> known(names.begin(), names.end());
    for (const auto &name : zoo) {
        EXPECT_TRUE(known.count(name)) << name;
        EXPECT_EQ(makePolicy(name)->name(), name);
    }
}

TEST(PolicySpec, CanonicalFormDropsDefaultsAndRoundTrips)
{
    EXPECT_EQ(canonicalPolicySpec("Glider{pchr=5}"), "Glider");
    EXPECT_EQ(canonicalPolicySpec("Glider{confidence=60;pchr=5}"),
              "Glider");
    EXPECT_EQ(canonicalPolicySpec("Glider{confidence=0;threshold=30;"
                                  "pchr=3}"),
              "Glider{pchr=3;threshold=30;confidence=0}");
    for (const std::string spec :
         {"Glider", "Glider{pchr=3}", "Glider{threshold=0}",
          "Glider{pchr=8;confidence=1048576}"}) {
        EXPECT_EQ(canonicalPolicySpec(spec), spec);
        EXPECT_EQ(makePolicy(spec)->name(), spec);
    }
}

TEST(PolicySpec, KeysReachTheGliderConfig)
{
    auto policy = makePolicy("Glider{pchr=3;threshold=100;confidence=7}");
    policy->reset(sim::CacheGeometry{64, 16, 1});
    sim::ReplacementPolicy *inner = policy.get();
    if (auto *checked = dynamic_cast<verify::CheckedPolicy *>(inner))
        inner = &checked->inner(); // GLIDER_CHECKED builds wrap it
    auto *glider = dynamic_cast<GliderPolicy *>(inner);
    ASSERT_NE(glider, nullptr);
    const GliderConfig &cfg = glider->predictor().config();
    EXPECT_EQ(cfg.pchr_size, 3u);
    EXPECT_FALSE(cfg.adaptive_threshold);
    EXPECT_EQ(cfg.fixed_threshold, 100);
    EXPECT_EQ(cfg.confidence_threshold, 7);
}

TEST(PolicySpecDeathTest, UnknownNameKeyOrValueIsFatal)
{
    for (const std::string spec :
         {"Glidr", "LRU{pchr=3}", "Glider{k=3}", "Glider{pchr=x}",
          "Glider{pchr=0}", "Glider{pchr=3,threshold=30}",
          "Glider{threshold=-1}", "Glider{pchr=3;pchr=4}",
          "Glider{pchr=3", "Glider{=3}"}) {
        EXPECT_EXIT(canonicalPolicySpec(spec),
                    ::testing::ExitedWithCode(1), "policy")
            << spec;
    }
}

sim::CacheConfig
smallLlc()
{
    sim::CacheConfig c;
    c.size_bytes = 64 * 16 * 64;
    c.ways = 16;
    return c;
}

TEST(GliderPolicy, BeatsLruOnThrash)
{
    sim::Cache glider(smallLlc(), std::make_unique<GliderPolicy>());
    sim::Cache lru(smallLlc(),
                   std::make_unique<policies::LruPolicy>());
    std::uint64_t h_glider = 0, h_lru = 0;
    for (int sweep = 0; sweep < 80; ++sweep) {
        for (std::uint64_t b = 0; b < 32; ++b) {
            std::uint64_t block = b * 64; // all in set 0 (sampled)
            std::uint64_t pc = 0x400000 + (b % 4) * 4;
            h_glider += glider.access(0, pc, block, false);
            h_lru += lru.access(0, pc, block, false);
        }
    }
    EXPECT_EQ(h_lru, 0u);
    EXPECT_GT(h_glider, 80u * 32u / 10u);
}

/**
 * The paper's central claim, as a unit-style integration test: on a
 * stream whose caching behaviour is decided by the *calling context*
 * of a shared PC, Glider's online accuracy must clearly exceed
 * Hawkeye's, because the PCHR disambiguates what a per-PC counter
 * blends together.
 */
TEST(GliderPolicy, ContextSignalBeatsHawkeyeAccuracy)
{
    auto glider_owner = std::make_unique<GliderPolicy>();
    auto hawkeye_owner = std::make_unique<policies::HawkeyePolicy>();
    auto *glider_probe = glider_owner.get();
    auto *hawkeye_probe = hawkeye_owner.get();
    sim::Cache glider(smallLlc(), std::move(glider_owner));
    sim::Cache hawkeye(smallLlc(), std::move(hawkeye_owner));

    Rng rng(42);
    std::uint64_t hot_next = 0, cold_next = 0;
    const std::uint64_t kHot = 256;       // recycled: OPT-cacheable
    const std::uint64_t kCold = 1u << 20; // huge: never reused in time
    for (int i = 0; i < 120000; ++i) {
        bool hot = rng.chance(0.5);
        std::uint64_t caller = hot ? 0x1000 : 0x2000;
        std::uint64_t shared = 0x3000;
        std::uint64_t block;
        if (hot)
            block = (hot_next++ % kHot);
        else
            block = kCold + cold_next++;
        // Caller marker access, then the shared-PC access whose fate
        // depends on the caller.
        glider.access(0, caller, 8'000'000 + caller, false);
        hawkeye.access(0, caller, 8'000'000 + caller, false);
        glider.access(0, shared, block, false);
        hawkeye.access(0, shared, block, false);
        // Filler call sites (as real code between scheduler events):
        // their PCs flush the stale caller out of the 5-entry PCHR so
        // only the *current* caller distinguishes the contexts.
        for (std::uint64_t f = 0; f < 4; ++f) {
            std::uint64_t fpc = 0x5000 + f * 4;
            glider.access(0, fpc, 9'000'000 + f * 64, false);
            hawkeye.access(0, fpc, 9'000'000 + f * 64, false);
        }
    }
    double acc_glider = glider_probe->predictorAccuracy().accuracy();
    double acc_hawkeye = hawkeye_probe->predictorAccuracy().accuracy();
    EXPECT_GT(glider_probe->predictorAccuracy().events, 1000u);
    EXPECT_GT(acc_glider, acc_hawkeye + 0.05);
}

TEST(GliderPolicy, PredictorAccessibleAfterReset)
{
    GliderPolicy policy;
    policy.reset(sim::CacheGeometry{64, 16, 1});
    EXPECT_EQ(policy.predictor().config().pchr_size, 5u);
}

TEST(GliderPolicy, ConfigurableK)
{
    GliderConfig cfg;
    cfg.pchr_size = 2;
    GliderPolicy policy(cfg);
    policy.reset(sim::CacheGeometry{64, 16, 1});
    EXPECT_EQ(policy.predictor().config().pchr_size, 2u);
}

} // namespace
} // namespace core
} // namespace glider
