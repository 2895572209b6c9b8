/**
 * @file
 * Differential tests for the vectorized batched prediction path: the
 * SIMD dot kernels against the scalar reference (exhaustive corners
 * plus fuzz), predictMany against per-access predict, the PCHR's
 * incrementally maintained slot counts against a from-scratch rescan,
 * and predictMany over a live policy's PCHR against per-PC decisions.
 * Every backend the binary compiled in and the CPU supports is
 * exercised; the suite is the proof behind "bit-exact on all
 * backends".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cachesim/replacement.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/glider_policy.hh"
#include "core/glider_predictor.hh"
#include "core/isvm.hh"
#include "core/pc_history_register.hh"

namespace glider {
namespace core {
namespace {

/** Backends to test: every one usable on this build + machine. */
std::vector<simd::Backend>
usableBackends()
{
    std::vector<simd::Backend> backends{simd::Backend::Scalar};
    for (auto b : {simd::Backend::Avx2, simd::Backend::Neon}) {
        if (simd::usable(b))
            backends.push_back(b);
    }
    return backends;
}

class SimdBackend
    : public ::testing::TestWithParam<simd::Backend>
{
};

INSTANTIATE_TEST_SUITE_P(
    Backends, SimdBackend, ::testing::ValuesIn(usableBackends()),
    [](const auto &row) { return simd::backendName(row.param); });

TEST(Simd, ActiveBackendIsUsable)
{
    EXPECT_TRUE(simd::usable(simd::activeBackend()));
    EXPECT_TRUE(simd::compiled(simd::activeBackend()));
}

/**
 * Exhaustive corner sweep: every (weight, count) corner pair that
 * stresses the 16-bit intermediate of the AVX2 maddubs path —
 * saturated weights against maximal counts in adjacent lanes — must
 * match exact integer arithmetic.
 */
TEST_P(SimdBackend, CornerCasesMatchScalarReference)
{
    const std::int8_t weight_corners[] = {-128, -127, -1, 0, 1, 127};
    const std::uint8_t count_corners[] = {0, 1, 5, 127, 128, 255};
    alignas(64) std::int8_t w[simd::kDotLanes];
    alignas(64) std::uint8_t c[simd::kDotLanes];
    const std::int8_t *rows[1] = {w};
    for (std::int8_t wc : weight_corners) {
        for (std::uint8_t cc : count_corners) {
            for (std::size_t phase = 0; phase < 4; ++phase) {
                for (std::size_t j = 0; j < simd::kDotLanes; ++j) {
                    // Alternate corner and filler values so adjacent
                    // lanes (paired by maddubs) see the worst case.
                    bool on = ((j + phase) % 2) == 0;
                    w[j] = on ? wc : static_cast<std::int8_t>(j - 8);
                    // Keep each adjacent pair's count sum within the
                    // documented kMaxCountSum exactness bound.
                    c[j] = on ? cc : static_cast<std::uint8_t>(0);
                }
                std::int32_t expect = 0, got = 0;
                simd::dotRowsScalar(rows, c, 1, &expect);
                simd::dotRowsWith(GetParam(), rows, c, 1, &got);
                EXPECT_EQ(got, expect)
                    << "weight corner " << static_cast<int>(wc)
                    << " count corner " << static_cast<int>(cc)
                    << " phase " << phase;
            }
        }
    }
}

/**
 * Fuzzed kernel check over batched rows: random weights, random
 * counts whose per-request sum respects kMaxCountSum, random batch
 * sizes including odd tails.
 */
TEST_P(SimdBackend, FuzzedBatchesMatchScalarReference)
{
    Rng rng(0x51D0u);
    constexpr std::size_t kMaxBatch = 67;
    std::vector<std::int8_t> plane(kMaxBatch * simd::kDotLanes);
    std::vector<std::uint8_t> counts(kMaxBatch * simd::kDotLanes);
    std::vector<const std::int8_t *> rows(kMaxBatch);
    std::vector<std::int32_t> expect(kMaxBatch), got(kMaxBatch);
    for (int round = 0; round < 500; ++round) {
        std::size_t n = 1 + rng.below(kMaxBatch);
        for (std::size_t i = 0; i < n; ++i) {
            rows[i] = plane.data() + i * simd::kDotLanes;
            std::size_t budget = simd::kMaxCountSum;
            for (std::size_t j = 0; j < simd::kDotLanes; ++j) {
                plane[i * simd::kDotLanes + j] =
                    static_cast<std::int8_t>(rng.range(-128, 127));
                std::uint64_t draw = rng.below(40);
                std::uint8_t cnt = static_cast<std::uint8_t>(
                    draw < budget ? draw : budget);
                counts[i * simd::kDotLanes + j] = cnt;
                budget -= cnt;
            }
        }
        simd::dotRowsScalar(rows.data(), counts.data(), n,
                            expect.data());
        simd::dotRowsWith(GetParam(), rows.data(), counts.data(), n,
                          got.data());
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], expect[i])
                << "round " << round << " request " << i << " of "
                << n;
    }
}

TEST(SlotCounts, MatchesPerPcHashing)
{
    Rng rng(7);
    for (int round = 0; round < 200; ++round) {
        opt::PcHistory h;
        std::size_t len = rng.below(9);
        for (std::size_t i = 0; i < len; ++i)
            h.push_back(rng.next());
        SlotCounts counts = countSlots(h);
        int lanes = 0;
        for (std::size_t j = 0; j < kIsvmWeights; ++j)
            lanes += counts.lane[j];
        EXPECT_EQ(static_cast<std::size_t>(lanes), h.size());
        for (auto pc : h)
            EXPECT_GT(counts.lane[Isvm::slotOf(pc)], 0);
    }
}

TEST(SlotCounts, PchrMaintainsCountsIncrementally)
{
    // Heavy churn through a small PC pool forces every transition:
    // fresh insert, refresh of a resident PC, and insert-with-evict.
    PcHistoryRegister pchr(5);
    Rng rng(21);
    for (int i = 0; i < 20'000; ++i) {
        pchr.observe(0x400000 + rng.below(12) * 4);
        ASSERT_EQ(pchr.slotCounts(), countSlots(pchr.snapshot()))
            << "incremental counts diverged from rescan at step " << i;
    }
    pchr.clear();
    EXPECT_EQ(pchr.slotCounts(), SlotCounts{});
}

TEST(IsvmTable, WeightPlaneIsContiguousAndCacheLineAligned)
{
    IsvmTable table(128);
    auto plane = table.plane();
    EXPECT_EQ(plane.size(), 128u * kIsvmWeights);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(plane.data())
                  % IsvmTable::kPlaneAlign,
              0u);
    // Row views alias the plane: a train through forPc must be
    // visible in the linear sweep.
    opt::PcHistory h{0x10, 0x24};
    table.forPc(0xABC).train(h, true, 1000);
    int nonzero = 0;
    for (std::int8_t w : plane)
        nonzero += w != 0;
    EXPECT_GT(nonzero, 0);
    EXPECT_EQ(table.row(table.rowIndexOf(0xABC, 0)),
              plane.data()
                  + table.rowIndexOf(0xABC, 0) * kIsvmWeights);
}

/** A predictor trained into a rich state: mixed signs, saturation. */
GliderPredictor
trainedPredictor(unsigned cores = 1)
{
    GliderConfig cfg;
    cfg.adaptive_threshold = false;
    cfg.fixed_threshold = 1'000'000; // always update: drive saturation
    GliderPredictor pred(cfg, cores);
    Rng rng(99);
    for (int i = 0; i < 30'000; ++i) {
        auto core = static_cast<std::uint8_t>(rng.below(cores));
        std::uint64_t pc = 0x400000 + rng.below(64) * 4;
        opt::PcHistory h;
        std::size_t len = rng.below(6);
        for (std::size_t j = 0; j < len; ++j)
            h.push_back(0x400000 + rng.below(64) * 4);
        // Per-PC fixed label: rows drift monotonically and saturate.
        pred.train(pc, core, h, (pc >> 2) % 2 == 0);
    }
    return pred;
}

TEST_P(SimdBackend, PredictManyMatchesPerAccessPredict)
{
    GliderPredictor pred = trainedPredictor(2);
    EXPECT_GT(pred.table().weightStats().at_max
                  + pred.table().weightStats().at_min,
              0u)
        << "fixture failed to saturate any weight";

    Rng rng(5);
    std::vector<opt::PcHistory> histories;
    std::vector<PredictRequest> requests;
    constexpr std::size_t kRequests = 333; // odd: chunk tails covered
    histories.reserve(kRequests);
    for (std::size_t i = 0; i < kRequests; ++i) {
        opt::PcHistory h;
        // Include empty and short histories explicitly.
        std::size_t len = i < 4 ? i : rng.below(7);
        for (std::size_t j = 0; j < len; ++j)
            h.push_back(0x400000 + rng.below(80) * 4);
        histories.push_back(std::move(h));
    }
    for (std::size_t i = 0; i < kRequests; ++i) {
        PredictRequest req;
        req.pc = 0x400000 + rng.below(80) * 4;
        req.core = static_cast<std::uint8_t>(i % 2);
        req.history = histories[i];
        requests.push_back(req);
    }
    std::vector<Prediction> out(kRequests);
    pred.predictManyWith(GetParam(), requests, out);
    for (std::size_t i = 0; i < kRequests; ++i) {
        EXPECT_EQ(out[i].sum,
                  pred.decisionSumWith(requests[i].pc, histories[i],
                                       requests[i].core))
            << "request " << i;
        EXPECT_EQ(out[i].level,
                  pred.predictWith(requests[i].pc, histories[i],
                                   requests[i].core))
            << "request " << i;
    }
}

TEST_P(SimdBackend, PredictManyHonorsPreResolvedCounts)
{
    GliderPredictor pred = trainedPredictor();
    Rng rng(13);
    std::vector<SlotCounts> counts;
    std::vector<PredictRequest> requests;
    for (std::size_t i = 0; i < 100; ++i) {
        opt::PcHistory h;
        std::size_t len = rng.below(6);
        for (std::size_t j = 0; j < len; ++j)
            h.push_back(0x400000 + rng.below(64) * 4);
        counts.push_back(countSlots(h));
    }
    for (std::size_t i = 0; i < 100; ++i) {
        PredictRequest req;
        req.pc = 0x400000 + rng.below(64) * 4;
        req.counts = &counts[i];
        requests.push_back(req);
    }
    std::vector<Prediction> out(100);
    pred.predictManyWith(GetParam(), requests, out);
    for (std::size_t i = 0; i < 100; ++i) {
        EXPECT_EQ(out[i].sum,
                  pred.decisionSumCounts(requests[i].pc, counts[i]))
            << "request " << i;
    }
}

TEST(PredictMany, EmptyBatchIsANoOp)
{
    GliderPredictor pred;
    pred.predictMany({}, {});
}

TEST(PredictMany, DispatchedBackendMatchesScalar)
{
    GliderPredictor pred = trainedPredictor();
    Rng rng(31);
    std::vector<SlotCounts> counts;
    std::vector<PredictRequest> requests;
    for (std::size_t i = 0; i < 200; ++i) {
        opt::PcHistory h;
        for (std::size_t j = 0; j < rng.below(6); ++j)
            h.push_back(0x400000 + rng.below(64) * 4);
        counts.push_back(countSlots(h));
    }
    for (std::size_t i = 0; i < 200; ++i) {
        PredictRequest req;
        req.pc = 0x400000 + rng.below(64) * 4;
        req.counts = &counts[i];
        requests.push_back(req);
    }
    std::vector<Prediction> fast(200), ref(200);
    pred.predictMany(requests, fast);
    pred.predictManyWith(simd::Backend::Scalar, requests, ref);
    for (std::size_t i = 0; i < 200; ++i) {
        EXPECT_EQ(fast[i].sum, ref[i].sum) << "request " << i;
        EXPECT_EQ(fast[i].level, ref[i].level) << "request " << i;
    }
}

TEST(GliderPredictor, PredictManyOnLiveHistoryMatchesDecisionSum)
{
    GliderPolicy policy;
    policy.reset(sim::CacheGeometry{64, 16, 2});
    // Feed accesses with reuse through the policy interface on both
    // cores so each PCHR fills and OPTgen trains the ISVMs.
    for (int i = 0; i < 2048; ++i) {
        sim::ReplacementAccess acc;
        acc.pc = 0x400000 + static_cast<std::uint64_t>(i % 6) * 4;
        acc.core = static_cast<std::uint8_t>(i % 2);
        acc.block_addr = static_cast<std::uint64_t>(i % 24) * 64;
        acc.set = 0;
        policy.onInsert(acc, static_cast<std::uint32_t>(i % 16));
    }
    const GliderPredictor &pred = policy.predictor();
    std::vector<PredictRequest> requests(100);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].pc = 0x400000 + (i % 6) * 4;
        requests[i].core = static_cast<std::uint8_t>(i % 2);
        requests[i].counts = &pred.historyCounts(requests[i].core);
    }
    std::vector<Prediction> out(requests.size());
    pred.predictMany(requests, out);
    bool trained = false;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(out[i].sum,
                  pred.decisionSum(requests[i].pc, requests[i].core))
            << "request " << i;
        trained = trained || out[i].sum != 0;
    }
    EXPECT_TRUE(trained) << "live ISVM weights never moved";
}

} // namespace
} // namespace core
} // namespace glider
