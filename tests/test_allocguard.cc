/**
 * @file
 * The PR-1 zero-allocation claim as a failing test: with the counting
 * operator new compiled in (-DGLIDER_ALLOCGUARD=ON), drive the warmed
 * simulator hot path and assert the heap was never touched. Without
 * the guard the tests skip — they prove nothing in that build, and
 * skipping keeps the default suite green.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "cachesim/cache.hh"
#include "cachesim/core_model.hh"
#include "cachesim/hierarchy.hh"
#include "cachesim/private_filter.hh"
#include "cachesim/simulator.hh"
#include "common/alloc_guard.hh"
#include "core/glider_predictor.hh"
#include "core/policy_factory.hh"
#include "traces/trace.hh"
#include "workloads/registry.hh"

namespace {

using glider::ScopedAllocCheck;
using glider::allocGuardEnabled;

constexpr std::size_t kWarmup = 20'000;
constexpr std::size_t kMeasured = 50'000;

/**
 * Warm @p cache over the first part of @p trace, then count heap
 * allocations over the next kMeasured accesses.
 */
std::uint64_t
measuredAllocations(glider::sim::Cache &cache,
                    const glider::traces::Trace &trace)
{
    std::size_t i = 0;
    for (; i < kWarmup; ++i) {
        const auto &rec = trace[i % trace.size()];
        cache.access(rec.core, rec.pc,
                     glider::traces::blockAddr(rec.address),
                     rec.is_write);
    }
    ScopedAllocCheck guard;
    for (; i < kWarmup + kMeasured; ++i) {
        const auto &rec = trace[i % trace.size()];
        cache.access(rec.core, rec.pc,
                     glider::traces::blockAddr(rec.address),
                     rec.is_write);
    }
    return guard.allocations();
}

class AllocGuardPolicy : public ::testing::TestWithParam<const char *>
{
};

TEST_P(AllocGuardPolicy, WarmedCacheAccessPathIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    const auto &trace =
        glider::workloads::cachedTrace("libquantum", 100'000);
    glider::sim::CacheConfig cfg;
    cfg.size_bytes = 2 * 1024 * 1024; // 2048 sets at 16 ways
    cfg.ways = 16;
    glider::sim::Cache cache(cfg, glider::core::makePolicy(GetParam()));
    EXPECT_EQ(measuredAllocations(cache, trace), 0u)
        << GetParam() << " allocated on the warmed access path";
}

// Hawkeye/Glider are deliberately absent: their sampled-OPTgen
// bookkeeping keys on PC, so a trace whose PC working set is still
// growing legitimately allocates map nodes long past warmup. The
// zero-allocation contract covers the per-access fast path, which
// the remaining policies — including the whole policy zoo, whose
// tables are preallocated in reset() — exercise without sampler
// machinery.
INSTANTIATE_TEST_SUITE_P(Policies, AllocGuardPolicy,
                         ::testing::Values("LRU", "Random", "SRRIP",
                                           "BRRIP", "DRRIP", "SHiP",
                                           "SHiP++", "MPPPB", "FRD",
                                           "MUSTACHE", "COALESCE",
                                           "EntropyAge", "DecayCount"),
                         [](const auto &row) {
                             std::string n = row.param;
                             for (auto &c : n) {
                                 if (c == '+')
                                     c = 'p';
                             }
                             return n;
                         });

TEST(AllocGuard, HierarchyAccessPathIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    const auto &trace =
        glider::workloads::cachedTrace("libquantum", 100'000);
    glider::sim::HierarchyConfig cfg;
    glider::sim::Hierarchy hier(cfg, 1,
                                glider::core::makePolicy("SRRIP"));
    std::size_t i = 0;
    for (; i < kWarmup; ++i) {
        const auto &rec = trace[i % trace.size()];
        hier.access(0, rec.pc, rec.address, rec.is_write);
    }
    ScopedAllocCheck guard;
    for (; i < kWarmup + kMeasured; ++i) {
        const auto &rec = trace[i % trace.size()];
        hier.access(0, rec.pc, rec.address, rec.is_write);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << "Hierarchy::access allocated on the warmed path";
}

TEST(AllocGuard, PrivateFilterChunkRefillIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    const auto &trace =
        glider::workloads::cachedTrace("libquantum", 100'000);
    std::span<const glider::traces::AccessRecord> records(
        trace.records());
    constexpr std::size_t kChunk = 4096;
    glider::sim::PrivateFilter filter{glider::sim::HierarchyConfig()};
    glider::sim::DepthCodes codes;
    filter.filter(records.subspan(0, kChunk), codes);
    ScopedAllocCheck guard;
    for (std::size_t at = kChunk; at < records.size(); at += kChunk) {
        filter.filter(records.subspan(at, std::min(kChunk,
                                                   records.size() - at)),
                      codes);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << "PrivateFilter::filter allocated refilling a sized buffer";
}

TEST(AllocGuard, MemoisedReplayLoopIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    // The replay loop allocates only in its per-run setup, so with
    // the filter codes already memoised its allocation count must not
    // grow with the number of accesses replayed.
    const auto &shorter =
        glider::workloads::cachedTrace("libquantum", 50'000);
    const auto &longer =
        glider::workloads::cachedTrace("libquantum", 100'000);
    glider::sim::SimOptions opts;
    auto allocations = [&](const glider::traces::Trace &trace) {
        glider::sim::PrivateFilter::of(trace, opts.hierarchy);
        ScopedAllocCheck guard;
        glider::sim::runSingleCore(
            trace, glider::core::makePolicy("SRRIP"), opts);
        return guard.allocations();
    };
    EXPECT_EQ(allocations(longer), allocations(shorter))
        << "the single-core replay loop allocated per access";

    // Two cores whose quotas both exceed either trace, so every core
    // rewinds after its memoised pass, catches its filter up and
    // refills live; doubling the quota adds only more of that.
    const auto &other = glider::workloads::cachedTrace("mcf", 30'000);
    glider::sim::SimOptions mix;
    mix.hierarchy = glider::sim::HierarchyConfig::forCores(2);
    glider::sim::PrivateFilter::of(shorter, mix.hierarchy);
    glider::sim::PrivateFilter::of(other, mix.hierarchy);
    auto mixAllocations = [&](std::uint64_t quota) {
        ScopedAllocCheck guard;
        glider::sim::runMultiCore({&shorter, &other},
                                  glider::core::makePolicy("SRRIP"),
                                  quota, mix);
        return guard.allocations();
    };
    EXPECT_EQ(mixAllocations(120'000), mixAllocations(60'000))
        << "the multi-core replay loop allocated per access or rewind";
}

TEST(AllocGuard, CoreModelStepIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    glider::sim::CoreModel core;
    // Mixed-depth steps roll the MSHR ring through every state:
    // retire, MSHR-full stall, and ROB stall.
    ScopedAllocCheck guard;
    for (std::uint32_t i = 0; i < 200'000; ++i) {
        auto depth = static_cast<glider::sim::AccessDepth>(i % 4);
        core.step(depth, 20 + (i % 180));
    }
    core.finish();
    EXPECT_EQ(guard.allocations(), 0u)
        << "CoreModel::step allocated (MSHR window must be a fixed "
           "ring)";
}

TEST(AllocGuard, GliderSnapshotPathIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    glider::core::GliderPredictor pred;
    // Warm with a fixed PC working set so the PCHR reaches its
    // k-entry capacity; the ISVM table is fixed-size (hash-indexed)
    // and never allocates per access.
    const std::uint64_t pcs[8] = {0x10, 0x24, 0x38, 0x4c,
                                  0x60, 0x74, 0x88, 0x9c};
    for (int i = 0; i < 4096; ++i)
        pred.observe(pcs[i % 8]);
    ScopedAllocCheck guard;
    for (int i = 0; i < 100'000; ++i) {
        // The per-access predictor sequence: snapshot the PCHR,
        // predict against it, then absorb the new PC.
        const auto &snap = pred.history();
        pred.predictWith(pcs[i % 8], snap);
        pred.observe(pcs[(i * 3) % 8]);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << "PCHR snapshot path allocated (snapshot must return by "
           "reference, not by value)";
}

TEST(AllocGuard, PredictManyBatchedReplayIsAllocationFree)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    // The batched prediction path end to end — PCHR feature
    // maintenance, request assembly against live counts, and the
    // SIMD gather/sum — over a 50k-access warmed replay. The spans-in
    // spans-out API contract is zero per-call heap allocation.
    glider::core::GliderPredictor pred;
    const auto &trace =
        glider::workloads::cachedTrace("libquantum", 100'000);
    for (std::size_t i = 0; i < kWarmup; ++i)
        pred.observe(trace[i % trace.size()].pc);
    constexpr std::size_t kBatch = 64;
    glider::core::PredictRequest requests[kBatch];
    glider::core::Prediction predictions[kBatch];
    ScopedAllocCheck guard;
    std::size_t filled = 0;
    for (std::size_t i = kWarmup; i < kWarmup + kMeasured; ++i) {
        const auto &rec = trace[i % trace.size()];
        requests[filled].pc = rec.pc;
        requests[filled].counts = &pred.historyCounts();
        if (++filled == kBatch) {
            pred.predictMany(
                std::span<const glider::core::PredictRequest>(
                    requests, kBatch),
                std::span<glider::core::Prediction>(predictions,
                                                    kBatch));
            filled = 0;
        }
        pred.observe(rec.pc);
    }
    EXPECT_EQ(guard.allocations(), 0u)
        << "predictMany allocated on the warmed batched replay";
}

TEST(AllocGuard, CountersActuallyCount)
{
    if (!allocGuardEnabled())
        GTEST_SKIP() << "build with -DGLIDER_ALLOCGUARD=ON";
    ScopedAllocCheck guard;
    // A new-expression may legally be elided at -O3; calling the
    // allocation function directly may not.
    void *p = ::operator new(32 * sizeof(std::uint64_t));
    EXPECT_GE(guard.allocations(), 1u);
    EXPECT_GE(guard.bytes(), 32 * sizeof(std::uint64_t));
    ::operator delete(p);
}

} // namespace
