/**
 * @file
 * google-benchmark microbenchmarks for the hot structures: ISVM
 * predict/train, PCHR updates, OPTgen access, full Glider LLC
 * access, and the exact-MIN simulator — the simulator-side cost
 * companion to Table 3's hardware cost accounting.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "cachesim/cache.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "obs/bench_report.hh"
#include "core/glider_predictor.hh"
#include "core/policy_factory.hh"
#include "opt/belady.hh"
#include "opt/optgen.hh"
#include "policies/lru.hh"
#include "workloads/registry.hh"

using namespace glider;

namespace {

void
BM_IsvmPredict(benchmark::State &state)
{
    core::Isvm isvm;
    opt::PcHistory h{0x400000, 0x400004, 0x400008, 0x40000C, 0x400010};
    for (auto _ : state)
        benchmark::DoNotOptimize(isvm.predict(h));
}
BENCHMARK(BM_IsvmPredict);

void
BM_IsvmTrain(benchmark::State &state)
{
    core::Isvm isvm;
    opt::PcHistory h{0x400000, 0x400004, 0x400008, 0x40000C, 0x400010};
    bool dir = false;
    for (auto _ : state) {
        isvm.train(h, dir = !dir, 30);
        benchmark::DoNotOptimize(isvm);
    }
}
BENCHMARK(BM_IsvmTrain);

void
BM_PchrObserve(benchmark::State &state)
{
    core::PcHistoryRegister pchr(5);
    std::uint64_t pc = 0;
    for (auto _ : state) {
        pchr.observe(0x400000 + (pc++ % 9) * 4);
        benchmark::DoNotOptimize(pchr);
    }
}
BENCHMARK(BM_PchrObserve);

void
BM_OptGenAccess(benchmark::State &state)
{
    opt::OptGenSet set(16, 128, 32);
    opt::PcHistory h{1, 2, 3, 4, 5};
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            set.access(i % 40, 0x400000 + (i % 7) * 4, 0, h, true,
                       true));
        ++i;
        while (auto ev = set.popExpired())
            benchmark::DoNotOptimize(*ev);
    }
}
BENCHMARK(BM_OptGenAccess);

void
BM_LlcAccessGlider(benchmark::State &state)
{
    sim::CacheConfig cfg;
    cfg.size_bytes = 2 * 1024 * 1024;
    cfg.ways = 16;
    sim::Cache cache(cfg, core::makePolicy("Glider"));
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(0, 0x400000 + (i % 13) * 4, i % 100'000,
                         false));
        ++i;
    }
}
BENCHMARK(BM_LlcAccessGlider);

void
BM_LlcAccessLru(benchmark::State &state)
{
    sim::CacheConfig cfg;
    cfg.size_bytes = 2 * 1024 * 1024;
    cfg.ways = 16;
    sim::Cache cache(cfg, std::make_unique<policies::LruPolicy>());
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(0, 0x400000 + (i % 13) * 4, i % 100'000,
                         false));
        ++i;
    }
}
BENCHMARK(BM_LlcAccessLru);

void
BM_BeladySimulate(benchmark::State &state)
{
    const auto &trace = workloads::cachedTrace("sphinx3", 100'000);
    for (auto _ : state) {
        auto res = opt::simulateBelady(trace, 2048, 16);
        benchmark::DoNotOptimize(res.hit_count);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_BeladySimulate);

// ------------------------------------------------------------------
// Scalar-vs-batched prediction: the CI-gated vectorization story.
//
// BM_IsvmPredictLegacyAoS replays the pre-PR per-access predictor
// faithfully — one 64-byte array<int,16> ISVM per table entry (AoS,
// 128KB for 2048 PCs) and a fresh 4-bit hash of every history PC on
// every call. The batched benchmarks drive the same prediction
// stream through predictMany on the SoA int8 plane with pre-resolved
// slot-count features (the serving-layer shape), one backend each.
// main() derives per-request ns and the batched_speedup ratios that
// bench_diff gates (>= 2x on the vector path, >= 1x scalar).

/** Requests per predictMany call in the batched benchmarks. */
constexpr std::size_t kBatch = 64;
/** Size of the random request stream (power of two for masking). */
constexpr std::size_t kStreamLen = 4096;

/** Pre-PR ISVM replica: 16 int weights, hash-per-history-PC. */
struct LegacyIsvm
{
    std::array<int, 16> weights{};

    int
    predict(const opt::PcHistory &h) const
    {
        int sum = 0;
        for (auto pc : h)
            sum += weights[core::Isvm::slotOf(pc)];
        return sum;
    }
};

/** Shared fixture: trained tables plus a random request stream. */
struct PredictFixture
{
    core::GliderPredictor pred;
    std::vector<LegacyIsvm> legacy; //!< AoS replica, same weights
    std::vector<std::uint64_t> pcs;
    std::vector<opt::PcHistory> histories;
    std::vector<core::SlotCounts> counts;
    std::vector<core::PredictRequest> requests;

    PredictFixture()
    {
        Rng rng(20260808);
        // Train a spread of PCs so predictions touch rows across the
        // whole table (the realistic working set: a few hundred hot
        // load PCs, hash-spread over 2048 entries).
        for (int i = 0; i < 60'000; ++i) {
            std::uint64_t pc = 0x400000 + rng.below(512) * 4;
            opt::PcHistory h;
            for (std::size_t j = 0; j < 5; ++j)
                h.push_back(0x400000 + rng.below(512) * 4);
            pred.train(pc, 0, h, (pc >> 2) % 2 == 0);
        }
        // Mirror the trained weights into the legacy AoS table so
        // both paths compute identical sums over identical data.
        const auto &table = pred.table();
        legacy.resize(table.entries());
        for (std::size_t e = 0; e < table.entries(); ++e) {
            const std::int8_t *row = table.row(e);
            for (std::size_t j = 0; j < core::kIsvmWeights; ++j)
                legacy[e].weights[j] = row[j];
        }
        for (std::size_t i = 0; i < kStreamLen; ++i) {
            pcs.push_back(0x400000 + rng.below(512) * 4);
            opt::PcHistory h;
            for (std::size_t j = 0; j < 5; ++j)
                h.push_back(0x400000 + rng.below(512) * 4);
            histories.push_back(std::move(h));
            counts.push_back(core::countSlots(histories.back()));
        }
        for (std::size_t i = 0; i < kStreamLen; ++i) {
            core::PredictRequest req;
            req.pc = pcs[i];
            req.counts = &counts[i];
            requests.push_back(req);
        }
    }

    std::size_t
    legacyIndexOf(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            hashInto(hashCombine(pc, 0), legacy.size()));
    }
};

const PredictFixture &
predictFixture()
{
    static PredictFixture fixture;
    return fixture;
}

void
BM_IsvmPredictLegacyAoS(benchmark::State &state)
{
    const PredictFixture &f = predictFixture();
    std::size_t i = 0;
    for (auto _ : state) {
        std::size_t at = i++ & (kStreamLen - 1);
        benchmark::DoNotOptimize(
            f.legacy[f.legacyIndexOf(f.pcs[at])].predict(
                f.histories[at]));
    }
}
BENCHMARK(BM_IsvmPredictLegacyAoS);

void
BM_PredictManyBatch(benchmark::State &state, simd::Backend backend)
{
    const PredictFixture &f = predictFixture();
    std::array<core::Prediction, kBatch> out;
    std::size_t base = 0;
    for (auto _ : state) {
        f.pred.predictManyWith(
            backend,
            std::span<const core::PredictRequest>(
                f.requests.data() + base, kBatch),
            std::span<core::Prediction>(out.data(), kBatch));
        benchmark::DoNotOptimize(out);
        base = (base + kBatch) & (kStreamLen - 1);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations())
        * static_cast<std::int64_t>(kBatch));
}

/**
 * Console reporter that additionally captures per-benchmark real
 * time (ns/op) so main() can emit the shared BENCH JSON next to the
 * normal google-benchmark table.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const auto &run : runs) {
            if (run.run_type != Run::RT_Iteration
                || run.error_occurred)
                continue;
            ns_per_op_[run.benchmark_name()] =
                run.GetAdjustedRealTime();
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    const std::map<std::string, double> &
    nsPerOp() const
    {
        return ns_per_op_;
    }

  private:
    std::map<std::string, double> ns_per_op_;
};

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // One batched benchmark per backend this build + machine can run
    // (scalar always; forced-backend builds list only their target).
    for (auto backend :
         {simd::Backend::Scalar, simd::Backend::Avx2,
          simd::Backend::Neon}) {
        if (!simd::compiled(backend) || !simd::usable(backend))
            continue;
        std::string name = std::string("BM_PredictManyBatch64_")
            + simd::backendName(backend);
        benchmark::RegisterBenchmark(name.c_str(),
                                     BM_PredictManyBatch, backend);
    }
    CapturingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();

    // Absolute ns/op numbers are machine-dependent (gated only
    // against collapse); the derived ratios compare two measurements
    // from the same run and are portable enough for a tighter band.
    constexpr double kAbsTolerance = 3.0;
    constexpr double kRatioTolerance = 0.5;

    auto report = obs::BenchReport("microbench_predictor");
    const auto &ns = reporter.nsPerOp();
    for (const auto &[name, ns_op] : ns)
        report.metric("ns_per_op." + name, ns_op, "ns",
                      obs::Direction::LowerBetter, kAbsTolerance);

    auto ratio = [&](const char *num, const char *den,
                     const std::string &metric) {
        auto n = ns.find(num);
        auto d = ns.find(den);
        if (n != ns.end() && d != ns.end() && d->second > 0.0)
            report.metric(metric, n->second / d->second, "x",
                          obs::Direction::LowerBetter,
                          kRatioTolerance);
    };
    ratio("BM_LlcAccessGlider", "BM_LlcAccessLru",
          "relative_cost.glider_vs_lru");
    ratio("BM_IsvmTrain", "BM_IsvmPredict",
          "relative_cost.isvm_train_vs_predict");

    // Vectorization gate: per-request cost of each batched backend,
    // and its speedup over the pre-PR per-access AoS predictor. The
    // speedup tolerances encode absolute floors relative to this
    // baseline's value — the vector path fails bench_diff below 2x,
    // the scalar fallback below parity (1x) — so a vectorization
    // regression fails CI even if everything slows down uniformly.
    auto legacy = ns.find("BM_IsvmPredictLegacyAoS");
    for (auto backend :
         {simd::Backend::Scalar, simd::Backend::Avx2,
          simd::Backend::Neon}) {
        const char *bname = simd::backendName(backend);
        auto batched =
            ns.find(std::string("BM_PredictManyBatch64_") + bname);
        if (batched == ns.end() || batched->second <= 0.0)
            continue;
        double per_request =
            batched->second / static_cast<double>(kBatch);
        report.metric(std::string("predict.batched_ns_per_request.")
                          + bname,
                      per_request, "ns", obs::Direction::LowerBetter,
                      kAbsTolerance);
        if (legacy == ns.end() || per_request <= 0.0)
            continue;
        double speedup = legacy->second / per_request;
        double floor = backend == simd::Backend::Scalar ? 1.0 : 2.0;
        double tolerance =
            speedup > floor ? (speedup - floor) / speedup : 0.0;
        report.metric(std::string("predict.batched_speedup.") + bname,
                      speedup, "x", obs::Direction::HigherBetter,
                      tolerance);
    }
    report.write();
    return 0;
}
