/**
 * @file
 * Figure 9 (+Table 5): offline predictor accuracy on the 6-benchmark
 * analysis subset — Hawkeye counters, ordered-history Perceptron,
 * offline ISVM (k-sparse unordered feature), and the attention-based
 * LSTM, all trained on Belady labels with the 75/25 split of §5.1.
 *
 * Each workload's dataset build + model training is independent: every
 * subset workload and adversarial scenario is one "<workload>/offline"
 * cell of one checked sweep (GLIDER_THREADS workers, quarantine,
 * GLIDER_CKPT checkpoint/resume), and the collected rows print in
 * workload order — byte-identical to a serial harness.
 *
 * Note on dimensions: the paper trains embedding/hidden 128 (Table
 * 5); this harness defaults to GLIDER_LSTM_DIM=32 so the full sweep
 * runs in minutes on a laptop. The orderings are unaffected; export
 * GLIDER_LSTM_DIM=128 to reproduce at paper scale.
 */

#include <array>

#include "bench_common.hh"
#include "common/stats_util.hh"

using namespace glider;

namespace {

/** Figure 9's models in column order; a Row holds one test accuracy
 *  (percent) per model. */
constexpr std::array<const char *, 5> kModels = {
    "majority", "hawkeye", "perceptron", "isvm", "lstm"};
using Row = std::array<double, kModels.size()>;

Row
trainAndEvaluate(const traces::Trace &trace,
                 const offline::LstmConfig &lstm_cfg)
{
    auto ds = offline::buildDataset(trace);
    bench::capDataset(ds, 150'000);

    offline::OfflineHawkeye hawkeye(ds.vocab());
    offline::OfflinePerceptron perceptron(ds.vocab(), 3, 0.05f);
    offline::OfflineIsvm isvm(ds.vocab(), 5, 0.1f);
    offline::AttentionLstmModel lstm(ds.vocab(), lstm_cfg);

    for (int e = 0; e < 3; ++e) {
        hawkeye.trainEpoch(ds);
        perceptron.trainEpoch(ds);
        isvm.trainEpoch(ds);
    }
    for (int e = 0; e < bench::lstmEpochs(); ++e)
        lstm.trainEpoch(ds);

    return {100.0 * offline::majorityBaseline(ds),
            100.0 * hawkeye.evaluate(ds), 100.0 * perceptron.evaluate(ds),
            100.0 * isvm.evaluate(ds), 100.0 * lstm.evaluate(ds)};
}

obs::json::Value
encodeRow(const Row &row)
{
    obs::json::Value v = obs::json::Value::object();
    for (std::size_t m = 0; m < kModels.size(); ++m)
        v[kModels[m]] = row[m];
    return v;
}

Row
decodeRow(const obs::json::Value &v)
{
    Row row;
    for (std::size_t m = 0; m < kModels.size(); ++m)
        row[m] = resilience::rowField(v, kModels[m]).number();
    return row;
}

using OfflineSweep = bench::BasicSweepRunner<Row, encodeRow, decodeRow>;

/**
 * Print one accuracy table — a row per cell of @p names, then the
 * trained models' averages — and record its metrics under @p prefix.
 * A quarantined cell prints n/a and is left out of the averages.
 */
void
printTable(obs::BenchReport &report,
           const OfflineSweep::SweepOutcome &outcome,
           const std::vector<std::string> &names, const char *label,
           int width, const std::string &prefix)
{
    std::printf("%-*s %9s %10s %12s %12s %10s\n", width, label,
                "Majority", "Hawkeye", "Perceptron", "OfflineISVM",
                "LSTM");
    std::array<std::vector<double>, kModels.size()> acc;
    for (const auto &name : names) {
        const auto &cell = outcome.at(name + "/offline");
        if (!cell.ok()) {
            std::printf("%-*s %9s (quarantined: %s)\n", width,
                        name.c_str(), "n/a", cell.error.c_str());
            continue;
        }
        const Row &row = cell.row;
        for (std::size_t m = 0; m < kModels.size(); ++m) {
            acc[m].push_back(row[m]);
            report.metric(prefix + name + "." + kModels[m], row[m], "%",
                          obs::Direction::Info);
        }
        std::printf("%-*s %8.1f%% %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n",
                    width, name.c_str(), row[0], row[1], row[2], row[3],
                    row[4]);
    }
    std::printf("%-*s %9s %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n", width,
                "average", "", amean(acc[1]), amean(acc[2]),
                amean(acc[3]), amean(acc[4]));
    for (std::size_t m = 1; m < kModels.size(); ++m) { // skip majority
        report.metric(prefix + "avg." + kModels[m], amean(acc[m]), "%",
                      obs::Direction::HigherBetter);
    }
}

} // namespace

int
main()
{
    bench::printBanner(
        "Figure 9: offline accuracy (Hawkeye / Perceptron / ISVM / LSTM)",
        "averages — LSTM 82.6%, offline ISVM ~81.2%, Hawkeye 72.2%");

    auto lstm_cfg = bench::benchLstmConfig();
    std::printf("Table 5 hyper-parameters: split 0.75/0.25, embedding "
                "%zu, network %zu, Adam lr %.3f, k=5\n\n",
                lstm_cfg.embedding, lstm_cfg.hidden,
                static_cast<double>(lstm_cfg.lr));

    // The scenario cells are the offline counterpart of fig11's
    // policy-zoo grid: how learnable each scenario kernel's Belady
    // labels are, per predictor family (traces at
    // GLIDER_SCENARIO_ACCESSES).
    const auto names = workloads::offlineSubset();
    const auto scenarios = workloads::scenarioWorkloads();
    OfflineSweep sweep;
    auto queueOffline = [&](const std::string &name,
                            std::uint64_t accesses) {
        sweep.queueCell(name + "/offline",
                        [name, accesses, lstm_cfg](const CancelToken &) {
                            return trainAndEvaluate(
                                bench::buildTrace(name, accesses),
                                lstm_cfg);
                        });
    };
    for (const auto &name : names)
        queueOffline(name, bench::traceAccesses());
    for (const auto &name : scenarios)
        queueOffline(name, bench::scenarioAccesses());
    const auto outcome = sweep.runChecked(bench::sweepOptions(
        "fig9_offline_accuracy",
        {env::Knob::LstmDim, env::Knob::Epochs,
         env::Knob::ScenarioAccesses}));

    auto report = bench::makeReport("fig9_offline_accuracy");
    report.config("scenario_accesses",
                  obs::json::Value(bench::scenarioAccesses()));
    printTable(report, outcome, names, "Program", 10, "accuracy_pct.");
    std::printf("\nModel x adversarial scenarios (offline accuracy)\n");
    printTable(report, outcome, scenarios, "Scenario", 16,
               "grid.accuracy_pct.");

    std::printf("\nShape check (paper): LSTM and offline ISVM are "
                "within a point or two of each other and clearly above "
                "Hawkeye\nand the ordered-history Perceptron.\n");
    bench::reportResilience(report, outcome);
    bench::reportHarness(report, sweep);
    report.write();
    return report.degraded() ? 2 : 0;
}
