/**
 * @file
 * Figure 9 (+Table 5): offline predictor accuracy on the 6-benchmark
 * analysis subset — Hawkeye counters, ordered-history Perceptron,
 * offline ISVM (k-sparse unordered feature), and the attention-based
 * LSTM, all trained on Belady labels with the 75/25 split of §5.1.
 *
 * Each workload's dataset build + model training is independent, so
 * the harness fans workloads across GLIDER_THREADS workers
 * (bench::parallelMap) and prints the collected rows in workload
 * order — byte-identical to the serial harness.
 *
 * Note on dimensions: the paper trains embedding/hidden 128 (Table
 * 5); this harness defaults to GLIDER_LSTM_DIM=32 so the full sweep
 * runs in minutes on a laptop. The orderings are unaffected; export
 * GLIDER_LSTM_DIM=128 to reproduce at paper scale.
 */

#include "bench_common.hh"
#include "common/stats_util.hh"

using namespace glider;

namespace {

/** One Figure 9 row: per-model test accuracy (percent). */
struct Row
{
    double majority = 0.0;
    double hawkeye = 0.0;
    double perceptron = 0.0;
    double isvm = 0.0;
    double lstm = 0.0;
};

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

    Row row;
    row.majority = 100.0 * offline::majorityBaseline(ds);
    row.hawkeye = 100.0 * hawkeye.evaluate(ds);
    row.perceptron = 100.0 * perceptron.evaluate(ds);
    row.isvm = 100.0 * isvm.evaluate(ds);
    row.lstm = 100.0 * lstm.evaluate(ds);
    return row;
}

Row
trainAndEvaluate(const std::string &name,
                 const offline::LstmConfig &lstm_cfg)
{
    return trainAndEvaluate(bench::buildTrace(name), lstm_cfg);
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

    // Each workload's dataset+training cell runs under the
    // resilience layer: a failing cell is quarantined (row prints
    // n/a, report marked degraded) instead of aborting the figure.
    const auto names = workloads::offlineSubset();
    const auto fault_plan = resilience::FaultPlan::fromEnv();
    const auto recovery = resilience::RecoveryOptions::fromEnv();
    const auto rows = bench::parallelMap(
        names, [&](const std::string &name) {
            return resilience::runCell<Row>(
                name + "/offline",
                [&](const CancelToken &) {
                    return trainAndEvaluate(name, lstm_cfg);
                },
                recovery, &fault_plan);
        });

    std::printf("%-10s %9s %10s %12s %12s %10s\n", "Program",
                "Majority", "Hawkeye", "Perceptron", "OfflineISVM",
                "LSTM");
    auto report = bench::makeReport("fig9_offline_accuracy");
    report.config("scenario_accesses",
                  obs::json::Value(bench::scenarioAccesses()));
    std::vector<double> acc_h, acc_p, acc_i, acc_l;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (rows[i].status == resilience::CellStatus::Quarantined) {
            std::printf("%-10s %9s (quarantined: %s)\n",
                        names[i].c_str(), "n/a",
                        rows[i].error.c_str());
            report.quarantine(names[i] + "/offline", rows[i].error,
                              rows[i].attempts);
            continue;
        }
        const Row &row = *rows[i].value;
        acc_h.push_back(row.hawkeye);
        acc_p.push_back(row.perceptron);
        acc_i.push_back(row.isvm);
        acc_l.push_back(row.lstm);
        report.metric("accuracy_pct." + names[i] + ".majority",
                      row.majority, "%", obs::Direction::Info);
        report.metric("accuracy_pct." + names[i] + ".hawkeye",
                      row.hawkeye, "%", obs::Direction::Info);
        report.metric("accuracy_pct." + names[i] + ".perceptron",
                      row.perceptron, "%", obs::Direction::Info);
        report.metric("accuracy_pct." + names[i] + ".isvm", row.isvm,
                      "%", obs::Direction::Info);
        report.metric("accuracy_pct." + names[i] + ".lstm", row.lstm,
                      "%", obs::Direction::Info);
        std::printf("%-10s %8.1f%% %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n",
                    names[i].c_str(), row.majority, row.hawkeye,
                    row.perceptron, row.isvm, row.lstm);
        std::fflush(stdout);
    }
    std::printf("%-10s %9s %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n",
                "average", "", amean(acc_h), amean(acc_p), amean(acc_i),
                amean(acc_l));
    report.metric("accuracy_pct.avg.hawkeye", amean(acc_h), "%",
                  obs::Direction::HigherBetter);
    report.metric("accuracy_pct.avg.perceptron", amean(acc_p), "%",
                  obs::Direction::HigherBetter);
    report.metric("accuracy_pct.avg.isvm", amean(acc_i), "%",
                  obs::Direction::HigherBetter);
    report.metric("accuracy_pct.avg.lstm", amean(acc_l), "%",
                  obs::Direction::HigherBetter);
    // ---- Model x adversarial scenarios ------------------------------
    // How learnable each scenario kernel's Belady labels are, per
    // predictor family — the offline counterpart of fig11's
    // policy-zoo grid (traces at GLIDER_SCENARIO_ACCESSES).
    const auto scenarios = workloads::scenarioWorkloads();
    const auto srows = bench::parallelMap(
        scenarios, [&](const std::string &name) {
            return resilience::runCell<Row>(
                name + "/offline",
                [&](const CancelToken &) {
                    return trainAndEvaluate(
                        bench::buildTrace(name,
                                          bench::scenarioAccesses()),
                        lstm_cfg);
                },
                recovery, &fault_plan);
        });

    std::printf("\nModel x adversarial scenarios (offline accuracy)\n");
    std::printf("%-16s %9s %10s %12s %12s %10s\n", "Scenario",
                "Majority", "Hawkeye", "Perceptron", "OfflineISVM",
                "LSTM");
    std::vector<double> sacc_h, sacc_p, sacc_i, sacc_l;
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        if (srows[i].status == resilience::CellStatus::Quarantined) {
            std::printf("%-16s %9s (quarantined: %s)\n",
                        scenarios[i].c_str(), "n/a",
                        srows[i].error.c_str());
            report.quarantine(scenarios[i] + "/offline",
                              srows[i].error, srows[i].attempts);
            continue;
        }
        const Row &row = *srows[i].value;
        sacc_h.push_back(row.hawkeye);
        sacc_p.push_back(row.perceptron);
        sacc_i.push_back(row.isvm);
        sacc_l.push_back(row.lstm);
        report.metric("grid.accuracy_pct." + scenarios[i] + ".majority",
                      row.majority, "%", obs::Direction::Info);
        report.metric("grid.accuracy_pct." + scenarios[i] + ".hawkeye",
                      row.hawkeye, "%", obs::Direction::Info);
        report.metric("grid.accuracy_pct." + scenarios[i]
                          + ".perceptron",
                      row.perceptron, "%", obs::Direction::Info);
        report.metric("grid.accuracy_pct." + scenarios[i] + ".isvm",
                      row.isvm, "%", obs::Direction::Info);
        report.metric("grid.accuracy_pct." + scenarios[i] + ".lstm",
                      row.lstm, "%", obs::Direction::Info);
        std::printf("%-16s %8.1f%% %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n",
                    scenarios[i].c_str(), row.majority, row.hawkeye,
                    row.perceptron, row.isvm, row.lstm);
        std::fflush(stdout);
    }
    std::printf("%-16s %9s %9.1f%% %11.1f%% %11.1f%% %9.1f%%\n",
                "average", "", amean(sacc_h), amean(sacc_p),
                amean(sacc_i), amean(sacc_l));
    report.metric("grid.accuracy_pct.avg.hawkeye", amean(sacc_h), "%",
                  obs::Direction::HigherBetter);
    report.metric("grid.accuracy_pct.avg.perceptron", amean(sacc_p),
                  "%", obs::Direction::HigherBetter);
    report.metric("grid.accuracy_pct.avg.isvm", amean(sacc_i), "%",
                  obs::Direction::HigherBetter);
    report.metric("grid.accuracy_pct.avg.lstm", amean(sacc_l), "%",
                  obs::Direction::HigherBetter);

    std::printf("\nShape check (paper): LSTM and offline ISVM are "
                "within a point or two of each other and clearly above "
                "Hawkeye\nand the ordered-history Perceptron.\n");
    report.write();
    return report.degraded() ? 2 : 0;
}
