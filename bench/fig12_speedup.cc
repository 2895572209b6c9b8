/**
 * @file
 * Figure 12: speedup over LRU for the 33 single-core benchmarks
 * (Hawkeye, MPPPB, SHiP++, Glider) with suite and overall averages,
 * using the OoO-lite timing model (see cachesim/core_model.hh).
 *
 * Runs on the parallel SweepRunner: every (workload x policy) cell is
 * an independent simulation fanned across GLIDER_THREADS workers; the
 * printed rows are byte-identical to the serial harness.
 */

#include "bench_common.hh"
#include "common/stats_util.hh"

using namespace glider;

int
main()
{
    bench::printBanner(
        "Figure 12: speedup over LRU (single core)",
        "averages — Glider 8.1%, MPPPB 7.6%, SHiP++ 7.1%, Hawkeye 5.9%");

    const auto policies = core::paperLineup();
    const auto names = workloads::figure11Workloads();

    // Keyed cells under the resilience layer (quarantine, retries,
    // checkpoint/resume via GLIDER_CKPT) — see fig11 for the model.
    bench::SweepRunner sweep;
    for (const auto &name : names) {
        sweep.queue(name, "LRU");
        for (const auto &p : policies)
            sweep.queue(name, p);
    }

    // Policy zoo x adversarial scenarios, appended to the same sweep
    // (one checkpoint file) at the scenario trace length.
    auto zoo = core::zooLineup();
    zoo.push_back("Glider");
    const auto scenarios = workloads::scenarioWorkloads();
    std::vector<std::string> grid_cols{"LRU"};
    grid_cols.insert(grid_cols.end(), zoo.begin(), zoo.end());
    for (const auto &scen : scenarios) {
        for (const auto &p : grid_cols) {
            sweep.queueCell(scen + "/" + p,
                            [scen, p](const CancelToken &cancel) {
                                auto source =
                                    bench::buildScenarioSource(scen);
                                return bench::runPolicy(*source, p,
                                                        &cancel);
                            });
        }
    }

    auto sweep_opts = bench::sweepOptions("fig12_speedup");
    sweep_opts.config["scenario_accesses"] =
        obs::json::Value(bench::scenarioAccesses());
    const auto outcome = sweep.runChecked(sweep_opts);

    std::printf("%-14s %9s", "Benchmark", "LRU-IPC");
    for (const auto &p : policies)
        std::printf(" %9s", p.c_str());
    std::printf("\n");

    auto report = bench::makeReport("fig12_speedup");
    report.config("scenario_accesses",
                  obs::json::Value(bench::scenarioAccesses()));
    std::map<std::string, std::vector<double>> suite_acc;
    std::map<std::string, std::vector<double>> all_acc;
    for (const auto &name : names) {
        const auto &base = outcome.at(name + "/LRU");
        if (!base.ok()) {
            std::printf("%-14s %9s (baseline quarantined)\n",
                        name.c_str(), "n/a");
            continue;
        }
        const auto &lru = base.row;
        std::printf("%-14s %9.3f", name.c_str(), lru.ipc);
        const std::string suite = bench::suiteLabel(name);
        for (const auto &p : policies) {
            const auto &cell = outcome.at(name + "/" + p);
            if (!cell.ok()) {
                std::printf(" %9s", "n/a");
                continue;
            }
            double up = bench::speedupPct(lru, cell.row);
            std::printf(" %8.1f%%", up);
            suite_acc[suite + "/" + p].push_back(up);
            all_acc[p].push_back(up);
            report.metric("speedup_pct." + name + "." + p, up, "%",
                          obs::Direction::Info);
        }
        std::printf("\n");
        std::fflush(stdout);
    }

    std::printf("\n%-14s", "Suite avg");
    for (const auto &p : policies)
        std::printf(" %12s", p.c_str());
    std::printf("\n");
    for (const char *suite : {"SPEC17", "SPEC06", "GAP"}) {
        std::printf("%-14s", suite);
        for (const auto &p : policies) {
            double avg = amean(suite_acc[std::string(suite) + "/" + p]);
            std::printf(" %11.1f%%", avg);
            report.metric("speedup_pct.avg." + std::string(suite) + "."
                              + p,
                          avg, "%", obs::Direction::HigherBetter);
        }
        std::printf("\n");
    }
    std::printf("%-14s", "ALL");
    for (const auto &p : policies) {
        double avg = amean(all_acc[p]);
        std::printf(" %11.1f%%", avg);
        report.metric("speedup_pct.avg.ALL." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n");

    // ---- Policy zoo x adversarial scenarios -------------------------
    std::printf("\nPolicy zoo x adversarial scenarios (speedup over "
                "LRU, %llu accesses)\n",
                static_cast<unsigned long long>(
                    bench::scenarioAccesses()));
    std::printf("%-16s %9s", "Scenario", "LRU-IPC");
    for (const auto &p : zoo)
        std::printf(" %10s", p.c_str());
    std::printf("\n");

    std::map<std::string, std::vector<double>> grid_acc;
    for (const auto &scen : scenarios) {
        const auto &base = outcome.at(scen + "/LRU");
        if (!base.ok()) {
            std::printf("%-16s %9s (baseline quarantined)\n",
                        scen.c_str(), "n/a");
            continue;
        }
        const auto &lru = base.row;
        std::printf("%-16s %9.3f", scen.c_str(), lru.ipc);
        for (const auto &p : zoo) {
            const auto &cell = outcome.at(scen + "/" + p);
            if (!cell.ok()) {
                std::printf(" %10s", "n/a");
                continue;
            }
            double up = bench::speedupPct(lru, cell.row);
            std::printf(" %9.1f%%", up);
            grid_acc[p].push_back(up);
            report.metric("grid.speedup_pct." + scen + "." + p, up, "%",
                          obs::Direction::Info);
        }
        std::printf("\n");
        std::fflush(stdout);
    }
    std::printf("%-16s %9s", "Scenario avg", "");
    for (const auto &p : zoo) {
        double avg = amean(grid_acc[p]);
        std::printf(" %9.1f%%", avg);
        report.metric("grid.speedup_pct.avg." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n");

    std::printf("\nShape check (paper): speedups track the Figure 11 "
                "miss reductions sub-linearly, and Glider leads on "
                "average.\n");
    bench::reportHarness(report, sweep);
    bench::reportResilience(report, outcome);
    report.write();
    return outcome.degraded() ? 2 : 0;
}
