/**
 * @file
 * Figure 11: LLC miss-rate reduction over LRU for the 33 single-core
 * benchmarks, for Hawkeye, MPPPB, SHiP++, and Glider, with suite
 * (SPEC17 / SPEC06 / GAP) and overall averages. Also prints the MIN
 * (Belady) row as the upper bound, as the paper's §5.1 does for
 * single-thread runs.
 *
 * Runs on the parallel SweepRunner: every (workload x policy) cell is
 * an independent simulation fanned across GLIDER_THREADS workers; the
 * printed rows are byte-identical to the serial harness.
 */

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "cachesim/hierarchy.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"

using namespace glider;

namespace {

/** Miss count for exact MIN over the (policy-independent) stream. */
sim::SingleCoreResult
runMin(const traces::Trace &trace, const CancelToken &cancel)
{
    sim::SimOptions opts;
    opts.cancel = &cancel;
    auto llc_stream = opt::extractLlcStream(trace, opts.hierarchy);
    return sim::runSingleCore(
        trace, std::make_unique<opt::BeladyPolicy>(llc_stream), opts);
}

/** Zoo-grid columns: the policy zoo plus Glider as the learned bound. */
std::vector<std::string>
gridPolicies()
{
    auto policies = core::zooLineup();
    policies.push_back("Glider");
    return policies;
}

} // namespace

int
main()
{
    bench::printBanner(
        "Figure 11: miss-rate reduction over LRU (single core)",
        "averages — Glider 8.9%, SHiP++ 7.5%, Hawkeye 7.1%, MPPPB 6.5%");

    const auto policies = core::paperLineup(); // Hawkeye MPPPB SHiP++ Glider
    const auto names = workloads::figure11Workloads();

    // Per workload: the LRU baseline, the lineup, then the MIN bound.
    // Cells run under the resilience layer: a failing cell is
    // quarantined (its columns print n/a, the report is marked
    // degraded), and with GLIDER_CKPT set, completed rows persist so
    // an interrupted sweep resumes where it stopped.
    bench::SweepRunner sweep;
    for (const auto &name : names) {
        sweep.queue(name, "LRU");
        for (const auto &p : policies)
            sweep.queue(name, p);
        sweep.queueCell(name + "/MIN",
                        [name](const CancelToken &cancel) {
                            return runMin(bench::buildTrace(name),
                                          cancel);
                        });
    }

    // Policy zoo x adversarial scenarios: appended to the same sweep
    // (one checkpoint file, shared worker pool); cells run at the
    // scenario trace length (GLIDER_SCENARIO_ACCESSES).
    const auto zoo = gridPolicies();
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
        sweep.queueCell(scen + "/MIN",
                        [scen](const CancelToken &cancel) {
                            return runMin(
                                bench::buildScenarioTrace(scen),
                                cancel);
                        });
    }

    auto sweep_opts = bench::sweepOptions("fig11_miss_reduction");
    sweep_opts.config["scenario_accesses"] =
        obs::json::Value(bench::scenarioAccesses());
    const auto outcome = sweep.runChecked(sweep_opts);

    std::printf("%-14s %9s", "Benchmark", "LRU-MPKI");
    for (const auto &p : policies)
        std::printf(" %9s", p.c_str());
    std::printf(" %9s\n", "MIN");

    auto report = bench::makeReport("fig11_miss_reduction");
    report.config("scenario_accesses",
                  obs::json::Value(bench::scenarioAccesses()));
    std::map<std::string, std::vector<double>> suite_acc;
    std::map<std::string, std::vector<double>> all_acc;
    for (const auto &name : names) {
        const auto &base = outcome.at(name + "/LRU");
        if (!base.ok()) {
            // Without the LRU baseline no reduction is computable;
            // the quarantined cell is in the report's degraded list.
            std::printf("%-14s %9s (baseline quarantined)\n",
                        name.c_str(), "n/a");
            continue;
        }
        const auto &lru = base.row;
        std::printf("%-14s %9.2f", name.c_str(), lru.mpki());
        const std::string suite = bench::suiteLabel(name);
        for (const auto &p : policies) {
            const auto &cell = outcome.at(name + "/" + p);
            if (!cell.ok()) {
                std::printf(" %9s", "n/a");
                continue;
            }
            double red = bench::missReductionPct(lru, cell.row);
            std::printf(" %8.1f%%", red);
            suite_acc[suite + "/" + p].push_back(red);
            all_acc[p].push_back(red);
            report.metric("miss_reduction_pct." + name + "." + p, red,
                          "%", obs::Direction::Info);
        }
        const auto &bound = outcome.at(name + "/MIN");
        if (bound.ok()) {
            double min_red = bench::missReductionPct(lru, bound.row);
            std::printf(" %8.1f%%\n", min_red);
            report.metric("miss_reduction_pct." + name + ".MIN",
                          min_red, "%", obs::Direction::Info);
        } else {
            std::printf(" %9s\n", "n/a");
        }
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
            report.metric("miss_reduction_pct.avg." + std::string(suite)
                              + "." + p,
                          avg, "%", obs::Direction::HigherBetter);
        }
        std::printf("\n");
    }
    std::printf("%-14s", "ALL");
    for (const auto &p : policies) {
        double avg = amean(all_acc[p]);
        std::printf(" %11.1f%%", avg);
        report.metric("miss_reduction_pct.avg.ALL." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n");

    // ---- Policy zoo x adversarial scenarios -------------------------
    std::printf("\nPolicy zoo x adversarial scenarios (miss reduction "
                "over LRU, %llu accesses)\n",
                static_cast<unsigned long long>(
                    bench::scenarioAccesses()));
    std::printf("%-16s %9s", "Scenario", "LRU-MPKI");
    for (const auto &p : zoo)
        std::printf(" %10s", p.c_str());
    std::printf(" %10s\n", "MIN");

    std::map<std::string, std::vector<double>> grid_acc;
    for (const auto &scen : scenarios) {
        const auto &base = outcome.at(scen + "/LRU");
        if (!base.ok()) {
            std::printf("%-16s %9s (baseline quarantined)\n",
                        scen.c_str(), "n/a");
            continue;
        }
        const auto &lru = base.row;
        std::printf("%-16s %9.2f", scen.c_str(), lru.mpki());
        for (const auto &p : zoo) {
            const auto &cell = outcome.at(scen + "/" + p);
            if (!cell.ok()) {
                std::printf(" %10s", "n/a");
                continue;
            }
            double red = bench::missReductionPct(lru, cell.row);
            std::printf(" %9.1f%%", red);
            grid_acc[p].push_back(red);
            report.metric("grid.miss_reduction_pct." + scen + "." + p,
                          red, "%", obs::Direction::Info);
        }
        const auto &bound = outcome.at(scen + "/MIN");
        if (bound.ok()) {
            double min_red = bench::missReductionPct(lru, bound.row);
            std::printf(" %9.1f%%\n", min_red);
            report.metric("grid.miss_reduction_pct." + scen + ".MIN",
                          min_red, "%", obs::Direction::Info);
        } else {
            std::printf(" %10s\n", "n/a");
        }
        std::fflush(stdout);
    }
    std::printf("%-16s %9s", "Scenario avg", "");
    for (const auto &p : zoo) {
        double avg = amean(grid_acc[p]);
        std::printf(" %9.1f%%", avg);
        report.metric("grid.miss_reduction_pct.avg." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n");

    std::printf("\nShape check (paper): Glider's average reduction "
                "exceeds Hawkeye's, SHiP++'s, and MPPPB's;\nMIN bounds "
                "everything from above.\n");
    bench::reportHarness(report, sweep);
    bench::reportResilience(report, outcome);
    report.write();
    return outcome.degraded() ? 2 : 0;
}
