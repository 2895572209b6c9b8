/**
 * @file
 * The single-core sweep behind Figures 10, 11 and 12, printed as
 * three report views over one set of cells:
 *  - Figure 11: LLC miss-rate reduction over LRU for the 33
 *    single-core benchmarks (Hawkeye, MPPPB, SHiP++, Glider) with
 *    suite (SPEC17 / SPEC06 / GAP) and overall averages, plus the MIN
 *    (Belady) bound, as the paper's §5.1 does for single-thread runs;
 *  - Figure 12: speedup over LRU for the same cells, using the
 *    OoO-lite timing model (see cachesim/core_model.hh);
 *  - Figure 10: online predictor accuracy of Hawkeye vs Glider on the
 *    23-benchmark subset, measured against OPTgen's labels on sampled
 *    sets over the whole run, exactly as the hardware would (§5.3).
 * Each view writes its own BENCH_<figure>.json, whose resilience
 * state covers the cells that view reads. Every (workload x policy)
 * cell is an independent simulation on the parallel SweepRunner; the
 * printed rows are byte-identical to a serial run.
 */

#include <algorithm>

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "opt/belady.hh"
#include "opt/llc_stream.hh"

using namespace glider;

namespace {

using Outcome = bench::SweepRunner::SweepOutcome;
using Reads = std::function<bool(const std::string &key)>;
using Columns = std::map<std::string, std::vector<double>>;

/** Queue exact MIN over the (policy-independent) LLC stream. */
void
queueMin(bench::SweepRunner &sweep, const std::string &workload,
         std::uint64_t accesses)
{
    sweep.queueCell(
        workload + "/MIN", [workload, accesses](const CancelToken &cancel) {
            sim::SimOptions opts;
            opts.cancel = &cancel;
            const auto &trace = bench::buildTrace(workload, accesses);
            auto llc_stream = opt::extractLlcStream(trace, opts.hierarchy);
            return sim::runSingleCore(
                trace, std::make_unique<opt::BeladyPolicy>(llc_stream),
                opts);
        });
}

/** Attach harness and resilience state to @p report and write it. */
void
writeReport(obs::BenchReport &report, const bench::SweepRunner &sweep,
            const Outcome &outcome, const Reads &reads)
{
    bench::reportHarness(report, sweep);
    bench::reportResilience(report, outcome, reads);
    report.write();
}

/**
 * Rows of Figure 11 (miss reduction, plus MIN) or 12 (@p speedup):
 * each row's LRU MPKI or IPC and each of @p cols' change over it,
 * recorded under @p metric and collected in @p acc[col] and, outside
 * the scenario @p grid, in @p acc[suite/col].
 */
void
printDeltaRows(obs::BenchReport &report, const Outcome &outcome,
               bool speedup, bool grid, const std::string &metric,
               const std::vector<std::string> &rows,
               const std::vector<std::string> &cols, Columns &acc)
{
    const int label_w = grid ? 16 : 14;
    const int w = grid ? 10 : 9;
    std::printf("%-*s %9s", label_w, grid ? "Scenario" : "Benchmark",
                speedup ? "LRU-IPC" : "LRU-MPKI");
    for (const auto &p : cols)
        std::printf(" %*s", w, p.c_str());
    if (!speedup)
        std::printf(" %*s", w, "MIN");
    std::printf("\n");

    for (const auto &row : rows) {
        const auto &base = outcome.at(row + "/LRU");
        if (!base.ok()) {
            // Without the LRU baseline no change is computable; the
            // quarantined cell is in the report's degraded list.
            std::printf("%-*s %9s (baseline quarantined)\n", label_w,
                        row.c_str(), "n/a");
            continue;
        }
        const sim::SingleCoreResult &lru = base.row;
        std::printf("%-*s %9.*f", label_w, row.c_str(), speedup ? 3 : 2,
                    speedup ? lru.ipc : lru.mpki());
        auto cell = [&](const std::string &p) -> std::optional<double> {
            const auto &c = outcome.at(row + "/" + p);
            if (!c.ok()) {
                std::printf(" %*s", w, "n/a");
                return std::nullopt;
            }
            double d = speedup ? bench::speedupPct(lru, c.row)
                               : bench::missReductionPct(lru, c.row);
            std::printf(" %*.1f%%", w - 1, d);
            report.metric(metric + "." + row + "." + p, d, "%",
                          obs::Direction::Info);
            return d;
        };
        for (const auto &p : cols) {
            if (auto d = cell(p)) {
                acc[p].push_back(*d);
                if (!grid)
                    acc[bench::suiteLabel(row) + ("/" + p)].push_back(*d);
            }
        }
        if (!speedup)
            cell("MIN"); // the bound: printed, never averaged
        std::printf("\n");
        std::fflush(stdout);
    }
}

/** Figure 11 or 12 (@p speedup): the paper table, then the grid. */
void
printDeltaView(bool speedup, const bench::SweepRunner &sweep,
               const Outcome &outcome,
               const std::vector<std::string> &names,
               const std::vector<std::string> &scenarios,
               const Reads &reads)
{
    const std::string metric =
        speedup ? "speedup_pct" : "miss_reduction_pct";
    auto report = bench::makeReport(speedup ? "fig12_speedup"
                                            : "fig11_miss_reduction");
    report.config("scenario_accesses",
                  obs::json::Value(bench::scenarioAccesses()));

    const auto policies = core::paperLineup();
    Columns acc;
    printDeltaRows(report, outcome, speedup, false, metric, names,
                   policies, acc);
    std::printf("\n%-14s", "Suite avg");
    for (const auto &p : policies)
        std::printf(" %12s", p.c_str());
    std::printf("\n");
    for (const std::string suite : {"SPEC17", "SPEC06", "GAP", "ALL"}) {
        std::printf("%-14s", suite.c_str());
        for (const auto &p : policies) {
            double avg = amean(acc[suite == "ALL" ? p : suite + "/" + p]);
            std::printf(" %11.1f%%", avg);
            report.metric(metric + ".avg." + suite + "." + p, avg, "%",
                          obs::Direction::HigherBetter);
        }
        std::printf("\n");
    }

    // ---- Policy zoo x adversarial scenarios -------------------------
    std::printf("\nPolicy zoo x adversarial scenarios (%s over LRU, "
                "%llu accesses)\n",
                speedup ? "speedup" : "miss reduction",
                static_cast<unsigned long long>(
                    bench::scenarioAccesses()));
    auto zoo = core::zooLineup();
    zoo.push_back("Glider"); // the learned bound, as queued
    Columns grid_acc;
    printDeltaRows(report, outcome, speedup, true, "grid." + metric,
                   scenarios, zoo, grid_acc);
    std::printf("%-16s %9s", "Scenario avg", "");
    for (const auto &p : zoo) {
        double avg = amean(grid_acc[p]);
        std::printf(" %9.1f%%", avg);
        report.metric("grid." + metric + ".avg." + p, avg, "%",
                      obs::Direction::HigherBetter);
    }
    std::printf("\n\nShape check (paper): %s\n",
                speedup ? "speedups track the Figure 11 miss reductions "
                          "sub-linearly, and Glider leads on average."
                        : "Glider's average reduction exceeds Hawkeye's, "
                          "SHiP++'s, and MPPPB's;\nMIN bounds everything "
                          "from above.");
    writeReport(report, sweep, outcome, reads);
}

/** Figure 10: Hawkeye vs Glider online accuracy, whole run. */
void
printAccuracyView(const bench::SweepRunner &sweep, const Outcome &outcome,
                  const std::vector<std::string> &names,
                  const Reads &reads)
{
    std::printf("%-14s %10s %10s %8s\n", "Benchmark", "Hawkeye",
                "Glider", "Delta");
    auto report = bench::makeReport("fig10_online_accuracy");
    auto record = [&](const std::string &row, double h, double g,
                      obs::Direction dir) {
        report.metric("online_accuracy_pct." + row + ".Hawkeye", h, "%",
                      dir);
        report.metric("online_accuracy_pct." + row + ".Glider", g, "%",
                      dir);
    };
    std::vector<double> hk, gl;
    std::uint64_t unlabelled = 0;
    for (const auto &name : names) {
        const auto &hc = outcome.at(name + "/Hawkeye");
        const auto &gc = outcome.at(name + "/Glider");
        if (!hc.ok() || !gc.ok()) {
            std::printf("%-14s %10s %10s\n", name.c_str(), "n/a", "n/a");
            continue;
        }
        // No OPTgen-labelled prediction means no accuracy to report,
        // not 0%: the row stays out of both averages.
        if (hc.row.predictor.events == 0 || gc.row.predictor.events == 0) {
            ++unlabelled;
            std::printf("%-14s %10s %10s\n", name.c_str(), "no labels",
                        "no labels");
            continue;
        }
        double h = 100.0 * hc.row.predictor.accuracy();
        double g = 100.0 * gc.row.predictor.accuracy();
        hk.push_back(h);
        gl.push_back(g);
        record(name, h, g, obs::Direction::Info);
        std::printf("%-14s %9.1f%% %9.1f%% %+7.1f\n", name.c_str(), h,
                    g, g - h);
    }
    std::printf("%-14s %9.1f%% %9.1f%% %+7.1f\n", "average", amean(hk),
                amean(gl), amean(gl) - amean(hk));
    record("avg", amean(hk), amean(gl), obs::Direction::HigherBetter);
    report.metric("online_accuracy_pct.rows_without_labels",
                  static_cast<double>(unlabelled), "rows",
                  obs::Direction::Info);
    std::printf("\nShape check (paper): Glider's average online "
                "accuracy exceeds Hawkeye's (88.8%% vs 84.9%% there), "
                "with the\nlargest gains on context-dependent "
                "benchmarks (omnetpp-like).\n");
    writeReport(report, sweep, outcome, reads);
}

} // namespace

int
main()
{
    bench::printBanner(
        "Figure 11: miss-rate reduction over LRU (single core)",
        "averages — Glider 8.9%, SHiP++ 7.5%, Hawkeye 7.1%, MPPPB 6.5%");

    const auto names = workloads::figure11Workloads();
    const auto fig10_names = workloads::figure10Workloads();
    const auto scenarios = workloads::scenarioWorkloads();
    // Whether @p key ("workload/policy") names a workload in @p v.
    auto in = [](const std::vector<std::string> &v,
                 const std::string &key) {
        return std::find(v.begin(), v.end(),
                         key.substr(0, key.find('/')))
            != v.end();
    };

    // Per workload: LRU, the lineup, then MIN; Figure 10's two extra
    // workloads get only Hawkeye and Glider. A failing cell is
    // quarantined (n/a, and the reports reading it are degraded); with
    // GLIDER_CKPT set, an interrupted sweep resumes where it stopped.
    bench::SweepRunner sweep;
    for (const auto &name : names) {
        sweep.queue(name, "LRU");
        for (const auto &p : core::paperLineup())
            sweep.queue(name, p);
        queueMin(sweep, name, bench::traceAccesses());
    }
    for (const auto &name : fig10_names) {
        if (!in(names, name)) {
            sweep.queue(name, "Hawkeye");
            sweep.queue(name, "Glider");
        }
    }

    // Policy zoo x adversarial scenarios: appended to the same sweep
    // (one checkpoint file, shared worker pool); cells run at the
    // scenario trace length (GLIDER_SCENARIO_ACCESSES).
    for (const auto &scen : scenarios) {
        sweep.queue(scen, "LRU", bench::scenarioAccesses());
        for (const auto &p : core::zooLineup())
            sweep.queue(scen, p, bench::scenarioAccesses());
        sweep.queue(scen, "Glider", bench::scenarioAccesses());
        queueMin(sweep, scen, bench::scenarioAccesses());
    }

    auto sweep_opts = bench::sweepOptions("fig11_miss_reduction");
    sweep_opts.config["scenario_accesses"] =
        obs::json::Value(bench::scenarioAccesses());
    const auto outcome = sweep.runChecked(sweep_opts);

    const Reads fig11_reads = [&](const std::string &key) {
        return in(names, key) || in(scenarios, key);
    };
    printDeltaView(false, sweep, outcome, names, scenarios, fig11_reads);

    std::printf("\n");
    bench::printBanner(
        "Figure 12: speedup over LRU (single core)",
        "averages — Glider 8.1%, MPPPB 7.6%, SHiP++ 7.1%, Hawkeye 5.9%");
    printDeltaView(true, sweep, outcome, names, scenarios,
                   [&](const std::string &key) {
                       return fig11_reads(key) && !key.ends_with("/MIN");
                   });

    std::printf("\n");
    bench::printBanner(
        "Figure 10: online predictor accuracy (Hawkeye vs Glider)",
        "averages — Glider 88.8% vs Hawkeye 84.9%");
    printAccuracyView(sweep, outcome, fig10_names,
                      [&](const std::string &key) {
                          return in(fig10_names, key)
                              && (key.ends_with("/Hawkeye")
                                  || key.ends_with("/Glider"));
                      });
    return outcome.degraded() ? 2 : 0;
}
