/**
 * @file
 * Figure 13: weighted speedup over LRU for 4-core mixes sharing an
 * 8MB LLC (§5.1 methodology: weighted IPC = sum of per-benchmark
 * IPC_shared / IPC_single, normalised to LRU's weighted IPC; traces
 * rewind until every core retires its quota).
 *
 * The paper plots 100 mixes; GLIDER_MIXES (default 20) controls how
 * many random mixes this harness draws. The output is the sorted
 * per-mix curve plus averages, matching the figure's presentation.
 *
 * Every run is one keyed cell of one checked sweep: "mix<m>/<policy>"
 * per mix, and "solo/<workload>/<policy>" (IPC in isolation on the
 * same hierarchy) per workload drawn, shared by every mix drawing it.
 * A mix is left out of every curve if any cell it reads is
 * quarantined.
 */

#include <algorithm>
#include <array>

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "common/rng.hh"

using namespace glider;

namespace {

/** Checkpoint row of one run: its per-core shared-mode IPC. */
obs::json::Value
encodeIpc(const std::vector<double> &ipc)
{
    obs::json::Value v = obs::json::Value::array();
    for (double x : ipc)
        v.push(x);
    return v;
}

std::vector<double>
decodeIpc(const obs::json::Value &v)
{
    std::vector<double> ipc;
    for (std::size_t c = 0; c < v.size(); ++c)
        ipc.push_back(v.at(c).number());
    if (ipc.empty())
        throw std::runtime_error("row has no per-core IPC");
    return ipc;
}

} // namespace

int
main()
{
    bench::printBanner(
        "Figure 13: weighted speedup over LRU, 4-core shared LLC",
        "averages — Glider 14.7%, Hawkeye 13.6%, MPPPB 13.2%, "
        "SHiP++ 11.4%");

    const auto policies = core::paperLineup();
    std::vector<std::string> runs = {"LRU"}; // the baseline, then lineup
    runs.insert(runs.end(), policies.begin(), policies.end());
    const std::size_t mixes = env::u64(env::Knob::Mixes);
    const std::uint64_t per_core =
        env::u64(env::Knob::MixAccesses);

    sim::SimOptions opts;
    opts.hierarchy = sim::HierarchyConfig::forCores(4);
    opts.warmup_fraction = 0.1;

    bench::BasicSweepRunner<std::vector<double>, encodeIpc, decodeIpc>
        sweep;
    auto queueRun = [&](const std::string &key,
                        std::vector<std::string> wls,
                        const std::string &pol) {
        sweep.queueCell(key, [wls, pol, per_core,
                              opts](const CancelToken &token) {
            std::vector<const traces::Trace *> traces;
            for (const auto &wl : wls)
                traces.push_back(&workloads::cachedTrace(
                    wl, bench::traceAccesses() / 4));
            sim::SimOptions run_opts = opts;
            run_opts.cancel = &token;
            return sim::runMultiCore(traces, core::makePolicy(pol),
                                     per_core, run_opts)
                .ipc_shared;
        });
    };
    auto mixKey = [](std::size_t m, const std::string &pol) {
        return "mix" + std::to_string(m) + "/" + pol;
    };
    auto soloKey = [](const std::string &wl, const std::string &pol) {
        return "solo/" + wl + "/" + pol;
    };
    auto names = workloads::figure11Workloads();
    Rng rng(2026);
    std::vector<std::array<std::string, 4>> mix(mixes);
    std::vector<std::string> drawn;
    for (std::size_t m = 0; m < mixes; ++m) {
        for (auto &wl : mix[m]) {
            wl = names[rng.below(names.size())];
            if (std::find(drawn.begin(), drawn.end(), wl) != drawn.end())
                continue;
            drawn.push_back(wl);
            for (const auto &pol : runs)
                queueRun(soloKey(wl, pol), {wl}, pol);
        }
        for (const auto &pol : runs)
            queueRun(mixKey(m, pol), {mix[m].begin(), mix[m].end()}, pol);
    }
    const auto outcome = sweep.runChecked(
        bench::sweepOptions("fig13_multicore", {env::Knob::MixAccesses}));

    // Quarantined mixes are excluded from the curves, so the sorted
    // rows count completed mixes, not drawn mixes.
    std::vector<std::vector<double>> ws_by_policy(policies.size());
    std::size_t completed = 0;
    for (std::size_t m = 0; m < mixes; ++m) {
        std::printf("mix %2zu: %s %s %s %s\n", m, mix[m][0].c_str(),
                    mix[m][1].c_str(), mix[m][2].c_str(),
                    mix[m][3].c_str());
        std::string failed;
        for (const auto &pol : runs) {
            if (!outcome.at(mixKey(m, pol)).ok())
                failed = mixKey(m, pol);
            for (const auto &wl : mix[m]) {
                if (!outcome.at(soloKey(wl, pol)).ok())
                    failed = soloKey(wl, pol);
            }
        }
        if (!failed.empty()) {
            std::printf("mix %2zu: left out, cell %s quarantined\n", m,
                        failed.c_str());
            continue;
        }
        auto weighted = [&](const std::string &pol) {
            const auto &shared = outcome.at(mixKey(m, pol)).row;
            double ws = 0.0;
            for (int c = 0; c < 4; ++c)
                ws += shared[c]
                      / outcome.at(soloKey(mix[m][c], pol)).row[0];
            return ws;
        };
        double ws_lru = weighted("LRU");
        for (std::size_t p = 0; p < policies.size(); ++p)
            ws_by_policy[p].push_back(
                100.0 * (weighted(policies[p]) / ws_lru - 1.0));
        ++completed;
    }

    std::printf("\nSorted weighted-speedup-over-LRU curves (%%):\n");
    std::printf("%-6s", "mix#");
    for (const auto &p : policies)
        std::printf(" %9s", p.c_str());
    std::printf("\n");
    auto sorted = ws_by_policy;
    for (auto &v : sorted)
        std::sort(v.begin(), v.end());
    for (std::size_t m = 0; m < completed; ++m) {
        std::printf("%-6zu", m);
        for (const auto &v : sorted)
            std::printf(" %8.1f%%", v[m]);
        std::printf("\n");
    }
    std::printf("%-6s", "avg");
    auto report = bench::makeReport("fig13_multicore");
    report.config("mixes",
                  obs::json::Value(static_cast<std::uint64_t>(mixes)));
    report.config("mix_accesses", obs::json::Value(per_core));
    for (std::size_t p = 0; p < policies.size(); ++p) {
        double avg = amean(ws_by_policy[p]);
        std::printf(" %8.1f%%", avg);
        report.metric("weighted_speedup_pct.avg." + policies[p], avg,
                      "%", obs::Direction::HigherBetter);
        for (std::size_t m = 0; m < completed; ++m) {
            report.metric("weighted_speedup_pct.mix"
                              + std::to_string(m) + "." + policies[p],
                          ws_by_policy[p][m], "%",
                          obs::Direction::Info);
        }
    }
    std::printf("\n");

    std::printf("\nShape check (paper): Glider's average weighted "
                "speedup leads Hawkeye/MPPPB, with SHiP++ last among "
                "the four.\n");
    bench::reportResilience(report, outcome);
    bench::reportHarness(report, sweep);
    report.write();
    return report.degraded() ? 2 : 0;
}
