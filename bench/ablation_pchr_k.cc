/**
 * @file
 * Ablation: the PCHR size k in the *online* Glider policy (the
 * offline analogue is Figure 14's ISVM curve). k = 5 is the paper's
 * choice; this sweeps k = 1..8 end to end through the replacement
 * policy, one Glider{pchr=k} sweep cell per workload and k, and
 * reports the measured-phase LLC miss rate and the whole-run online
 * accuracy.
 */

#include "bench_common.hh"

using namespace glider;

int
main()
{
    bench::printBanner(
        "Ablation: PCHR size k in online Glider",
        "k = 5 captures an effective ~30-PC history (paper §4.3); "
        "accuracy should rise to a plateau near k = 5");

    const auto subset = std::vector<std::string>{"omnetpp", "sphinx3",
                                                 "gcc"};
    std::vector<std::string> specs;
    for (std::size_t k = 1; k <= 8; ++k)
        specs.push_back(core::canonicalPolicySpec(
            "Glider{pchr=" + std::to_string(k) + "}"));
    const auto outcome =
        bench::runSpecSweep("ablation_pchr_k", subset, specs);

    std::printf("%-10s", "k");
    for (std::size_t k = 1; k <= 8; ++k)
        std::printf(" %11zu", k);
    std::printf("\n");
    auto report = bench::makeReport("ablation_pchr_k");
    for (const auto &name : subset) {
        std::printf("%-10s", name.c_str());
        for (std::size_t k = 1; k <= 8; ++k) {
            const auto &cell = outcome.at(name + "/" + specs[k - 1]);
            if (!cell.ok()) {
                std::printf("  %11s", "n/a");
                continue;
            }
            double miss_rate = cell.row.llcMissRate();
            double accuracy = cell.row.predictor.accuracy();
            std::printf("  %5.1f%%/%3.0f%%", 100.0 * miss_rate,
                        100.0 * accuracy);
            std::string key = name + ".k" + std::to_string(k);
            report.metric("miss_rate." + key, miss_rate, "",
                          obs::Direction::Info);
            report.metric("online_accuracy." + key, accuracy, "",
                          obs::Direction::Info);
        }
        std::printf("\n");
    }
    std::printf("(cells: LLC miss rate / online accuracy)\n");
    bench::reportResilience(report, outcome);
    report.write();
    return outcome.degraded() ? 2 : 0;
}
