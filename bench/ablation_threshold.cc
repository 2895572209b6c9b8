/**
 * @file
 * Ablation (§4.4): Glider's dynamic training-threshold selection vs
 * each fixed threshold from the candidate set {0, 30, 100, 300,
 * 3000}, one Glider{threshold=T} sweep cell each. The paper notes the
 * adaptive scheme "provides some benefit for single-core workloads"
 * while multi-core performance is largely threshold-insensitive.
 */

#include "bench_common.hh"

using namespace glider;

int
main()
{
    bench::printBanner(
        "Ablation: Glider adaptive vs fixed training thresholds",
        "adaptive selection roughly matches the best fixed threshold "
        "per workload");

    const auto subset = std::vector<std::string>{"omnetpp", "mcf",
                                                 "sphinx3", "bfs"};
    const int fixed[] = {0, 30, 100, 300, 3000};
    // The adaptive default first, then each fixed threshold.
    std::vector<std::string> specs{"Glider"}, suffixes{"adaptive"};
    for (int t : fixed) {
        specs.push_back("Glider{threshold=" + std::to_string(t) + "}");
        suffixes.push_back("fixed" + std::to_string(t));
    }
    const auto outcome =
        bench::runSpecSweep("ablation_threshold", subset, specs);

    std::printf("%-10s %9s", "Program", "adaptive");
    for (int t : fixed)
        std::printf("   fix=%-5d", t);
    std::printf("  (LLC miss rate)\n");
    auto report = bench::makeReport("ablation_threshold");
    for (const auto &name : subset) {
        std::printf("%-10s", name.c_str());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            // The adaptive column is one character narrower.
            std::printf(i == 0 ? " " : "   ");
            const auto &cell = outcome.at(name + "/" + specs[i]);
            if (!cell.ok()) {
                std::printf("%8s", "n/a");
                continue;
            }
            std::printf("%8.4f", cell.row.llcMissRate());
            report.metric("miss_rate." + name + "." + suffixes[i],
                          cell.row.llcMissRate(), "",
                          obs::Direction::Info);
        }
        std::printf("\n");
    }
    bench::reportResilience(report, outcome);
    report.write();
    return outcome.degraded() ? 2 : 0;
}
