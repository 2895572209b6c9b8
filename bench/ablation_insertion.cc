/**
 * @file
 * Ablation (§4.4): Glider's three-level insertion priorities. The
 * paper maps the ISVM decision sum to RRPV 0 (confident friendly,
 * sum >= 60), RRPV 2 (low-confidence friendly), and RRPV 7 (averse).
 * This bench compares the confidence threshold of 60 against
 * degenerate settings, one Glider{confidence=C} sweep cell each:
 * 0 (binary friendly/averse at RRPV 0/7) and a very large threshold
 * (everything friendly lands at RRPV 2).
 */

#include "bench_common.hh"

using namespace glider;

int
main()
{
    bench::printBanner(
        "Ablation: Glider insertion confidence threshold (RRPV 0/2/7)",
        "the paper's 60-threshold three-level scheme; degenerate "
        "variants bracket it");

    const auto subset = std::vector<std::string>{"omnetpp", "mcf",
                                                 "libquantum", "pr"};
    const int thresholds[] = {60, 0, 1 << 20};
    std::vector<std::string> specs;
    for (int t : thresholds)
        specs.push_back(core::canonicalPolicySpec(
            "Glider{confidence=" + std::to_string(t) + "}"));
    const auto outcome =
        bench::runSpecSweep("ablation_insertion", subset, specs);

    std::printf("%-12s %10s %10s %10s  (LLC miss rate)\n", "Program",
                "thresh=60", "binary(0)", "all-low");
    auto report = bench::makeReport("ablation_insertion");
    for (const auto &name : subset) {
        std::printf("%-12s", name.c_str());
        for (std::size_t i = 0; i < specs.size(); ++i) {
            const auto &cell = outcome.at(name + "/" + specs[i]);
            if (!cell.ok()) {
                std::printf(" %10s", "n/a");
                continue;
            }
            std::printf(" %10.4f", cell.row.llcMissRate());
            report.metric("miss_rate." + name + ".thresh"
                              + std::to_string(thresholds[i]),
                          cell.row.llcMissRate(), "",
                          obs::Direction::Info);
        }
        std::printf("\n");
    }
    bench::reportResilience(report, outcome);
    report.write();
    return outcome.degraded() ? 2 : 0;
}
