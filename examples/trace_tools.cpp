/**
 * @file
 * Trace tooling example: generate any registry workload, write its
 * trace to disk as gtrace, reload it, print Table 2-style
 * statistics for both the CPU-level and LLC-level streams, and show
 * the Belady-optimal hit rate — the full data path a replacement
 * study needs, end to end.
 *
 * Usage: ./build/examples/trace_tools [workload] [accesses] [file]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "opt/belady.hh"
#include "opt/llc_stream.hh"
#include "traces/gtrace.hh"
#include "traces/trace_stats.hh"
#include "workloads/registry.hh"

int
main(int argc, char **argv)
{
    using namespace glider;

    std::string workload = argc > 1 ? argv[1] : "mcf";
    std::uint64_t accesses =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 500'000;
    std::string path =
        argc > 3 ? argv[3] : "/tmp/glider_" + workload + ".gtrace";

    traces::Trace trace(workload);
    workloads::makeWorkload(workload, accesses)->run(trace);

    traces::GtraceWriter writer;
    bool written = writer.open(path, trace.name());
    for (std::size_t i = 0; written && i < trace.size(); ++i)
        writer.push(trace[i]);
    if (!written || !writer.finish()) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    traces::StreamingTrace stream;
    std::string error;
    if (!stream.open(path, &error)) {
        std::fprintf(stderr, "cannot reopen %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }
    traces::Trace loaded(stream.name());
    std::vector<traces::AccessRecord> buf(stream.maxChunkRecords());
    for (std::size_t c = 0; c < stream.chunkCount(); ++c) {
        std::size_t n = stream.readChunk(c, buf.data(), buf.size());
        for (std::size_t i = 0; i < n; ++i)
            loaded.push(buf[i]);
    }
    if (loaded.records() != trace.records()) {
        std::fprintf(stderr, "round-trip failed\n");
        return 1;
    }
    std::printf("wrote + reloaded %zu accesses via %s (%.2f B/access)"
                "\n\n",
                loaded.size(), path.c_str(),
                static_cast<double>(stream.fileBytes())
                    / static_cast<double>(loaded.size()));

    std::printf("%-14s %10s %8s %10s %10s %10s\n", "stream",
                "#Accesses", "#PCs", "#Addrs", "Acc/PC", "Acc/Addr");
    auto cpu_stats = traces::computeStats(loaded);
    cpu_stats.name = "cpu";
    std::printf("%s\n", traces::formatStatsRow(cpu_stats).c_str());

    sim::HierarchyConfig cfg;
    auto llc = opt::extractLlcStream(loaded, cfg);
    auto llc_stats = traces::computeStats(llc);
    llc_stats.name = "llc";
    std::printf("%s\n", traces::formatStatsRow(llc_stats).c_str());

    auto min = opt::simulateBelady(llc, cfg.llc.sets(), cfg.llc.ways);
    std::printf("\nBelady MIN LLC hit rate: %.3f "
                "(%llu hits / %zu accesses)\n",
                min.hitRate(),
                static_cast<unsigned long long>(min.hit_count),
                llc.size());
    std::size_t friendly = 0;
    for (auto l : min.labels)
        friendly += l;
    std::printf("oracle labels: %.1f%% cache-friendly\n",
                100.0 * static_cast<double>(friendly)
                    / static_cast<double>(llc.size()));
    return 0;
}
