/**
 * @file
 * Generator for the committed golden traces under tests/data.
 *
 * The traces are deterministic functions of fixed seeds and are
 * deliberately self-contained here — independent of the workload
 * kernels — so kernel evolution cannot silently invalidate the
 * golden regression counts in test_golden.cc. Each one streams
 * through GtraceWriter to <output-dir>/<name>.gtrace (default chunk
 * size), so the output is byte-for-byte reproducible; the
 * golden_tracegen_* ctest entries check exactly that. Rerun into
 * tests/data only when the golden suite itself is being regenerated
 * on purpose:
 *
 *   ./build/tests/golden_tracegen tests/data
 *
 * then refresh the expected counts table in tests/test_golden.cc
 * (the test prints actual counts on mismatch).
 */

#include <cstdio>
#include <string>

#include "common/rng.hh"
#include "traces/gtrace.hh"

namespace glider {
namespace {

/**
 * Mixed-phase workload: a hot set under pointer-chase-like reuse,
 * periodic loop sweeps, and a cold streaming tail — enough structure
 * that LRU, Hawkeye, and Glider all make materially different
 * decisions on it.
 */
void
goldenMix(traces::TraceSink &t)
{
    Rng rng(0xA11CE);
    std::uint64_t cold = 1 << 20;
    for (int i = 0; i < 24000; ++i) {
        std::uint64_t block;
        std::uint64_t pc;
        int phase = (i / 3000) % 2;
        if (phase == 0 && rng.chance(0.7)) {
            block = rng.below(48); // hot set
            pc = 0x400000 + (block % 6) * 4;
        } else if (rng.chance(0.5)) {
            block = 4096 + (static_cast<std::uint64_t>(i) % 1200);
            pc = 0x410000; // loop sweep
        } else {
            block = cold++; // no-reuse stream
            pc = 0x420000;
        }
        t.push(pc, block * 64, rng.chance(0.25),
               /*core=*/0);
    }
}

/** Scanning workload: repeated sweeps with random interjections. */
void
goldenScan(traces::TraceSink &t)
{
    Rng rng(0x5CA9);
    std::uint64_t pos = 0;
    for (int i = 0; i < 24000; ++i) {
        std::uint64_t block;
        std::uint64_t pc;
        if (rng.chance(0.85)) {
            block = pos++ % 3000; // capacity-exceeding sweep
            pc = 0x500000 + (block % 4) * 4;
        } else {
            block = 8192 + rng.below(96); // random hot pokes
            pc = 0x510000;
        }
        t.push(pc, block * 64, false, 0);
    }
}

} // namespace
} // namespace glider

int
main(int argc, char **argv)
{
    std::string dir = argc > 1 ? argv[1] : "tests/data";
    const struct
    {
        const char *name;
        void (*generate)(glider::traces::TraceSink &);
    } goldens[] = {{"golden_mix", glider::goldenMix},
                   {"golden_scan", glider::goldenScan}};
    for (const auto &golden : goldens) {
        std::string path = dir + "/" + golden.name + ".gtrace";
        glider::traces::GtraceWriter writer;
        bool ok = writer.open(path, golden.name);
        if (ok) {
            glider::traces::GtraceSink sink(writer);
            golden.generate(sink);
            ok = writer.finish();
        }
        if (!ok) {
            std::fprintf(stderr, "failed to write %s\n", path.c_str());
            return 1;
        }
        std::printf("wrote %s (%llu accesses)\n", path.c_str(),
                    static_cast<unsigned long long>(writer.pushed()));
    }
    return 0;
}
