/**
 * @file
 * gtrace streaming-pipeline throughput bench: how fast the on-disk
 * trace format encodes, decodes, and replays relative to the
 * in-memory path it must be able to replace at billion-access scale.
 *
 * Four gated metrics (BENCH_stream_throughput.json, compared by the
 * CI perf gate via bench_diff):
 *
 *   stream.encode_accesses_per_sec  generator records -> gtrace file
 *   stream.decode_accesses_per_sec  chunk decode back into records
 *   stream.bytes_per_access         on-disk density (deterministic
 *                                   for a pinned workload + length,
 *                                   so its tolerance is tight)
 *   stream.replay_ratio             streamed / in-memory simulator
 *                                   throughput; the tolerance encodes
 *                                   an absolute floor, so streaming
 *                                   may never fall below half the
 *                                   in-memory replay rate. Both
 *                                   sides run the private L1/L2
 *                                   filter pass: the in-memory side
 *                                   replays a fresh trace copy per
 *                                   rep, so no rep reuses a memo
 *
 * The warm in-memory rate, replaying the trace's memoised filter
 * codes, is reported as stream.memo_replay_accesses_per_sec (info).
 *
 * The bench also hard-gates correctness: the streamed replay must
 * produce bit-identical simulation results to the in-memory replay,
 * or the run exits nonzero regardless of throughput.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_common.hh"
#include "cachesim/access_source.hh"
#include "cachesim/private_filter.hh"
#include "traces/gtrace.hh"

using namespace glider;

namespace {

double
elapsed(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now()
                                         - t0)
        .count();
}

/**
 * Best accesses/second over @p reps runs of @p body; @p prepare runs
 * untimed before each one.
 */
template <typename P, typename F>
double
bestRate(std::uint64_t accesses, int reps, P prepare, F body)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        prepare();
        auto t0 = std::chrono::steady_clock::now();
        body();
        double secs = elapsed(t0);
        double rate =
            secs > 0.0 ? static_cast<double>(accesses) / secs : 0.0;
        if (rate > best)
            best = rate;
    }
    return best;
}

template <typename F>
double
bestRate(std::uint64_t accesses, int reps, F body)
{
    return bestRate(accesses, reps, [] {}, body);
}

bool
sameResult(const sim::SingleCoreResult &a, const sim::SingleCoreResult &b)
{
    return a.llc.accesses == b.llc.accesses && a.llc.hits == b.llc.hits
        && a.llc.misses == b.llc.misses
        && a.llc.evictions == b.llc.evictions
        && a.llc.bypasses == b.llc.bypasses
        && a.instructions == b.instructions && a.cycles == b.cycles
        && a.ipc == b.ipc;
}

} // namespace

int
main()
{
    std::uint64_t accesses =
        env::u64(env::Knob::StreamAccesses);
    int reps = static_cast<int>(env::u64(env::Knob::StreamReps));
    std::string workload = env::str(env::Knob::StreamWorkload);

    std::printf("stream_throughput: gtrace pipeline, %s x %llu "
                "accesses, best of %d\n",
                workload.c_str(),
                static_cast<unsigned long long>(accesses), reps);

    const traces::Trace &trace =
        workloads::cachedTrace(workload, accesses);
    std::string path = "/tmp/glider_stream_bench."
        + std::to_string(static_cast<unsigned long long>(getpid()))
        + ".gtrace";

    // Encode: in-memory records -> chunked, checksummed gtrace file.
    double encode_rate = bestRate(trace.size(), reps, [&] {
        traces::GtraceWriter writer;
        if (!writer.open(path, trace.name()))
            GLIDER_FATAL("cannot create " + path);
        for (const auto &rec : trace)
            writer.push(rec);
        if (!writer.finish())
            GLIDER_FATAL("write error on " + path);
    });

    traces::StreamingTrace st;
    std::string error;
    if (!st.open(path, &error))
        GLIDER_FATAL("cannot reopen " + path + ": " + error);
    double bytes_per_access = trace.size() > 0
        ? static_cast<double>(st.fileBytes())
            / static_cast<double>(trace.size())
        : 0.0;

    // Decode: checksum-verified chunk decode back into records.
    std::vector<traces::AccessRecord> buf(st.maxChunkRecords());
    std::uint64_t decoded_sum = 0;
    double decode_rate = bestRate(trace.size(), reps, [&] {
        for (std::size_t c = 0; c < st.chunkCount(); ++c) {
            std::size_t n = st.readChunk(c, buf.data(), buf.size());
            decoded_sum += buf[n - 1].address;
        }
    });

    // Replay: the full simulator loop, in-memory vs streamed, same
    // policy and options. Rates are measured per rep; results are
    // hard-gated bit-identical. Both sides do the same work: the
    // in-memory rep replays a fresh copy of the trace (copied outside
    // the timed region), so it runs the private L1/L2 filter pass
    // just as the streamed rep does per chunk. The warm rate, which
    // replays the trace's memoised filter codes, is reported apart.
    sim::SimOptions opts;
    sim::SingleCoreResult mem_res;
    traces::Trace cold;
    double mem_rate = bestRate(
        trace.size(), reps, [&] { cold = trace; },
        [&] {
            mem_res = sim::runSingleCore(cold, core::makePolicy("LRU"),
                                         opts);
        });
    double warm_rate = bestRate(
        trace.size(), reps,
        [&] { sim::PrivateFilter::of(trace, opts.hierarchy); },
        [&] { sim::runSingleCore(trace, core::makePolicy("LRU"), opts); });
    sim::SingleCoreResult stream_res;
    double stream_rate = bestRate(trace.size(), reps, [&] {
        traces::StreamingTrace rep_st;
        if (!rep_st.open(path, &error))
            GLIDER_FATAL("cannot reopen " + path + ": " + error);
        sim::StreamingSource source(std::move(rep_st));
        stream_res = sim::runSingleCore(
            source, core::makePolicy("LRU"), opts);
    });
    double replay_ratio =
        mem_rate > 0.0 ? stream_rate / mem_rate : 0.0;

    std::printf("  encode  %10.2f M accesses/s\n", encode_rate / 1e6);
    std::printf("  decode  %10.2f M accesses/s  (checksum %llu)\n",
                decode_rate / 1e6,
                static_cast<unsigned long long>(decoded_sum & 0xFF));
    std::printf("  on disk %10.3f bytes/access  (%.2f MiB)\n",
                bytes_per_access,
                static_cast<double>(st.fileBytes()) / (1024.0 * 1024.0));
    std::printf("  replay  %10.2f M/s in-memory, %.2f M/s streamed "
                "(ratio %.3fx, floor 0.5x)\n",
                mem_rate / 1e6, stream_rate / 1e6, replay_ratio);
    std::printf("  replay  %10.2f M/s in-memory with memoised filter "
                "codes\n",
                warm_rate / 1e6);

    bool identical = sameResult(mem_res, stream_res);
    if (!identical) {
        std::fprintf(stderr,
                     "stream_throughput: FAILED — streamed replay "
                     "diverged from in-memory (hits %llu vs %llu, "
                     "misses %llu vs %llu)\n",
                     static_cast<unsigned long long>(stream_res.llc.hits),
                     static_cast<unsigned long long>(mem_res.llc.hits),
                     static_cast<unsigned long long>(
                         stream_res.llc.misses),
                     static_cast<unsigned long long>(mem_res.llc.misses));
    }

    auto report = obs::BenchReport("stream_throughput");
    report.config("stream_accesses", obs::json::Value(accesses));
    report.config("workload", obs::json::Value(workload));
    report.config("reps",
                  obs::json::Value(static_cast<std::int64_t>(reps)));
    report.config("chunk_records",
                  obs::json::Value(static_cast<std::uint64_t>(
                      traces::gtrace::kDefaultChunkRecords)));

    // Absolute codec rates are machine-dependent: gated only against
    // collapse. Density is deterministic for a pinned (workload,
    // length), so it gets a tight band. The replay ratio compares two
    // measurements from the same run and host; its tolerance encodes
    // the absolute 0.5x floor: baseline * (1 - tol) == 0.5.
    constexpr double kAbsTolerance = 3.0;
    constexpr double kFloor = 0.5;
    report.metric("stream.encode_accesses_per_sec", encode_rate,
                  "accesses/s", obs::Direction::HigherBetter,
                  kAbsTolerance);
    report.metric("stream.decode_accesses_per_sec", decode_rate,
                  "accesses/s", obs::Direction::HigherBetter,
                  kAbsTolerance);
    report.metric("stream.bytes_per_access", bytes_per_access,
                  "bytes", obs::Direction::LowerBetter, 0.10);
    double ratio_tolerance = replay_ratio > kFloor
        ? (replay_ratio - kFloor) / replay_ratio
        : 0.0;
    report.metric("stream.replay_ratio", replay_ratio, "x",
                  obs::Direction::HigherBetter, ratio_tolerance);
    report.metric("stream.memo_replay_accesses_per_sec", warm_rate,
                  "accesses/s", obs::Direction::Info);
    report.metric("stream.file_mb",
                  static_cast<double>(st.fileBytes())
                      / (1024.0 * 1024.0),
                  "MiB", obs::Direction::Info);
    report.metric("stream.replay_identical", identical ? 1.0 : 0.0,
                  "", obs::Direction::Info);
    report.write();

    std::remove(path.c_str());
    return identical ? 0 : 1;
}
