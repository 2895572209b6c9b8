/**
 * @file
 * The GLIDER_* knob table and its typed accessors. This file holds
 * the tree's only getenv("GLIDER_…") call; everything else goes
 * through env::raw and friends so the registry stays the single
 * source of truth for names, defaults, and docs.
 */

#include "common/env_registry.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace glider {
namespace env {

namespace {

// Same order as enum Knob (alphabetical by name); checked in info().
const KnobInfo kKnobs[] = {
    {Knob::Accesses, "GLIDER_ACCESSES", "u64", "2000000",
     "Per-workload trace length in CPU accesses for bench sweeps."},
    {Knob::BenchDir, "GLIDER_BENCH_DIR", "string", ".",
     "Directory where BENCH_*.json reports are written."},
    {Knob::BenchJson, "GLIDER_BENCH_JSON", "flag", "1",
     "Set to 0 to suppress writing BENCH_*.json reports."},
    {Knob::CellDeadlineMs, "GLIDER_CELL_DEADLINE_MS", "u64", "0",
     "Per-attempt sweep-cell deadline in ms; 0 disables."},
    {Knob::CellRetries, "GLIDER_CELL_RETRIES", "u64", "2",
     "Extra attempts after a sweep cell's first failure."},
    {Knob::Ckpt, "GLIDER_CKPT", "string", "",
     "Sweep checkpoint path; empty disables checkpoint/resume."},
    {Knob::CkptVerify, "GLIDER_CKPT_VERIFY", "u64", "1",
     "Resumed checkpoint rows to recompute and byte-compare."},
    {Knob::ConvEpochs, "GLIDER_CONV_EPOCHS", "u64", "12",
     "fig9's Fig 15 view: convergence-curve training epochs."},
    {Knob::Epochs, "GLIDER_EPOCHS", "u64", "6",
     "Offline LSTM training epochs."},
    {Knob::FaultInject, "GLIDER_FAULT_INJECT", "string", "",
     "Fault-injection plan spec; empty disables."},
    {Knob::LstmDim, "GLIDER_LSTM_DIM", "u64", "32",
     "Offline-model hidden/embedding dimension."},
    {Knob::MaxSeq, "GLIDER_MAX_SEQ", "u64", "60",
     "fig9's Fig 14 view: longest LSTM history swept."},
    {Knob::MicroAccesses, "GLIDER_MICRO_ACCESSES", "u64", "2000000",
     "microbench_simulator accesses per repetition."},
    {Knob::MicroReps, "GLIDER_MICRO_REPS", "u64", "3",
     "microbench_simulator repetitions (best-of)."},
    {Knob::Mixes, "GLIDER_MIXES", "u64", "20",
     "fig13 number of random multicore workload mixes."},
    {Knob::MixAccesses, "GLIDER_MIX_ACCESSES", "u64", "300000",
     "fig13 per-core accesses per mix."},
    {Knob::ScenarioAccesses, "GLIDER_SCENARIO_ACCESSES", "u64", "0",
     "Adversarial-scenario trace length; 0 = GLIDER_ACCESSES."},
    {Knob::ServeClients, "GLIDER_SERVE_CLIENTS", "u64", "4",
     "serve_loadgen concurrent closed-loop clients."},
    {Knob::ServeQueueCap, "GLIDER_SERVE_QUEUE_CAP", "u64", "1024",
     "AdviceEngine per-shard ingest ring capacity."},
    {Knob::ServeRequests, "GLIDER_SERVE_REQUESTS", "u64", "50000",
     "serve_loadgen requests per client."},
    {Knob::ServeShards, "GLIDER_SERVE_SHARDS", "u64", "2",
     "AdviceEngine worker-shard count."},
    {Knob::ServeTenants, "GLIDER_SERVE_TENANTS", "u64", "16",
     "serve_loadgen distinct tenant count."},
    {Knob::ServeTrainPct, "GLIDER_SERVE_TRAIN_PCT", "u64", "30",
     "serve_loadgen percentage of Train operations."},
    {Knob::ServeWindow, "GLIDER_SERVE_WINDOW", "u64", "64",
     "serve_loadgen per-client in-flight window."},
    {Knob::ServeWorkload, "GLIDER_SERVE_WORKLOAD", "string", "mcf",
     "serve_loadgen backing workload trace."},
    {Knob::ServeZipfPct, "GLIDER_SERVE_ZIPF_PCT", "u64", "90",
     "serve_loadgen Zipf tenant-skew exponent x100."},
    {Knob::Simd, "GLIDER_SIMD", "string", "auto",
     "Runtime SIMD backend override: auto|avx2|neon|scalar."},
    {Knob::StreamAccesses, "GLIDER_STREAM_ACCESSES", "u64", "1000000",
     "stream_throughput accesses per repetition."},
    {Knob::StreamReps, "GLIDER_STREAM_REPS", "u64", "2",
     "stream_throughput repetitions (best-of)."},
    {Knob::StreamWorkload, "GLIDER_STREAM_WORKLOAD", "string", "mcf",
     "stream_throughput backing workload trace."},
    {Knob::Threads, "GLIDER_THREADS", "u64", "0",
     "Sweep worker threads; 0 = hardware concurrency."},
    {Knob::TraceDir, "GLIDER_TRACE_DIR", "string", "gtraces",
     "Directory for spilled gtrace files."},
    {Knob::TraceSpill, "GLIDER_TRACE_SPILL", "flag", "0",
     "Spill generated traces to disk and stream replays from them."},
    {Knob::VerifyMinAgreement, "GLIDER_VERIFY_MIN_AGREEMENT", "f64",
     "0.95", "verify_oracles minimum Belady/OPTgen agreement."},
    {Knob::VerifyWorkloads, "GLIDER_VERIFY_WORKLOADS", "string",
     "offline", "verify_oracles suite: offline|fig10|all|CSV names."},
};

constexpr std::size_t kKnobCount = sizeof(kKnobs) / sizeof(kKnobs[0]);

} // namespace

const KnobInfo *
allKnobs(std::size_t *count)
{
    *count = kKnobCount;
    return kKnobs;
}

const KnobInfo &
info(Knob k)
{
    const auto idx = static_cast<std::size_t>(k);
    GLIDER_ASSERT(idx < kKnobCount);
    const KnobInfo &row = kKnobs[idx];
    GLIDER_ASSERT(row.id == k);
    return row;
}

const KnobInfo *
findByName(const std::string &name)
{
    for (const KnobInfo &row : kKnobs)
        if (name == row.name)
            return &row;
    return nullptr;
}

const char *
raw(Knob k)
{
    return std::getenv(info(k).name);
}

bool
isSet(Knob k)
{
    const char *v = raw(k);
    return v != nullptr && *v != '\0';
}

std::string
str(Knob k)
{
    const char *v = raw(k);
    return (v != nullptr && *v != '\0') ? v : info(k).def;
}

std::uint64_t
u64(Knob k)
{
    const char *v = raw(k);
    if (v == nullptr || *v == '\0')
        v = info(k).def;
    return std::strtoull(v, nullptr, 10);
}

double
f64(Knob k)
{
    const char *v = raw(k);
    if (v == nullptr || *v == '\0')
        v = info(k).def;
    return std::strtod(v, nullptr);
}

bool
flag(Knob k)
{
    const char *v = raw(k);
    if (v == nullptr || *v == '\0')
        v = info(k).def;
    return *v != '\0' && *v != '0';
}

} // namespace env
} // namespace glider
