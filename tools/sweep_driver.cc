/**
 * @file
 * Multi-process sweep driver: shards a (workload x policy) sweep's
 * cells across worker processes that coordinate exclusively through
 * the glider-sweep-ckpt checkpoint schema.
 *
 * Topology
 *   coordinator          owns the merged checkpoint <ckpt>
 *   worker shard i       a re-exec of this binary (--worker-shard i)
 *                        writing its cells to <ckpt>.shard<i>.json,
 *                        stdout/stderr to <ckpt>.shard<i>.log
 *
 * Protocol (per round)
 *   1. The coordinator computes the missing cells — the full key list
 *      (insertion order) minus the merged checkpoint's rows — and
 *      both sides assign missing[j] to worker j % N, so the
 *      assignment needs no IPC beyond the checkpoint file itself.
 *   2. Workers run their cells under the existing resilience layer
 *      (retries, quarantine, per-cell persistence), so a worker that
 *      is SIGKILLed mid-cell loses only that cell.
 *   3. The coordinator waits for every worker (a crashed or killed
 *      worker is just an exit status — fault containment), then folds
 *      each shard checkpoint's rows into the merged checkpoint.
 *   4. Cells still missing (a killed worker's tail, a straggler that
 *      hit its deadline) are re-dispatched across all workers in the
 *      next round, up to --max-rounds.
 *
 * Byte-identity: the merged checkpoint serializes cells sorted by key
 * and rows exclude wall-clock fields (the glider-sweep-ckpt
 * contract), so the file — and the report printed from it — is
 * byte-identical to a single-process (--workers 1) run, regardless of
 * worker count, kills, or resume history. All driver chatter is
 * prefixed "[" so report rows diff cleanly (grep -v '^\[').
 *
 * Exit codes: 0 complete, 3 incomplete after --max-rounds, 2 bad
 * usage. Workers: 0 clean, 1 degraded (quarantined cells).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench/bench_common.hh"

using namespace glider;

namespace {

struct Options
{
    int workers = 1;
    int max_rounds = 2;
    int inject_worker = -1; //!< worker that keeps GLIDER_FAULT_INJECT
    int worker_shard = -1;  //!< >= 0: run as worker shard
    std::string ckpt;
    std::vector<std::string> workloads;
    std::vector<std::string> policies;
};

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > pos)
            out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

std::string
joinCsv(const std::vector<std::string> &v)
{
    std::string out;
    for (const auto &s : v) {
        if (!out.empty())
            out += ",";
        out += s;
    }
    return out;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sweep_driver --ckpt PATH [--workers N] [--max-rounds R]\n"
        "                    [--workloads a,b,...] [--policies p,q,...]\n"
        "                    [--inject-worker K]\n"
        "Multi-process (workload x policy) sweep coordinating through\n"
        "the glider-sweep-ckpt checkpoint. Defaults: the Figure 11\n"
        "workloads under LRU + the paper lineup. A policy is a name or\n"
        "a spec with ';'-separated keys, e.g. 'Glider{pchr=3;threshold=30}'\n"
        "(keys: pchr, threshold, confidence; see core::makePolicy).\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v;
        if (arg == "--workers" && (v = next()))
            opt.workers = std::atoi(v);
        else if (arg == "--max-rounds" && (v = next()))
            opt.max_rounds = std::atoi(v);
        else if (arg == "--inject-worker" && (v = next()))
            opt.inject_worker = std::atoi(v);
        else if (arg == "--worker-shard" && (v = next()))
            opt.worker_shard = std::atoi(v);
        else if (arg == "--ckpt" && (v = next()))
            opt.ckpt = v;
        else if (arg == "--workloads" && (v = next()))
            opt.workloads = splitCsv(v);
        else if (arg == "--policies" && (v = next()))
            opt.policies = splitCsv(v);
        else
            return false;
    }
    if (opt.ckpt.empty() || opt.workers < 1 || opt.max_rounds < 1)
        return false;
    if (opt.workloads.empty())
        opt.workloads = workloads::figure11Workloads();
    if (opt.policies.empty()) {
        opt.policies.push_back("LRU");
        for (const auto &p : core::paperLineup())
            opt.policies.push_back(p);
    }
    // Cell keys use the canonical spec; a bad spec is fatal up front.
    for (auto &p : opt.policies)
        p = core::canonicalPolicySpec(p);
    return true;
}

/** Full cell key list, insertion order == report order. */
std::vector<std::string>
cellKeys(const Options &opt)
{
    std::vector<std::string> keys;
    keys.reserve(opt.workloads.size() * opt.policies.size());
    for (const auto &w : opt.workloads) {
        for (const auto &p : opt.policies)
            keys.push_back(w + "/" + p);
    }
    return keys;
}

obs::json::Value
ckptConfig()
{
    // Only knobs the rows depend on. Deliberately excludes the trace
    // spill mode: streamed and in-memory runs are bit-identical, so
    // their checkpoints must compare byte-identical too.
    auto config = obs::json::Value::object();
    config["accesses"] = obs::json::Value(bench::traceAccesses());
    return config;
}

std::string
shardCkptPath(const std::string &base, int shard)
{
    return base + ".shard" + std::to_string(shard) + ".json";
}

/** @p key's row in @p ckpt, or nullptr when absent or undecodable:
 *  a damaged row counts as missing, so its cell reruns. */
const obs::json::Value *
validRow(const resilience::SweepCheckpoint &ckpt, const std::string &key)
{
    const obs::json::Value *row = ckpt.find(key);
    try {
        if (row)
            resilience::decodeResult(*row);
        return row;
    } catch (const std::exception &) {
        return nullptr;
    }
}

/** Keys with no valid row in @p merged, in key-list order. */
std::vector<std::string>
missingKeys(const std::vector<std::string> &keys,
            const resilience::SweepCheckpoint &merged)
{
    std::vector<std::string> missing;
    for (const auto &k : keys) {
        if (!validRow(merged, k))
            missing.push_back(k);
    }
    return missing;
}

/**
 * Worker body: run this shard's slice of the missing cells under the
 * resilience layer, persisting each completed row to the shard
 * checkpoint. The slice is derived exactly as the coordinator derives
 * it (missing-key order, round-robin), so no key list is shipped.
 */
int
runWorker(const Options &opt)
{
    auto keys = cellKeys(opt);
    resilience::SweepCheckpoint merged(opt.ckpt, "sweep_driver",
                                       ckptConfig());
    merged.load();
    auto missing = missingKeys(keys, merged);

    bench::SweepRunner sweep;
    std::size_t mine = 0;
    for (std::size_t j = 0; j < missing.size(); ++j) {
        if (static_cast<int>(j % static_cast<std::size_t>(opt.workers))
            != opt.worker_shard)
            continue;
        ++mine;
        std::size_t slash = missing[j].find('/');
        std::string workload = missing[j].substr(0, slash);
        std::string policy = missing[j].substr(slash + 1);
        sweep.queue(workload, policy);
    }
    std::printf("[worker %d] %zu of %zu missing cells\n",
                opt.worker_shard, mine, missing.size());
    if (mine == 0)
        return 0;

    bench::SweepRunner::SweepOptions sopts;
    sopts.sweep_name = "sweep_driver";
    sopts.checkpoint_path = shardCkptPath(opt.ckpt, opt.worker_shard);
    sopts.config = ckptConfig();
    auto outcome = sweep.runChecked(sopts);
    std::printf("[worker %d] done, degraded=%d\n", opt.worker_shard,
                outcome.degraded() ? 1 : 0);
    return outcome.degraded() ? 1 : 0;
}

/** Fork+exec one worker shard, stdout/stderr to its log file. */
pid_t
spawnWorker(const Options &opt, int shard, int round)
{
    pid_t pid = ::fork();
    if (pid != 0)
        return pid;
    // Child. Route output to the shard log so coordinator report rows
    // stay byte-comparable, then re-exec ourselves in worker mode.
    std::string log = opt.ckpt + ".shard" + std::to_string(shard)
        + ".log";
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
    }
    // Fault injection targets exactly one worker in round 0; every
    // other worker — and every later round, so killed cells can
    // complete on re-dispatch — runs clean.
    if (opt.inject_worker >= 0
        && (shard != opt.inject_worker || round > 0))
        ::unsetenv("GLIDER_FAULT_INJECT");

    std::string shard_s = std::to_string(shard);
    std::string workers_s = std::to_string(opt.workers);
    std::string workloads_s = joinCsv(opt.workloads);
    std::string policies_s = joinCsv(opt.policies);
    std::vector<char *> argv;
    auto arg = [&](const char *s) {
        argv.push_back(const_cast<char *>(s));
    };
    arg("sweep_driver");
    arg("--worker-shard"), arg(shard_s.c_str());
    arg("--workers"), arg(workers_s.c_str());
    arg("--ckpt"), arg(opt.ckpt.c_str());
    arg("--workloads"), arg(workloads_s.c_str());
    arg("--policies"), arg(policies_s.c_str());
    argv.push_back(nullptr);
    ::execv("/proc/self/exe", argv.data());
    std::perror("execv");
    ::_exit(127);
}

/** Fold every shard checkpoint's rows for @p wanted into @p merged. */
void
mergeShards(const Options &opt,
            const std::vector<std::string> &wanted,
            resilience::SweepCheckpoint &merged)
{
    for (int s = 0; s < opt.workers; ++s) {
        resilience::SweepCheckpoint shard(shardCkptPath(opt.ckpt, s),
                                          "sweep_driver", ckptConfig());
        if (shard.load() == 0)
            continue;
        for (const auto &k : wanted) {
            const obs::json::Value *row = validRow(shard, k);
            if (row && !validRow(merged, k))
                merged.record(k, *row);
        }
    }
}

/** Print one report row per cell, byte-identical across topologies. */
void
printReport(const std::vector<std::string> &keys,
            const resilience::SweepCheckpoint &merged)
{
    for (const auto &k : keys) {
        const obs::json::Value *saved = validRow(merged, k);
        if (!saved)
            continue;
        sim::SingleCoreResult row = resilience::decodeResult(*saved);
        std::printf("%s accesses=%llu hits=%llu misses=%llu "
                    "evictions=%llu ipc=%.6f\n",
                    k.c_str(),
                    static_cast<unsigned long long>(row.llc.accesses),
                    static_cast<unsigned long long>(row.llc.hits),
                    static_cast<unsigned long long>(row.llc.misses),
                    static_cast<unsigned long long>(row.llc.evictions),
                    row.ipc);
    }
}

int
runCoordinator(const Options &opt)
{
    auto keys = cellKeys(opt);
    std::printf("[driver] %zu cells (%zu workloads x %zu policies), "
                "%d worker(s), ckpt %s\n",
                keys.size(), opt.workloads.size(), opt.policies.size(),
                opt.workers, opt.ckpt.c_str());

    // Generate-once/stream-many: with spill enabled, materialize every
    // workload's gtrace up front so workers only ever read. Do this
    // before any fork (the generator is the expensive step and the
    // coordinator is still single-threaded here).
    if (workloads::traceSpillEnabled()) {
        for (const auto &w : opt.workloads) {
            std::string path =
                workloads::ensureSpilledTrace(w, bench::traceAccesses());
            std::printf("[driver] spilled %s -> %s\n", w.c_str(),
                        path.c_str());
        }
    }

    resilience::SweepCheckpoint merged(opt.ckpt, "sweep_driver",
                                       ckptConfig());
    std::size_t resumed = merged.load();
    if (resumed > 0)
        std::printf("[driver] resumed %zu merged cells\n", resumed);

    for (int round = 0; round < opt.max_rounds; ++round) {
        auto missing = missingKeys(keys, merged);
        if (missing.empty())
            break;
        std::printf("[driver] round %d: %zu missing cells\n", round,
                    missing.size());
        std::fflush(stdout);

        std::vector<pid_t> pids;
        for (int s = 0; s < opt.workers; ++s)
            pids.push_back(spawnWorker(opt, s, round));
        for (int s = 0; s < opt.workers; ++s) {
            int status = 0;
            ::waitpid(pids[s], &status, 0);
            if (WIFSIGNALED(status)) {
                std::printf("[driver] worker %d killed by signal %d "
                            "(contained; cells re-dispatch)\n",
                            s, WTERMSIG(status));
            } else if (WEXITSTATUS(status) != 0) {
                std::printf("[driver] worker %d exited %d\n", s,
                            WEXITSTATUS(status));
            }
        }
        mergeShards(opt, missing, merged);
    }

    auto still_missing = missingKeys(keys, merged);
    printReport(keys, merged);
    if (!still_missing.empty()) {
        std::printf("[driver] INCOMPLETE: %zu cells missing after %d "
                    "round(s) (first: %s)\n",
                    still_missing.size(), opt.max_rounds,
                    still_missing.front().c_str());
        return 3;
    }
    std::printf("[driver] complete: %zu cells in %s\n", keys.size(),
                merged.path().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage();
    if (opt.worker_shard >= 0)
        return runWorker(opt);
    return runCoordinator(opt);
}
