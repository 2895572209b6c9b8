/**
 * @file
 * Shared infrastructure for the experiment harness: environment
 * knobs, Table 1 banner, policy/workload runners, and row printers.
 *
 * Every bench binary regenerates one table or figure of the paper.
 * Absolute numbers differ from the paper (synthetic workloads, a
 * simplified timing model — see DESIGN.md), but each harness prints
 * the same rows/series so the paper's *shape* can be checked:
 * orderings, approximate factors, crossover locations.
 */

#ifndef GLIDER_BENCH_BENCH_COMMON_HH
#define GLIDER_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cachesim/simulator.hh"
#include "common/cancellation.hh"
#include "common/env_registry.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "core/policy_factory.hh"
#include "obs/bench_report.hh"
#include "offline/dataset.hh"
#include "offline/lstm_model.hh"
#include "offline/simple_models.hh"
#include "resilience/checkpoint.hh"
#include "resilience/fault_inject.hh"
#include "resilience/recovery.hh"
#include "workloads/registry.hh"

namespace glider {
namespace bench {

/** Per-workload trace length (CPU accesses). GLIDER_ACCESSES. */
inline std::uint64_t
traceAccesses()
{
    return env::u64(env::Knob::Accesses);
}

/**
 * Worker count for parallel sweeps. GLIDER_THREADS; defaults to
 * std::thread::hardware_concurrency().
 */
inline unsigned
sweepThreads()
{
    std::uint64_t v = env::u64(env::Knob::Threads);
    if (v > 0)
        return static_cast<unsigned>(v);
    return ThreadPool::defaultThreads();
}

/** Offline-model hidden/embedding size. GLIDER_LSTM_DIM. */
inline std::size_t
lstmDim()
{
    return static_cast<std::size_t>(env::u64(env::Knob::LstmDim));
}

/** Offline training epochs. GLIDER_EPOCHS. */
inline int
lstmEpochs()
{
    return static_cast<int>(env::u64(env::Knob::Epochs));
}

/** Print the experiment banner with the Table 1 configuration. */
inline void
printBanner(const char *experiment, const char *paper_result)
{
    sim::HierarchyConfig cfg;
    std::printf("==========================================================="
                "=====================\n");
    std::printf("%s\n", experiment);
    std::printf("Paper reference: %s\n", paper_result);
    std::printf("Config (Table 1): L1 %lluKB/%u-way, L2 %lluKB/%u-way, "
                "LLC %lluMB/%u-way, DRAM %u cycles\n",
                static_cast<unsigned long long>(cfg.l1.size_bytes / 1024),
                cfg.l1.ways,
                static_cast<unsigned long long>(cfg.l2.size_bytes / 1024),
                cfg.l2.ways,
                static_cast<unsigned long long>(cfg.llc.size_bytes
                                                / (1024 * 1024)),
                cfg.llc.ways, cfg.dram_latency);
    std::printf("Workloads: synthetic imitations (see DESIGN.md); "
                "trace length %llu accesses\n",
                static_cast<unsigned long long>(traceAccesses()));
    std::printf("==========================================================="
                "=====================\n");
}

/**
 * The trace for one workload at @p accesses (default: the bench
 * length), generated once per process (traces::TraceCache behind
 * workloads::cachedTrace) and shared read-only by every policy and
 * harness thread.
 */
inline const traces::Trace &
buildTrace(const std::string &name,
           std::uint64_t accesses = traceAccesses())
{
    return workloads::cachedTrace(name, accesses);
}

/**
 * Adversarial-scenario trace length (CPU accesses) for the policy-zoo
 * grid. GLIDER_SCENARIO_ACCESSES; 0 (the default) inherits
 * GLIDER_ACCESSES so the grid scales with the main sweep.
 */
inline std::uint64_t
scenarioAccesses()
{
    std::uint64_t v = env::u64(env::Knob::ScenarioAccesses);
    return v > 0 ? v : traceAccesses();
}

/**
 * The access stream for one workload at @p accesses, behind the
 * generate-once/stream-many switch: with $GLIDER_TRACE_SPILL set the
 * trace is spilled to (or reused from) an on-disk gtrace and streamed
 * chunk by chunk with O(1) resident memory; otherwise it wraps the
 * in-memory cached trace. Both deliver identical records, so results
 * are bit-identical either way.
 */
inline std::unique_ptr<sim::AccessSource>
buildSource(const std::string &name,
            std::uint64_t accesses = traceAccesses())
{
    if (workloads::traceSpillEnabled()) {
        std::string path = workloads::ensureSpilledTrace(name, accesses);
        traces::StreamingTrace st;
        std::string error;
        if (!st.open(path, &error))
            GLIDER_FATAL("cannot stream " + path + ": " + error);
        return std::make_unique<sim::StreamingSource>(std::move(st));
    }
    return std::make_unique<sim::TraceSource>(buildTrace(name, accesses));
}

/** Percentage change helpers. */
inline double
missReductionPct(const sim::SingleCoreResult &base,
                 const sim::SingleCoreResult &x)
{
    if (base.llc.misses == 0)
        return 0.0;
    return 100.0
        * (static_cast<double>(base.llc.misses)
           - static_cast<double>(x.llc.misses))
        / static_cast<double>(base.llc.misses);
}

inline double
speedupPct(const sim::SingleCoreResult &base,
           const sim::SingleCoreResult &x)
{
    return base.ipc > 0.0 ? 100.0 * (x.ipc / base.ipc - 1.0) : 0.0;
}

/** Figure 11/12 suite column of @p workload: SPEC17, SPEC06 or GAP. */
inline const char *
suiteLabel(const std::string &workload)
{
    switch (workloads::suiteOf(workload)) {
      case workloads::Suite::Spec2006:
        return "SPEC06";
      case workloads::Suite::Spec2017:
        return "SPEC17";
      default:
        return "GAP";
    }
}

/** LstmConfig scaled for bench runtime (dims via env). */
inline offline::LstmConfig
benchLstmConfig(std::size_t seq_n = 15)
{
    offline::LstmConfig cfg;
    cfg.embedding = lstmDim();
    cfg.hidden = lstmDim();
    cfg.seq_n = seq_n;
    cfg.max_train_slices = 1500;
    cfg.max_test_slices = 500;
    return cfg;
}

/** Cap an offline dataset's length for bench runtime. */
inline void
capDataset(offline::OfflineDataset &ds, std::size_t max_accesses)
{
    if (ds.accesses.size() > max_accesses) {
        ds.accesses.resize(max_accesses);
        ds.train_end = 3 * max_accesses / 4;
    }
}

/**
 * One cell's row of the offline sweep (fig9_offline_accuracy): only the
 * view-ready numbers its views read, never raw attention records; a
 * field no view of the cell reads stays empty. Every field is a list of
 * doubles, so the heatmap's floats and the PCs (all below 2^53)
 * round-trip bit-exactly through the checkpoint.
 */
struct OfflineRow
{
    std::vector<double> epochs;   //!< training epochs before each read
    std::vector<double> accuracy; //!< test accuracy (%) after epochs[i]
    std::vector<double> shuffled; //!< Fig 6: {accuracy (%), shuffled}
    std::vector<double> cdf;      //!< Fig 4: attention-weight CDF points
    std::vector<double> captured; //!< Fig 5: {attention records captured}
    /** Fig 5 (b): per target row, its weights on the last source
     *  offsets, rows concatenated. */
    std::vector<double> heatmap;
    std::vector<double> offset_means; //!< Fig 5 (a): mean weight per offset
    /** Table 4: per target {PC, anchor PC, accuracy (%), 1 when the
     *  anchor is the IFG caller}, targets concatenated. */
    std::vector<double> targets;
    std::vector<double> callers; //!< Table 4: ground-truth caller PCs
};

/** OfflineRow's fields under their encoded names. */
inline constexpr std::pair<const char *, std::vector<double> OfflineRow::*>
    kOfflineRowFields[] = {
        {"epochs", &OfflineRow::epochs},
        {"accuracy", &OfflineRow::accuracy},
        {"shuffled", &OfflineRow::shuffled},
        {"cdf", &OfflineRow::cdf},
        {"captured", &OfflineRow::captured},
        {"heatmap", &OfflineRow::heatmap},
        {"offset_means", &OfflineRow::offset_means},
        {"targets", &OfflineRow::targets},
        {"callers", &OfflineRow::callers}};

/** Encode an offline row: one array of numbers per field. */
inline obs::json::Value
encodeOfflineRow(const OfflineRow &row)
{
    obs::json::Value v = obs::json::Value::object();
    for (const auto &[name, field] : kOfflineRowFields) {
        obs::json::Value xs = obs::json::Value::array();
        for (double x : row.*field)
            xs.push(obs::json::Value(x));
        v[name] = std::move(xs);
    }
    return v;
}

/** Inverse of encodeOfflineRow.
 *  @throws std::runtime_error on a missing or mistyped field. */
inline OfflineRow
decodeOfflineRow(const obs::json::Value &v)
{
    OfflineRow row;
    for (const auto &[name, field] : kOfflineRowFields) {
        const obs::json::Value &xs = resilience::rowField(v, name);
        for (std::size_t i = 0; i < xs.size(); ++i)
            (row.*field).push_back(xs.at(i).number());
    }
    if (row.epochs.size() != row.accuracy.size())
        throw std::runtime_error("epochs and accuracy differ in length");
    return row;
}

/** Knobs for BasicSweepRunner::runChecked(). */
struct SweepOptions
{
    /** Stamped into the checkpoint; a file stamped with another
     *  sweep's name is discarded. */
    std::string sweep_name = "sweep";
    /** Checkpoint file; empty disables checkpoint/resume. */
    std::string checkpoint_path;
    /** Fingerprint of knobs the rows depend on; a checkpoint
     *  recorded under a different fingerprint is discarded. */
    obs::json::Value config = obs::json::Value::object();
    resilience::RecoveryOptions recovery =
        resilience::RecoveryOptions::fromEnv();
    /** Resumed rows to recompute and compare against the
     *  checkpoint (determinism check). GLIDER_CKPT_VERIFY. */
    std::size_t verify_resumed = static_cast<std::size_t>(
        env::u64(env::Knob::CkptVerify));
    /** Fault plan; nullptr reads $GLIDER_FAULT_INJECT. */
    const resilience::FaultPlan *faults = nullptr;
};

/**
 * Parallel experiment runner: fans independent keyed cells across
 * sweepThreads() workers and collects their rows into a
 * deterministic, insertion-ordered table. Rows of type @p Row are
 * checkpointed through their one JSON pair @p encode / @p decode;
 * decode throws std::runtime_error on a row it cannot restore, and
 * the runner then recomputes that cell.
 *
 * Every cell is isolated — a simulation cell has its own policy
 * instance (fixed constructor seeds), hierarchy, and core model over a
 * shared read-only cached trace — so the result table is identical
 * whatever the worker count, and output printed from it is
 * byte-identical to a serial harness's.
 *
 * Cells are queued under a unique key (queue()/queueCell()) and run by
 * runChecked() under the resilience layer: per-cell fault isolation
 * (a throwing cell is quarantined, siblings complete), bounded retry
 * with exponential backoff, per-cell soft deadlines via cooperative
 * cancellation, and checkpoint/resume through
 * resilience::SweepCheckpoint.
 */
template <typename Row = sim::SingleCoreResult,
          obs::json::Value (*encode)(const Row &) =
              resilience::encodeResult,
          Row (*decode)(const obs::json::Value &) =
              resilience::decodeResult>
class BasicSweepRunner
{
  public:
    using SweepOptions = bench::SweepOptions;

    /** A keyed cell that polls a cancellation token. */
    using CancellableCell = std::function<Row(const CancelToken &)>;

    explicit BasicSweepRunner(unsigned threads = sweepThreads())
        : pool_(threads)
    {
    }

    /** Number of worker threads. */
    unsigned threads() const { return pool_.size(); }

    /** One cell's outcome under runChecked(). */
    struct CellOutcome
    {
        std::string key;
        Row row; //!< default-constructed when quarantined
        resilience::CellStatus status = resilience::CellStatus::Ok;
        std::string error; //!< last failure, quarantined cells only
        int attempts = 0;  //!< attempts made (0 for resumed cells)

        bool ok() const
        {
            return status != resilience::CellStatus::Quarantined;
        }
    };

    /** All cell outcomes of one runChecked(), in insertion order. */
    struct SweepOutcome
    {
        std::vector<CellOutcome> cells;
        std::size_t resumed = 0; //!< cells replayed from checkpoint

        /** True when any cell was quarantined (partial results). */
        bool
        degraded() const
        {
            for (const auto &c : cells) {
                if (!c.ok())
                    return true;
            }
            return false;
        }

        /** The cell queued under @p key; throws std::out_of_range
         *  when no cell has that key. */
        const CellOutcome &
        at(const std::string &key) const
        {
            for (const auto &c : cells) {
                if (c.key == key)
                    return c;
            }
            throw std::out_of_range("no sweep cell keyed " + key);
        }
    };

    /** Queue policy spec @p policy (see core::makePolicy) on
     *  @p workload at @p accesses for runChecked(), keyed
     *  "workload/policy". Simulation rows only. */
    void
    queue(const std::string &workload, const std::string &policy,
          std::uint64_t accesses = traceAccesses())
    {
        queueCell(workload + "/" + policy,
                  [workload, policy, accesses](const CancelToken &cancel) {
                      sim::SimOptions opts;
                      opts.cancel = &cancel;
                      return sim::runSingleCore(
                          *buildSource(workload, accesses),
                          core::makePolicy(policy), opts);
                  });
    }

    /** Queue an arbitrary keyed cell for runChecked().
     *  @throws std::invalid_argument if @p key is already queued. */
    void
    queueCell(std::string key, CancellableCell cell)
    {
        for (const auto &qc : queued_) {
            if (qc.key == key)
                throw std::invalid_argument("sweep cell " + key
                                            + " queued twice");
        }
        queued_.push_back({std::move(key), std::move(cell)});
    }

    /** Cells queued for runChecked() and not yet collected. */
    std::size_t queuedCells() const { return queued_.size(); }

    /**
     * Run every queued keyed cell under the resilience layer and
     * return the outcomes in insertion order.
     *
     * Cells whose checkpointed row decodes are not recomputed (except
     * the first verify_resumed of them, which are recomputed and
     * compared — a mismatch throws resilience::CheckpointMismatch); a
     * checkpointed row that does not decode is recomputed with a
     * warning. Fresh cells run under resilience::runCell: exceptions
     * (including verify::InvariantViolation) are caught at the cell
     * boundary, retried up to the recovery budget, and recorded as
     * Quarantined on exhaustion — sibling cells always complete.
     * Completed rows are appended to the checkpoint's journal as they
     * finish (worker-side), so even a SIGKILL mid-sweep loses only
     * in-flight cells; the sorted file is written once, at the end.
     */
    SweepOutcome
    runChecked(const SweepOptions &opts)
    {
        auto start = std::chrono::steady_clock::now();
        resilience::FaultPlan env_plan;
        const resilience::FaultPlan *faults = opts.faults;
        if (!faults) {
            env_plan = resilience::FaultPlan::fromEnv();
            faults = &env_plan;
        }
        std::unique_ptr<resilience::SweepCheckpoint> ckpt;
        if (!opts.checkpoint_path.empty()) {
            ckpt = std::make_unique<resilience::SweepCheckpoint>(
                opts.checkpoint_path, opts.sweep_name, opts.config);
            ckpt->load();
        }

        std::vector<std::future<CellOutcome>> futures;
        futures.reserve(queued_.size());
        std::size_t verify_budget = opts.verify_resumed;
        for (auto &qc : queued_) {
            const obs::json::Value *saved =
                ckpt ? ckpt->find(qc.key) : nullptr;
            bool verify = false;
            if (saved && verify_budget > 0) {
                verify = true;
                --verify_budget;
            }
            futures.push_back(pool_.submit(
                [key = qc.key, cell = qc.cell,
                 saved_row = saved ? *saved : obs::json::Value(),
                 resumed = saved != nullptr, verify,
                 ckpt_ptr = ckpt.get(), ropts = opts.recovery, faults,
                 this]() -> CellOutcome {
                    return runOneCell(key, cell, saved_row, resumed,
                                      verify, ckpt_ptr, ropts, faults);
                }));
        }
        queued_.clear();

        SweepOutcome outcome;
        outcome.cells.reserve(futures.size());
        for (auto &f : futures)
            outcome.cells.push_back(f.get());
        if (ckpt)
            ckpt->finish(); // the journal becomes the sorted file
        wall_seconds_ += std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
        for (const auto &c : outcome.cells) {
            switch (c.status) {
              case resilience::CellStatus::Ok:
                ++cells_run_;
                // Only simulation rows carry replay telemetry.
                if constexpr (requires { c.row.accesses_simulated; }) {
                    accesses_simulated_ += c.row.accesses_simulated;
                    cell_seconds_ += c.row.sim_seconds;
                }
                break;
              case resilience::CellStatus::Resumed:
                ++outcome.resumed;
                ++resumed_;
                break;
              case resilience::CellStatus::Quarantined:
                ++quarantined_;
                std::printf("[sweep] quarantined %s after %d "
                            "attempt(s): %s\n",
                            c.key.c_str(), c.attempts,
                            c.error.c_str());
                break;
            }
        }
        if (outcome.resumed > 0) {
            std::printf("[sweep-ckpt] resumed %zu cells from %s\n",
                        outcome.resumed, ckpt->path().c_str());
        }
        return outcome;
    }

    /** Wall time spent inside runChecked(), summed over calls. */
    double wallSeconds() const { return wall_seconds_; }

    /** Trace accesses replayed across all collected cells. */
    std::uint64_t accessesSimulated() const
    {
        return accesses_simulated_;
    }

    /**
     * Export harness throughput telemetry — wall time, aggregate
     * accesses/sec, mean per-cell rate, and the pool's queue stats —
     * into @p registry under @p prefix.
     */
    void
    exportMetrics(obs::Registry &registry,
                  const std::string &prefix) const
    {
        registry.setCounter(prefix + ".cells", cells_run_);
        registry.setCounter(prefix + ".accesses_simulated",
                            accesses_simulated_);
        registry.setGauge(prefix + ".wall_seconds", wall_seconds_);
        registry.setGauge(prefix + ".accesses_per_sec",
                          wall_seconds_ > 0.0
                              ? static_cast<double>(accesses_simulated_)
                                  / wall_seconds_
                              : 0.0);
        registry.setGauge(prefix + ".cell_accesses_per_sec",
                          cell_seconds_ > 0.0
                              ? static_cast<double>(accesses_simulated_)
                                  / cell_seconds_
                              : 0.0);
        registry.setGauge(prefix + ".threads", pool_.size());
        registry.setCounter(prefix + ".pool.submitted",
                            pool_.submitted());
        registry.setCounter(prefix + ".pool.completed",
                            pool_.completed());
        registry.setCounter(prefix + ".pool.peak_queue_depth",
                            pool_.peakQueueDepth());
        registry.setCounter(prefix + ".quarantined", quarantined_);
        registry.setCounter(prefix + ".resumed", resumed_);
    }

  private:
    struct KeyedCell
    {
        std::string key;
        CancellableCell cell;
    };

    /** Worker-side body of one runChecked() cell. */
    CellOutcome
    runOneCell(const std::string &key, const CancellableCell &cell,
               const obs::json::Value &saved_row, bool resumed,
               bool verify, resilience::SweepCheckpoint *ckpt,
               const resilience::RecoveryOptions &ropts,
               const resilience::FaultPlan *faults)
    {
        CellOutcome out;
        out.key = key;
        if (resumed) {
            std::optional<Row> row;
            try {
                row = decode(saved_row);
            } catch (const std::exception &e) {
                GLIDER_WARN("checkpoint " + ckpt->path() + ": cell " + key
                            + " does not decode, recomputing ("
                            + e.what() + ")");
            }
            if (row) {
                out.status = resilience::CellStatus::Resumed;
                out.row = std::move(*row);
                if (verify) {
                    // Determinism check: the resumed row must match
                    // the checkpointed row when recomputed.
                    auto redo = resilience::runCell<Row>(
                        key, cell, ropts, faults, &pool_.token());
                    if (redo.status != resilience::CellStatus::Ok)
                        throw resilience::CheckpointMismatch(
                            "resumed cell " + key
                            + " failed recomputation: " + redo.error);
                    if (encode(*redo.value) != saved_row)
                        throw resilience::CheckpointMismatch(
                            "resumed cell " + key
                            + " recomputed to a different row "
                              "(nondeterministic cell or stale "
                              "checkpoint)");
                }
                return out;
            }
        }
        auto res = resilience::runCell<Row>(key, cell, ropts, faults,
                                            &pool_.token());
        out.attempts = res.attempts;
        out.error = res.error;
        out.status = res.status;
        if (res.status == resilience::CellStatus::Ok) {
            out.row = std::move(*res.value);
            if (ckpt)
                ckpt->record(key, encode(out.row));
        }
        return out;
    }

    ThreadPool pool_;
    std::vector<KeyedCell> queued_;
    double wall_seconds_ = 0.0;
    double cell_seconds_ = 0.0; //!< sum of per-cell replay-loop time
    std::uint64_t cells_run_ = 0;
    std::uint64_t accesses_simulated_ = 0;
    std::uint64_t quarantined_ = 0;
    std::uint64_t resumed_ = 0;
};

/** The simulation-row runner fig11, the ablations and sweep_driver use. */
using SweepRunner = BasicSweepRunner<>;

/**
 * BenchReport preloaded with the shared harness configuration (trace
 * length, worker count, offline-model knobs), so artifacts record the
 * environment the numbers were produced under.
 */
inline obs::BenchReport
makeReport(const std::string &name)
{
    obs::BenchReport report(name);
    report.config("accesses",
                  obs::json::Value(traceAccesses()));
    report.config("threads",
                  obs::json::Value(static_cast<std::uint64_t>(
                      sweepThreads())));
    report.config("lstm_dim",
                  obs::json::Value(static_cast<std::uint64_t>(
                      lstmDim())));
    report.config("epochs",
                  obs::json::Value(static_cast<std::int64_t>(
                      lstmEpochs())));
    return report;
}

/**
 * Attach a sweep's harness telemetry to @p report: throughput as an
 * info metric plus the full registry export under "extra".harness.
 */
template <typename Sweep>
void
reportHarness(obs::BenchReport &report, const Sweep &sweep)
{
    obs::Registry reg;
    sweep.exportMetrics(reg, "harness");
    report.attachRegistry("harness", reg);
    if (sweep.wallSeconds() > 0.0 && sweep.accessesSimulated() > 0) {
        report.metric("harness.accesses_per_sec",
                      static_cast<double>(sweep.accessesSimulated())
                          / sweep.wallSeconds(),
                      "accesses/s", obs::Direction::Info);
    }
}

/**
 * SweepOptions preloaded for a figure-style sweep: checkpoint path
 * from $GLIDER_CKPT (unset disables checkpointing) and a config
 * fingerprint carrying the trace length plus the value of each further
 * knob in @p knobs (keyed by its variable name), so a checkpoint
 * recorded under one setting of a knob the rows depend on is never
 * replayed into a sweep under another.
 */
inline SweepOptions
sweepOptions(const std::string &sweep_name,
             std::initializer_list<env::Knob> knobs = {})
{
    SweepOptions opts;
    opts.sweep_name = sweep_name;
    if (env::isSet(env::Knob::Ckpt))
        opts.checkpoint_path = env::str(env::Knob::Ckpt);
    opts.config["accesses"] = obs::json::Value(traceAccesses());
    for (env::Knob k : knobs)
        opts.config[env::info(k).name] = obs::json::Value(env::u64(k));
    return opts;
}

/**
 * Run each policy spec of @p specs on each of @p workloads as one
 * checked sweep named @p sweep_name, cells keyed "workload/spec".
 */
inline SweepRunner::SweepOutcome
runSpecSweep(const std::string &sweep_name,
             const std::vector<std::string> &workloads,
             const std::vector<std::string> &specs)
{
    SweepRunner sweep;
    for (const auto &workload : workloads) {
        for (const auto &spec : specs)
            sweep.queue(workload, spec);
    }
    return sweep.runChecked(sweepOptions(sweep_name));
}

/**
 * Attach the resilience state of the cells @p report reads to it:
 * the degraded flag and one quarantined_cells entry per failed cell.
 * When several reports view one sweep, @p reads selects each one's
 * cells by key; by default a report reads every cell.
 */
template <typename SweepOutcome>
void
reportResilience(obs::BenchReport &report, const SweepOutcome &outcome,
                 const std::function<bool(const std::string &)> &reads =
                     nullptr)
{
    for (const auto &c : outcome.cells) {
        if (!c.ok() && (!reads || reads(c.key)))
            report.quarantine(c.key, c.error, c.attempts); // degrades
    }
}

/**
 * Map @p fn over @p items on a worker pool; results come back in item
 * order, so printing them serially reproduces the serial harness's
 * output byte for byte. Unlike BasicSweepRunner it neither quarantines
 * nor checkpoints: a throwing item propagates to the caller, which is
 * what verify_oracles' all-or-nothing gate needs.
 */
template <typename Item, typename Fn>
auto
parallelMap(const std::vector<Item> &items, Fn fn,
            unsigned threads = sweepThreads())
    -> std::vector<decltype(fn(items.front()))>
{
    using R = decltype(fn(items.front()));
    ThreadPool pool(threads);
    std::vector<std::future<R>> futures;
    futures.reserve(items.size());
    for (const auto &item : items)
        futures.push_back(pool.submit([&fn, &item] { return fn(item); }));
    std::vector<R> out;
    out.reserve(futures.size());
    for (auto &f : futures)
        out.push_back(f.get());
    return out;
}

} // namespace bench
} // namespace glider

#endif // GLIDER_BENCH_BENCH_COMMON_HH
