/**
 * @file
 * The long-lived, multi-tenant advice engine (ROADMAP: the online
 * serving path for the Glider predictor).
 *
 * Topology: N worker shards on a ThreadPool, each owning one
 * lock-free MPSC ingest ring and one TenantServer. A tenant id is
 * hash-sharded, so every operation of a tenant lands on the same
 * shard and its train/predict stream executes single-threaded and
 * deterministic; different tenants serve concurrently. Workers drain
 * their ring in batches, group the drained requests by tenant
 * (preserving per-tenant arrival order) and push each group through
 * TenantServer — Advise operations ride predictMany's SIMD path.
 *
 * Backpressure: submit() returns false when the target shard's ring
 * is full (or the engine is stopping); nothing is queued then.
 * Idle workers park on a per-shard futex word that submit() clears
 * and notifies; they spin first (for at most a few microseconds) only
 * while recent requests have been arriving closer together than that.
 *
 * Shutdown is graceful and cooperative: stop() flips the submit gate
 * and each worker exits only once every accepted request of its
 * shard has been answered, so in-flight batches always complete.
 * Snapshot/restore of all trained tenant state uses the
 * glider-serve-ckpt JSON schema (obs::json, atomic tmp+rename) — see
 * snapshot.cc.
 */

#ifndef GLIDER_SERVE_ADVICE_ENGINE_HH
#define GLIDER_SERVE_ADVICE_ENGINE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "core/glider_predictor.hh"
#include "mpsc_queue.hh"
#include "tenant_server.hh"

namespace glider {
namespace serve {

/** Engine sizing and behaviour knobs. */
struct EngineConfig
{
    unsigned shards = 2;             //!< worker shards (>= 1)
    std::size_t queue_capacity = 1024; //!< per-shard ring slots
    std::size_t max_batch = 256;     //!< max requests drained per spin
    core::GliderConfig predictor;    //!< per-tenant predictor shape
    //! Optional fault plan fired per tenant run (tests/soak).
    const resilience::FaultPlan *faults = nullptr;
    //! Attempt budget + per-attempt deadline for faulted runs.
    resilience::RecoveryOptions recovery;

    /**
     * Env-tuned sizing: GLIDER_SERVE_SHARDS (default 2) and
     * GLIDER_SERVE_QUEUE_CAP (default 1024).
     */
    static EngineConfig fromEnv();
};

/** Sharded multi-tenant advice engine. */
class AdviceEngine
{
  public:
    explicit AdviceEngine(const EngineConfig &config);
    ~AdviceEngine();

    AdviceEngine(const AdviceEngine &) = delete;
    AdviceEngine &operator=(const AdviceEngine &) = delete;

    unsigned
    shards() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Shard owning @p tenant (stable hash partition). */
    std::size_t
    shardOf(std::uint64_t tenant) const
    {
        return static_cast<std::size_t>(
            mix64(tenant) % shards_.size());
    }

    /**
     * Enqueue one operation. @return false — and nothing happens —
     * when the owning shard's ring is full (backpressure) or the
     * engine is stopping. On true, the request's response slot and
     * done counter must stay alive until the done counter's release
     * increment lands.
     */
    bool submit(const AdviceRequest &request);

    /**
     * Graceful shutdown: refuse new submissions, serve everything
     * already accepted, join the workers. Idempotent; called by the
     * destructor. After stop() the engine is quiescent — snapshot()
     * reads are race-free.
     */
    void stop();

    bool
    stopping() const
    {
        return stop_.load(std::memory_order_seq_cst);
    }

    /** Aggregate serving statistics (racy snapshots while running). */
    struct Stats
    {
        std::uint64_t accepted = 0;  //!< requests admitted to rings
        std::uint64_t served = 0;    //!< responses published
        std::uint64_t rejected = 0;  //!< backpressure refusals
        std::uint64_t batches = 0;   //!< drain cycles with work
        std::uint64_t quarantined_tenants = 0;
        //! Steady-clock nanoseconds from each batch's first pop to
        //! its last publish, summed (idle spinning and parking
        //! excluded). served / (busy_ns summed over shards) is the
        //! serving path's per-shard throughput; preemption inside a
        //! batch counts, so it reads low on a host with fewer free
        //! cores than shards plus clients.
        std::uint64_t busy_ns = 0;
    };

    Stats stats() const;

    /** Export serving telemetry under @p prefix. */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;

    /**
     * All trained tenant state as a glider-serve-ckpt document.
     * Requires a quiescent engine (after stop(), or before any
     * traffic); asserts that every accepted request was served.
     */
    obs::json::Value snapshotJson() const;

    /**
     * Load tenant state from a glider-serve-ckpt document into this
     * (idle) engine, replacing any same-id tenants. Shard placement
     * is recomputed from the ids, so a snapshot restores correctly
     * into an engine with a different shard count.
     * @throws std::runtime_error on schema or config mismatch.
     */
    void restoreJson(const obs::json::Value &doc);

    /** snapshotJson() to @p path via atomic tmp+rename. */
    bool saveSnapshot(const std::string &path) const;

    /** restoreJson() from @p path. @return false when unreadable. */
    bool loadSnapshot(const std::string &path);

    const EngineConfig &config() const { return config_; }

    /** Shard-local tenant servers (tests; engine must be idle). */
    const TenantServer &server(std::size_t shard) const;

  private:
    /** Hash bucket of the per-batch tenant-grouping table. */
    struct RunBucket
    {
        std::uint64_t tenant = 0;
        std::uint32_t head = 0;
        std::uint32_t tail = 0;
        std::uint64_t epoch = 0; //!< valid iff == the batch epoch
    };

    struct Shard
    {
        Shard(const EngineConfig &config)
            : queue(config.queue_capacity), server(config.predictor)
        {
            drain.resize(config.max_batch);
            run.resize(config.max_batch);
            next.resize(config.max_batch);
            order.resize(config.max_batch);
            // Open-addressed grouping table at <= 0.5 load factor.
            std::size_t cap = 16;
            while (cap < 2 * config.max_batch)
                cap *= 2;
            buckets.resize(cap);
        }

        MpscRingQueue<AdviceRequest> queue;
        TenantServer server;
        // accepted/served carry the shutdown drain protocol
        // (stop-flag + served >= accepted must totally order against
        // submit's accept-then-check) and the park handshake (see
        // awaitWork); batches/busy_ns are pure telemetry.
        std::atomic<std::uint64_t> accepted{0}; // glider-mo: gate-seqcst
        std::atomic<std::uint64_t> served{0};   // glider-mo: gate-seqcst
        std::atomic<std::uint64_t> batches{0};  // glider-mo: counter-relaxed
        std::atomic<std::uint64_t> busy_ns{0};  // glider-mo: counter-relaxed
        // Worker-owned drain/grouping scratch, sized once. Grouping
        // is one pass: requests of one tenant are chained through
        // `next` via the epoch-stamped bucket table (no per-batch
        // clearing), then each chain is served as one run.
        std::vector<AdviceRequest> drain;
        std::vector<const AdviceRequest *> run;
        std::vector<std::uint32_t> next;
        std::vector<std::uint32_t> order; //!< first-seen bucket order
        std::vector<RunBucket> buckets;
        std::uint64_t epoch = 0;
        // 1 while the worker is parked (or about to park) in
        // parked.wait(1). Last member and line-aligned, so it owns
        // its cache line: submit() reads it on every push, and
        // sharing a line with the counters above would bounce it on
        // every request.
        alignas(64) std::atomic<std::uint32_t> parked{0}; // glider-mo: gate-seqcst
    };

    void shardLoop(Shard &shard);
    /**
     * Idle wait of an empty shard: spin up to kSpinNs if @p spin,
     * then park until submit() or stop() wakes it. @return true with
     * a request popped into drain[0]; false once the engine stops
     * with every accepted request served (the worker exits).
     */
    bool awaitWork(Shard &shard, bool spin);
    void processBatch(Shard &shard, std::size_t n);

    EngineConfig config_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<bool> stop_{false};          // glider-mo: gate-seqcst
    std::atomic<std::uint64_t> rejected_{0}; // glider-mo: counter-relaxed
    ThreadPool pool_;
    std::vector<std::future<void>> workers_;
    Mutex stop_mutex_;
    bool joined_ GLIDER_GUARDED_BY(stop_mutex_) = false;
};

} // namespace serve
} // namespace glider

#endif // GLIDER_SERVE_ADVICE_ENGINE_HH
