/**
 * @file
 * AdviceEngine runtime: shard workers, batching, backpressure and
 * graceful shutdown. Snapshot/restore lives in snapshot.cc.
 */

#include "advice_engine.hh"

#include "common/env_registry.hh"
#include "common/logging.hh"

namespace glider {
namespace serve {

namespace {

/** Longest an idle worker spins on its ring before it parks. */
constexpr std::uint64_t kSpinNs = 3'000;

/** Spin-wait hint: frees the core's pipeline for a sibling thread. */
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

EngineConfig
EngineConfig::fromEnv()
{
    EngineConfig config;
    config.shards =
        static_cast<unsigned>(env::u64(env::Knob::ServeShards));
    if (config.shards == 0)
        config.shards = 1;
    config.queue_capacity =
        static_cast<std::size_t>(env::u64(env::Knob::ServeQueueCap));
    if (config.queue_capacity < 2)
        config.queue_capacity = 2;
    return config;
}

AdviceEngine::AdviceEngine(const EngineConfig &config)
    : config_(config), pool_(config.shards == 0 ? 1 : config.shards)
{
    if (config_.shards == 0)
        config_.shards = 1;
    if (config_.max_batch == 0)
        config_.max_batch = 1;
    shards_.reserve(config_.shards);
    for (unsigned i = 0; i < config_.shards; ++i)
        shards_.push_back(std::make_unique<Shard>(config_));
    workers_.reserve(config_.shards);
    for (auto &shard : shards_) {
        Shard *s = shard.get();
        workers_.push_back(pool_.submit([this, s] { shardLoop(*s); }));
    }
}

AdviceEngine::~AdviceEngine() { stop(); }

bool
AdviceEngine::submit(const AdviceRequest &request)
{
    Shard &shard = *shards_[shardOf(request.tenant)];
    // Account the request *before* checking the stop gate: a worker
    // only exits once served == accepted with the gate up, so any
    // submission that passes the gate is guaranteed to be drained
    // even if stop() lands between the gate check and the push.
    shard.accepted.fetch_add(1, std::memory_order_seq_cst);
    if (stop_.load(std::memory_order_seq_cst)
        || !shard.queue.tryPush(request)) {
        shard.accepted.fetch_sub(1, std::memory_order_seq_cst);
        rejected_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    // Wake a parked worker. It announces the park before re-checking
    // accepted (see awaitWork), so either it sees this request or
    // this load sees its announcement.
    if (shard.parked.load(std::memory_order_seq_cst) != 0
        && shard.parked.exchange(0, std::memory_order_seq_cst) != 0)
        shard.parked.notify_one();
    return true;
}

void
AdviceEngine::shardLoop(Shard &shard)
{
    // Share of recent idle episodes that ended within kSpinNs, as a
    // fixed-point EWMA (256 = all of them, weight 1/8 per episode):
    // the worker spins only while most of them did.
    unsigned quick = 256;
    for (;;) {
        std::uint64_t idle0 = 0; // 0: no idle episode before this batch
        if (!shard.queue.tryPop(shard.drain[0])) {
            idle0 = TenantServer::nowNs();
            if (!awaitWork(shard, quick >= 128))
                return;
        }
        // Busy time runs from the first pop to the last publish, on
        // the steady clock: a vDSO read, where the thread-CPU clock
        // would cost a syscall on the path of every request.
        const std::uint64_t t0 = TenantServer::nowNs();
        std::size_t n = 1;
        while (n < config_.max_batch
               && shard.queue.tryPop(shard.drain[n]))
            ++n;
        shard.batches.fetch_add(1, std::memory_order_relaxed);
        processBatch(shard, n);
        shard.busy_ns.fetch_add(TenantServer::nowNs() - t0,
                                std::memory_order_relaxed);
        if (idle0 != 0)
            quick = quick - quick / 8
                + (t0 - idle0 <= kSpinNs ? 32 : 0);
    }
}

bool
AdviceEngine::awaitWork(Shard &shard, bool spin)
{
    if (spin) {
        const std::uint64_t until = TenantServer::nowNs() + kSpinNs;
        do {
            cpuRelax();
            if (shard.queue.tryPop(shard.drain[0]))
                return true;
        } while (TenantServer::nowNs() < until);
    }
    for (;;) {
        // Announce the park, then re-check for work. submit() bumps
        // accepted before its push and reads parked after it, all
        // seq_cst: either this re-check counts the request, or
        // submit() sees parked == 1 and wakes the worker. stop()
        // raises stop_ before it clears parked, likewise.
        shard.parked.store(1, std::memory_order_seq_cst);
        const bool stopping = stop_.load(std::memory_order_seq_cst);
        const bool pending =
            shard.served.load(std::memory_order_seq_cst)
            < shard.accepted.load(std::memory_order_seq_cst);
        if (!pending) {
            if (stopping)
                return false;
            shard.parked.wait(1, std::memory_order_seq_cst);
        }
        shard.parked.store(0, std::memory_order_relaxed);
        if (shard.queue.tryPop(shard.drain[0]))
            return true;
        // Accepted but not yet pushed (or about to be refused).
        cpuRelax();
    }
}

void
AdviceEngine::processBatch(Shard &shard, std::size_t n)
{
    // Group the drained requests by tenant, preserving per-tenant
    // arrival order, and serve each group as one run. Single pass:
    // each request is appended to its tenant's chain through the
    // epoch-stamped open-addressed bucket table (stale buckets are
    // invalidated by the epoch bump — no per-batch clearing), so
    // grouping is O(n) whatever the tenant mix. Touches only
    // pre-sized worker-owned scratch — no allocation per batch.
    constexpr std::uint32_t kNone = 0xFFFFFFFFu;
    const std::uint64_t epoch = ++shard.epoch;
    const std::size_t mask = shard.buckets.size() - 1;
    std::size_t nruns = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
        shard.next[i] = kNone;
        const std::uint64_t tenant = shard.drain[i].tenant;
        std::size_t b = static_cast<std::size_t>(mix64(tenant)) & mask;
        for (;;) {
            RunBucket &bucket = shard.buckets[b];
            if (bucket.epoch != epoch) {
                bucket.tenant = tenant;
                bucket.head = i;
                bucket.tail = i;
                bucket.epoch = epoch;
                shard.order[nruns++] = static_cast<std::uint32_t>(b);
                break;
            }
            if (bucket.tenant == tenant) {
                shard.next[bucket.tail] = i;
                bucket.tail = i;
                break;
            }
            b = (b + 1) & mask;
        }
    }
    for (std::size_t k = 0; k < nruns; ++k) {
        const RunBucket &bucket = shard.buckets[shard.order[k]];
        std::size_t len = 0;
        for (std::uint32_t i = bucket.head; i != kNone;
             i = shard.next[i])
            shard.run[len++] = &shard.drain[i];
        TenantState &state = shard.server.tenant(bucket.tenant);
        shard.server.serveRun(
            bucket.tenant, state,
            std::span<const AdviceRequest *const>(shard.run.data(),
                                                  len),
            config_.faults, config_.recovery, &pool_.token());
        shard.served.fetch_add(len, std::memory_order_seq_cst);
    }
}

void
AdviceEngine::stop()
{
    stop_.store(true, std::memory_order_seq_cst);
    for (auto &shard : shards_) {
        shard->parked.store(0, std::memory_order_seq_cst);
        shard->parked.notify_one();
    }
    LockGuard lock(stop_mutex_);
    if (joined_)
        return;
    for (auto &w : workers_) {
        if (w.valid())
            w.get();
    }
    joined_ = true;
}

AdviceEngine::Stats
AdviceEngine::stats() const
{
    Stats out;
    out.rejected = rejected_.load(std::memory_order_relaxed);
    for (const auto &shard : shards_) {
        out.accepted +=
            shard->accepted.load(std::memory_order_relaxed);
        out.served += shard->served.load(std::memory_order_relaxed);
        out.batches += shard->batches.load(std::memory_order_relaxed);
        out.busy_ns += shard->busy_ns.load(std::memory_order_relaxed);
        out.quarantined_tenants +=
            shard->server.quarantinedTenants();
    }
    return out;
}

void
AdviceEngine::exportMetrics(obs::Registry &registry,
                            const std::string &prefix) const
{
    Stats s = stats();
    registry.setCounter(prefix + ".accepted", s.accepted);
    registry.setCounter(prefix + ".served", s.served);
    registry.setCounter(prefix + ".rejected", s.rejected);
    registry.setCounter(prefix + ".batches", s.batches);
    registry.setCounter(prefix + ".quarantined_tenants",
                        s.quarantined_tenants);
    registry.setGauge(prefix + ".shards",
                      static_cast<double>(shards_.size()));
    registry.setGauge(
        prefix + ".queue_capacity",
        static_cast<double>(shards_[0]->queue.capacity()));
    if (s.batches > 0)
        registry.setGauge(prefix + ".avg_batch",
                          static_cast<double>(s.served)
                              / static_cast<double>(s.batches));
    registry.setGauge(prefix + ".busy_seconds",
                      static_cast<double>(s.busy_ns) / 1e9);
    if (s.busy_ns > 0)
        registry.setGauge(prefix + ".served_per_busy_sec",
                          static_cast<double>(s.served) * 1e9
                              / static_cast<double>(s.busy_ns));
}

const TenantServer &
AdviceEngine::server(std::size_t shard) const
{
    GLIDER_ASSERT(shard < shards_.size());
    return shards_[shard]->server;
}

} // namespace serve
} // namespace glider
