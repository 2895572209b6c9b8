/**
 * @file
 * Serving-layer stress suite: MPSC queue linearizability, shard
 * determinism against a single-threaded reference, backpressure,
 * graceful shutdown with in-flight batches, idle-shard parking and
 * wakeups, snapshot/restore round-trips, and fault-plan soak
 * (throw/flaky/hang inside a shard worker). Sized to run under TSan
 * in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <future>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "serve/advice_engine.hh"
#include "serve/mpsc_queue.hh"

namespace {

using namespace glider;
using serve::AdviceEngine;
using serve::AdviceRequest;
using serve::AdviceResponse;
using serve::EngineConfig;
using serve::MpscRingQueue;
using serve::RequestKind;
using serve::ResponseStatus;

/** Whether @p done reaches @p expect (acquire) within @p limit. */
bool
reachesWithin(const std::atomic<std::uint64_t> &done, std::uint64_t expect,
              std::chrono::milliseconds limit)
{
    auto deadline = std::chrono::steady_clock::now() + limit;
    while (done.load(std::memory_order_acquire) < expect) {
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::yield();
    }
    return true;
}

/** Spin until @p done reaches @p expect (acquire), or fail at 30s. */
void
awaitDone(const std::atomic<std::uint64_t> &done, std::uint64_t expect)
{
    ASSERT_TRUE(reachesWithin(done, expect, std::chrono::seconds(30)))
        << "engine did not publish " << expect << " responses";
}

/** One scripted tenant operation. */
struct Op
{
    bool train = false;
    std::uint64_t pc = 0;
    bool opt_hit = false;
};

/** Deterministic mixed advise/train stream over a small PC set. */
std::vector<Op>
makeOps(std::uint64_t seed, std::size_t n, std::size_t pcs = 24,
        double train_fraction = 0.3)
{
    Rng rng(seed);
    std::vector<Op> ops(n);
    for (auto &op : ops) {
        op.pc = 0x4000 + 8 * rng.below(pcs);
        op.train = rng.chance(train_fraction);
        op.opt_hit = rng.chance(0.5);
    }
    return ops;
}

/**
 * Single-threaded oracle: the same serial semantics the engine
 * promises per tenant, but through the *per-access* scalar predictor
 * path (decisionSum over the live PCHR) rather than predictMany —
 * a genuinely different code path, so bit-equality is a strong
 * differential check of batching, sharding, and queueing.
 */
class ReferenceTenant
{
  public:
    explicit ReferenceTenant(const core::GliderConfig &config)
        : pred_(config, 1)
    {
    }

    AdviceResponse
    advise(std::uint64_t pc)
    {
        AdviceResponse out;
        out.score = pred_.decisionSum(pc, 0);
        out.level = serve::toAdviceLevel(pred_.classify(out.score));
        out.status = ResponseStatus::Ok;
        pred_.observe(pc, 0);
        return out;
    }

    void
    train(std::uint64_t pc, bool opt_hit)
    {
        pred_.train(pc, 0, pred_.history(0), opt_hit);
        pred_.observe(pc, 0);
    }

    const core::GliderPredictor &predictor() const { return pred_; }

  private:
    core::GliderPredictor pred_;
};

/** Submit @p ops for @p tenant in order, retrying on backpressure. */
void
submitAll(AdviceEngine &engine, std::uint64_t tenant,
          const std::vector<Op> &ops,
          std::vector<AdviceResponse> &responses,
          std::atomic<std::uint64_t> &done)
{
    ASSERT_EQ(responses.size(), ops.size());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        AdviceRequest req;
        req.tenant = tenant;
        req.pc = ops[i].pc;
        req.kind =
            ops[i].train ? RequestKind::Train : RequestKind::Advise;
        req.opt_hit = ops[i].opt_hit;
        req.response = &responses[i];
        req.done = &done;
        while (!engine.submit(req))
            std::this_thread::yield();
    }
}

/** Engine responses for one tenant must bit-match the reference. */
void
expectMatchesReference(const core::GliderConfig &config,
                       const std::vector<Op> &ops,
                       const std::vector<AdviceResponse> &responses)
{
    ReferenceTenant ref(config);
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (ops[i].train) {
            ref.train(ops[i].pc, ops[i].opt_hit);
            EXPECT_EQ(responses[i].status, ResponseStatus::Ok);
            continue;
        }
        AdviceResponse want = ref.advise(ops[i].pc);
        EXPECT_EQ(responses[i].score, want.score) << "op " << i;
        EXPECT_EQ(responses[i].level, want.level) << "op " << i;
        EXPECT_EQ(responses[i].status, ResponseStatus::Ok)
            << "op " << i;
    }
}

TEST(MpscQueue, FifoAndBackpressureSingleThread)
{
    MpscRingQueue<int> q(4);
    EXPECT_EQ(q.capacity(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.tryPush(i));
    EXPECT_FALSE(q.tryPush(99)); // full: backpressure, not overwrite
    int v = -1;
    EXPECT_TRUE(q.tryPop(v));
    EXPECT_EQ(v, 0);
    EXPECT_TRUE(q.tryPush(4)); // slot recycled
    for (int want = 1; want <= 4; ++want) {
        ASSERT_TRUE(q.tryPop(v));
        EXPECT_EQ(v, want);
    }
    EXPECT_FALSE(q.tryPop(v)); // empty
}

TEST(MpscQueue, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(MpscRingQueue<int>(1).capacity(), 2u);
    EXPECT_EQ(MpscRingQueue<int>(3).capacity(), 4u);
    EXPECT_EQ(MpscRingQueue<int>(64).capacity(), 64u);
    EXPECT_EQ(MpscRingQueue<int>(65).capacity(), 128u);
}

TEST(MpscQueue, NProducersExactlyOncePerProducerFifo)
{
    struct Item
    {
        std::uint32_t producer = 0;
        std::uint32_t seq = 0;
    };
    constexpr std::uint32_t kProducers = 4;
    constexpr std::uint32_t kPerProducer = 20000;
    MpscRingQueue<Item> q(128); // small: forces backpressure retries

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::uint32_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&q, p] {
            for (std::uint32_t s = 0; s < kPerProducer; ++s) {
                Item item{p, s};
                while (!q.tryPush(item))
                    std::this_thread::yield();
            }
        });
    }

    // Single consumer: every item arrives exactly once, and each
    // producer's items arrive in its push order.
    std::uint32_t next_seq[kProducers] = {0, 0, 0, 0};
    std::uint64_t popped = 0;
    Item item;
    while (popped < std::uint64_t{kProducers} * kPerProducer) {
        if (!q.tryPop(item)) {
            std::this_thread::yield();
            continue;
        }
        ASSERT_LT(item.producer, kProducers);
        ASSERT_EQ(item.seq, next_seq[item.producer])
            << "per-producer FIFO violated (or duplicate/lost item)";
        ++next_seq[item.producer];
        ++popped;
    }
    for (auto &t : producers)
        t.join();
    for (std::uint32_t p = 0; p < kProducers; ++p)
        EXPECT_EQ(next_seq[p], kPerProducer);
    EXPECT_FALSE(q.tryPop(item)); // nothing invented
}

TEST(AdviceEngine, SingleTenantBitIdenticalToReference)
{
    EngineConfig config;
    config.shards = 2;
    config.queue_capacity = 256;
    AdviceEngine engine(config);

    std::vector<Op> ops = makeOps(0xA11CE, 3000);
    std::vector<AdviceResponse> responses(ops.size());
    std::atomic<std::uint64_t> done{0};
    submitAll(engine, 42, ops, responses, done);
    awaitDone(done, ops.size());
    engine.stop();

    expectMatchesReference(config.predictor, ops, responses);
    AdviceEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.accepted, ops.size());
    EXPECT_EQ(stats.served, ops.size());
    EXPECT_EQ(stats.quarantined_tenants, 0u);
}

TEST(AdviceEngine, ConcurrentTenantsEachBitIdentical)
{
    EngineConfig config;
    config.shards = 3;
    config.queue_capacity = 128;
    AdviceEngine engine(config);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kOps = 4000;
    std::vector<std::vector<Op>> ops(kClients);
    std::vector<std::vector<AdviceResponse>> responses(kClients);
    std::vector<std::atomic<std::uint64_t>> done(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        ops[c] = makeOps(0xBEEF00 + c, kOps, 16 + 4 * c);
        responses[c].resize(kOps);
    }
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            submitAll(engine, 100 + c, ops[c], responses[c], done[c]);
        });
    }
    for (auto &t : clients)
        t.join();
    for (std::size_t c = 0; c < kClients; ++c)
        awaitDone(done[c], kOps);
    engine.stop();

    // Concurrency must not leak between tenants: each stream is
    // bit-identical to its own single-threaded reference.
    for (std::size_t c = 0; c < kClients; ++c)
        expectMatchesReference(config.predictor, ops[c],
                               responses[c]);
    EXPECT_EQ(engine.stats().served, kClients * kOps);
}

TEST(AdviceEngine, GracefulShutdownServesInFlightBatches)
{
    EngineConfig config;
    config.shards = 2;
    config.queue_capacity = 1024;
    AdviceEngine engine(config);

    // Fill both shards with in-flight work, then stop immediately:
    // every accepted request must still be answered.
    std::vector<Op> ops = makeOps(0x5109, 800);
    std::vector<AdviceResponse> responses(ops.size());
    std::atomic<std::uint64_t> done{0};
    std::uint64_t accepted = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        AdviceRequest req;
        req.tenant = 7 + (i % 5);
        req.pc = ops[i].pc;
        req.kind =
            ops[i].train ? RequestKind::Train : RequestKind::Advise;
        req.opt_hit = ops[i].opt_hit;
        req.response = &responses[i];
        req.done = &done;
        if (engine.submit(req))
            ++accepted;
    }
    engine.stop();

    EXPECT_EQ(done.load(std::memory_order_acquire), accepted);
    EXPECT_EQ(engine.stats().served, accepted);

    // The gate is down: nothing is accepted after stop().
    AdviceRequest late;
    late.tenant = 7;
    late.pc = 0x4000;
    late.response = &responses[0];
    late.done = &done;
    EXPECT_FALSE(engine.submit(late));
}

TEST(AdviceEngine, ParkedShardsWakeForEverySubmit)
{
    // Producers submit one request at a time and pause between
    // requests, so the shards keep going idle and parking. A lost
    // wakeup leaves a request unserved until the next submission to
    // its shard, or forever: each producer owns a shard, so no other
    // submission comes to wake it.
    constexpr std::size_t kProducers = 3;
    constexpr std::size_t kOps = 2000;
    EngineConfig config;
    config.shards = kProducers;
    AdviceEngine engine(config);

    std::vector<std::uint64_t> tenant(kProducers);
    std::vector<std::vector<Op>> ops(kProducers);
    std::vector<std::vector<AdviceResponse>> responses(kProducers);
    std::vector<std::atomic<std::uint64_t>> done(kProducers);
    std::atomic<std::uint64_t> late{0};
    for (std::size_t p = 0; p < kProducers; ++p) {
        tenant[p] = 100;
        while (engine.shardOf(tenant[p]) != p)
            ++tenant[p];
        ops[p] = makeOps(0x9A4C + p, kOps);
        responses[p].resize(kOps);
    }
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            Rng rng(0x51EE + p);
            for (std::size_t i = 0; i < kOps; ++i) {
                AdviceRequest req;
                req.tenant = tenant[p];
                req.pc = ops[p][i].pc;
                req.kind = ops[p][i].train ? RequestKind::Train
                                           : RequestKind::Advise;
                req.opt_hit = ops[p][i].opt_hit;
                req.response = &responses[p][i];
                req.done = &done[p];
                while (!engine.submit(req))
                    std::this_thread::yield();
                if (!reachesWithin(done[p], i + 1,
                                   std::chrono::seconds(2))) {
                    late.fetch_add(1);
                    return;
                }
                if (rng.chance(0.5)) {
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(rng.below(201)));
                    continue;
                }
                // Or resubmit within a few microseconds, so some
                // submissions race the worker's move from polling to
                // parking.
                auto until = std::chrono::steady_clock::now()
                    + std::chrono::nanoseconds(rng.below(4001));
                while (std::chrono::steady_clock::now() < until) {
                }
            }
        });
    }
    for (auto &t : producers)
        t.join();
    engine.stop();

    ASSERT_EQ(late.load(), 0u) << "a request waited over 2 s";
    for (std::size_t p = 0; p < kProducers; ++p)
        expectMatchesReference(config.predictor, ops[p], responses[p]);
}

TEST(AdviceEngine, StopWakesParkedShards)
{
    EngineConfig config;
    config.shards = 4;
    AdviceEngine engine(config);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // One request for one shard; the others stay parked with nothing
    // to do, so only stop() can wake them.
    AdviceResponse response;
    response.status = ResponseStatus::Quarantined; // until served
    std::atomic<std::uint64_t> done{0};
    AdviceRequest req;
    req.tenant = 9;
    req.pc = 0x4000;
    req.response = &response;
    req.done = &done;
    ASSERT_TRUE(engine.submit(req));
    auto stopped = std::async(std::launch::async, [&] { engine.stop(); });
    if (stopped.wait_for(std::chrono::seconds(2))
        != std::future_status::ready) {
        ADD_FAILURE() << "stop() left a parked shard asleep";
        std::fflush(stdout);
        std::abort(); // its worker never exits: do not hang the suite
    }
    EXPECT_EQ(done.load(std::memory_order_acquire), 1u);
    EXPECT_EQ(response.status, ResponseStatus::Ok);
    EXPECT_EQ(engine.stats().served, 1u);
}

TEST(AdviceEngine, IdleEngineParks)
{
    EngineConfig config;
    config.shards = 2;
    AdviceEngine engine(config);
    AdviceResponse response;
    std::atomic<std::uint64_t> done{0};
    AdviceRequest req;
    req.tenant = 3;
    req.pc = 0x4000;
    req.response = &response;
    req.done = &done;
    ASSERT_TRUE(engine.submit(req));
    awaitDone(done, 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));

    // Idle shards must sleep, not poll: the whole process (two
    // workers and this sleeping thread) may use 1% of one core.
    const std::clock_t c0 = std::clock();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const double cpu_ms = static_cast<double>(std::clock() - c0)
        * 1000.0 / CLOCKS_PER_SEC;
    EXPECT_LT(cpu_ms, 2.0) << "idle shards burned CPU";
}

TEST(AdviceEngine, BackpressureWhenQueueFull)
{
    // One shard whose worker hangs on its first tenant run (unwound
    // by the per-attempt recovery deadline), with a 2-slot ring: the
    // flood behind the hung batch must see tryPush backpressure.
    resilience::FaultPlan plan =
        resilience::FaultPlan::parse("hang@tenant/1");
    EngineConfig config;
    config.shards = 1;
    config.queue_capacity = 2;
    config.faults = &plan;
    config.recovery.max_attempts = 1;
    config.recovery.deadline_ms = 200;
    AdviceEngine engine(config);

    constexpr std::size_t kTries = 64;
    std::vector<AdviceResponse> responses(kTries);
    std::atomic<std::uint64_t> done{0};
    std::uint64_t accepted = 0, rejected = 0;
    for (std::size_t i = 0; i < kTries; ++i) {
        AdviceRequest req;
        req.tenant = 1;
        req.pc = 0x4000 + 8 * (i % 8);
        req.response = &responses[i];
        req.done = &done;
        if (engine.submit(req))
            ++accepted;
        else
            ++rejected;
    }
    EXPECT_GT(rejected, 0u) << "full ring must refuse, not block";
    EXPECT_GT(accepted, 0u);
    awaitDone(done, accepted);
    engine.stop();

    // The hang exhausted the attempt budget: tenant 1 is quarantined
    // and every accepted request was answered as such.
    EXPECT_EQ(engine.stats().served, accepted);
    EXPECT_EQ(engine.stats().rejected, rejected);
    EXPECT_EQ(engine.stats().quarantined_tenants, 1u);
}

TEST(AdviceEngine, SnapshotRestoreRoundTripsByteIdentical)
{
    EngineConfig config;
    config.shards = 2;
    config.queue_capacity = 256;

    std::vector<std::uint64_t> tenants = {3, 11, 900};
    std::vector<std::vector<Op>> ops;
    ops.reserve(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t)
        ops.push_back(makeOps(0xCAFE + t, 1500, 20, 0.5));

    AdviceEngine engine(config);
    std::vector<std::vector<AdviceResponse>> responses(tenants.size());
    std::vector<std::atomic<std::uint64_t>> done(tenants.size());
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        responses[t].resize(ops[t].size());
        submitAll(engine, tenants[t], ops[t], responses[t], done[t]);
    }
    for (std::size_t t = 0; t < tenants.size(); ++t)
        awaitDone(done[t], ops[t].size());
    engine.stop();

    obs::json::Value snap = engine.snapshotJson();
    std::string first = snap.dump();

    // Restore into a fresh engine — with a *different* shard count,
    // since placement is recomputed from ids — and re-snapshot: the
    // document must come back byte-identical.
    EngineConfig config3 = config;
    config3.shards = 3;
    AdviceEngine restored(config3);
    restored.restoreJson(obs::json::Value::parse(first));
    EXPECT_EQ(restored.snapshotJson().dump(), first);

    // File round-trip through the atomic tmp+rename writer.
    std::string path =
        ::testing::TempDir() + "glider_serve_ckpt_test.json";
    ASSERT_TRUE(engine.saveSnapshot(path));
    AdviceEngine from_file(config);
    ASSERT_TRUE(from_file.loadSnapshot(path));
    EXPECT_EQ(from_file.snapshotJson().dump(), first);
    std::remove(path.c_str());
}

TEST(AdviceEngine, RestoredEngineContinuesIdentically)
{
    EngineConfig config;
    config.shards = 2;
    config.queue_capacity = 256;
    const std::uint64_t tenant = 77;
    std::vector<Op> phase1 = makeOps(0xF00D, 2000, 20, 0.5);
    std::vector<Op> phase2 = makeOps(0xF11D, 2000, 20, 0.3);

    // Phase 1 on engine A, snapshot, restore into engine B, phase 2
    // on B. An uninterrupted reference plays both phases straight
    // through; B's phase-2 answers must bit-match it.
    AdviceEngine a(config);
    std::vector<AdviceResponse> r1(phase1.size());
    std::atomic<std::uint64_t> done1{0};
    submitAll(a, tenant, phase1, r1, done1);
    awaitDone(done1, phase1.size());
    a.stop();
    obs::json::Value snap = a.snapshotJson();

    AdviceEngine b(config);
    b.restoreJson(snap);
    std::vector<AdviceResponse> r2(phase2.size());
    std::atomic<std::uint64_t> done2{0};
    submitAll(b, tenant, phase2, r2, done2);
    awaitDone(done2, phase2.size());
    b.stop();

    ReferenceTenant ref(config.predictor);
    for (const Op &op : phase1) {
        if (op.train)
            ref.train(op.pc, op.opt_hit);
        else
            ref.advise(op.pc);
    }
    for (std::size_t i = 0; i < phase2.size(); ++i) {
        if (phase2[i].train) {
            ref.train(phase2[i].pc, phase2[i].opt_hit);
            continue;
        }
        AdviceResponse want = ref.advise(phase2[i].pc);
        EXPECT_EQ(r2[i].score, want.score) << "phase2 op " << i;
        EXPECT_EQ(r2[i].level, want.level) << "phase2 op " << i;
    }
}

TEST(AdviceEngine, ThrowFaultQuarantinesOnlyTargetTenant)
{
    resilience::FaultPlan plan =
        resilience::FaultPlan::parse("throw@tenant/7");
    EngineConfig config;
    config.shards = 2;
    config.queue_capacity = 256;
    config.faults = &plan;
    config.recovery.max_attempts = 2;
    AdviceEngine engine(config);

    std::vector<std::uint64_t> tenants = {5, 6, 7};
    std::vector<std::vector<Op>> ops;
    std::vector<std::vector<AdviceResponse>> responses(3);
    std::vector<std::atomic<std::uint64_t>> done(3);
    for (std::size_t t = 0; t < 3; ++t) {
        ops.push_back(makeOps(0xD00D + t, 600));
        responses[t].resize(ops[t].size());
        submitAll(engine, tenants[t], ops[t], responses[t], done[t]);
    }
    for (std::size_t t = 0; t < 3; ++t)
        awaitDone(done[t], ops[t].size());
    engine.stop();

    // Sibling tenants keep serving, bit-identical to reference.
    expectMatchesReference(config.predictor, ops[0], responses[0]);
    expectMatchesReference(config.predictor, ops[1], responses[1]);
    // The faulted tenant is quarantined; every answer says so.
    for (const AdviceResponse &r : responses[2])
        EXPECT_EQ(r.status, ResponseStatus::Quarantined);
    EXPECT_EQ(engine.stats().quarantined_tenants, 1u);

    // A post-fault snapshot must still restore byte-identically
    // (including the quarantine flag and attempt count).
    std::string first = engine.snapshotJson().dump();
    AdviceEngine restored(config);
    restored.restoreJson(obs::json::Value::parse(first));
    EXPECT_EQ(restored.snapshotJson().dump(), first);
}

TEST(AdviceEngine, FlakyFaultRecoversWithoutDivergence)
{
    // flaky:1 fails the tenant's first-ever attempt, then succeeds:
    // the retry must replay cleanly (faults fire before any state
    // mutation), so answers still bit-match the reference.
    resilience::FaultPlan plan =
        resilience::FaultPlan::parse("flaky:1@tenant/3");
    EngineConfig config;
    config.shards = 1;
    config.queue_capacity = 128;
    config.faults = &plan;
    config.recovery.max_attempts = 3;
    AdviceEngine engine(config);

    std::vector<Op> ops = makeOps(0xFA7E, 500);
    std::vector<AdviceResponse> responses(ops.size());
    std::atomic<std::uint64_t> done{0};
    submitAll(engine, 3, ops, responses, done);
    awaitDone(done, ops.size());
    engine.stop();

    expectMatchesReference(config.predictor, ops, responses);
    EXPECT_EQ(engine.stats().quarantined_tenants, 0u);
}

TEST(AdviceEngine, SoakMixedTenantsUnderConcurrentLoad)
{
    EngineConfig config;
    config.shards = 3;
    config.queue_capacity = 64; // small ring: constant backpressure
    config.max_batch = 32;
    AdviceEngine engine(config);

    constexpr std::size_t kClients = 4;
    constexpr std::size_t kOps = 3000;
    // Each client owns two tenants and interleaves their streams;
    // per-tenant order is still the client's submission order.
    std::vector<std::vector<Op>> ops(kClients);
    std::vector<std::vector<std::uint64_t>> tenant_of(kClients);
    std::vector<std::vector<AdviceResponse>> responses(kClients);
    std::vector<std::atomic<std::uint64_t>> done(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
        ops[c] = makeOps(0x50AC + c, kOps, 20, 0.4);
        responses[c].resize(kOps);
        tenant_of[c].resize(kOps);
        Rng rng(0x7E4A + c);
        for (std::size_t i = 0; i < kOps; ++i)
            tenant_of[c][i] = 2 * c + rng.below(2);
    }
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            for (std::size_t i = 0; i < kOps; ++i) {
                AdviceRequest req;
                req.tenant = tenant_of[c][i];
                req.pc = ops[c][i].pc;
                req.kind = ops[c][i].train ? RequestKind::Train
                                           : RequestKind::Advise;
                req.opt_hit = ops[c][i].opt_hit;
                req.response = &responses[c][i];
                req.done = &done[c];
                while (!engine.submit(req))
                    std::this_thread::yield();
            }
        });
    }
    for (auto &t : clients)
        t.join();
    for (std::size_t c = 0; c < kClients; ++c)
        awaitDone(done[c], kOps);
    engine.stop();

    AdviceEngine::Stats stats = engine.stats();
    EXPECT_EQ(stats.accepted, kClients * kOps);
    EXPECT_EQ(stats.served, kClients * kOps);
    EXPECT_EQ(stats.quarantined_tenants, 0u);

    // Per-tenant determinism holds through the mixed-tenant soak:
    // replay each tenant's substream against its own reference.
    for (std::size_t c = 0; c < kClients; ++c) {
        for (std::uint64_t t = 2 * c; t <= 2 * c + 1; ++t) {
            ReferenceTenant ref(config.predictor);
            for (std::size_t i = 0; i < kOps; ++i) {
                if (tenant_of[c][i] != t)
                    continue;
                if (ops[c][i].train) {
                    ref.train(ops[c][i].pc, ops[c][i].opt_hit);
                    continue;
                }
                AdviceResponse want = ref.advise(ops[c][i].pc);
                EXPECT_EQ(responses[c][i].score, want.score)
                    << "client " << c << " tenant " << t << " op "
                    << i;
                EXPECT_EQ(responses[c][i].level, want.level);
            }
        }
    }
}

} // namespace
