/**
 * @file
 * Tests for the parallel experiment infrastructure: the worker pool
 * (completion, exception propagation, shutdown), the process-wide
 * trace cache, and serial-vs-parallel determinism of the bench
 * SweepRunner's keyed cells.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "common/thread_pool.hh"
#include "traces/trace_cache.hh"

namespace glider {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPool, CompletesAllTasks)
{
    ThreadPool pool(4);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([i] { return i * i; }));
    int sum = 0;
    for (auto &f : futures)
        sum += f.get();
    int expect = 0;
    for (int i = 0; i < 100; ++i)
        expect += i * i;
    EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, TasksRunConcurrentlySafe)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([&count] {
            count.fetch_add(1, std::memory_order_relaxed);
        }));
    }
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, PropagatesExceptions)
{
    ThreadPool pool(2);
    auto ok = pool.submit([] { return 7; });
    auto bad = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_EQ(ok.get(), 7);
    EXPECT_THROW(bad.get(), std::runtime_error);
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks)
{
    ThreadPool pool(1);
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 16; ++i) {
        futures.push_back(pool.submit([i] {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            return i;
        }));
    }
    pool.shutdown(); // must run everything still queued, then join
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(futures[i].get(), i);
}

TEST(ThreadPool, SubmitAfterShutdownThrows)
{
    ThreadPool pool(2);
    pool.shutdown();
    EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
    pool.shutdown(); // idempotent
}

TEST(ThreadPool, ZeroThreadsClampedToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.submit([] { return 3; }).get(), 3);
}

// --------------------------------------------------------- trace cache

TEST(TraceCache, BuilderRunsOncePerKey)
{
    std::atomic<int> builds{0};
    traces::TraceCache cache([&builds](const std::string &name,
                                       std::uint64_t accesses,
                                       traces::Trace &out) {
        ++builds;
        out.setName(name);
        for (std::uint64_t i = 0; i < accesses; ++i)
            out.push(0x400000, i * 64);
    });

    const auto &a = cache.get("w", 100);
    const auto &b = cache.get("w", 100);
    EXPECT_EQ(&a, &b); // the same trace object, not a rebuild
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(a.size(), 100u);

    const auto &c = cache.get("w", 200); // different length: new key
    EXPECT_NE(&a, &c);
    EXPECT_EQ(builds.load(), 2);
    EXPECT_EQ(cache.size(), 2u);

    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    cache.get("w", 100);
    EXPECT_EQ(builds.load(), 3);
}

TEST(TraceCache, ConcurrentRequestsBuildOnce)
{
    std::atomic<int> builds{0};
    traces::TraceCache cache([&builds](const std::string &,
                                       std::uint64_t accesses,
                                       traces::Trace &out) {
        ++builds;
        // Widen the race window: every thread should arrive while the
        // first build is still in flight.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        for (std::uint64_t i = 0; i < accesses; ++i)
            out.push(0x400000, i * 64);
    });

    ThreadPool pool(4);
    std::vector<std::future<const traces::Trace *>> futures;
    for (int i = 0; i < 8; ++i)
        futures.push_back(
            pool.submit([&cache] { return &cache.get("shared", 50); }));
    std::vector<const traces::Trace *> seen;
    for (auto &f : futures)
        seen.push_back(f.get());
    for (const auto *t : seen)
        EXPECT_EQ(t, seen.front());
    const traces::Trace *first = seen.front();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(first->size(), 50u);
}

TEST(TraceCache, CachedWorkloadTraceMatchesFreshBuild)
{
    const std::uint64_t n = 20'000;
    const auto &cached = workloads::cachedTrace("astar", n);

    traces::Trace fresh("astar");
    workloads::makeWorkload("astar", n)->run(fresh);

    ASSERT_EQ(cached.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ(cached[i].pc, fresh[i].pc);
        EXPECT_EQ(cached[i].address, fresh[i].address);
        EXPECT_EQ(cached[i].is_write, fresh[i].is_write);
        EXPECT_EQ(cached[i].core, fresh[i].core);
    }
}

/** Field-exact equality (every checkpointed field): parallel runs
 *  must be bit-identical. */
void
expectSameResult(const sim::SingleCoreResult &a,
                 const sim::SingleCoreResult &b)
{
    EXPECT_EQ(resilience::encodeResult(a).dump(),
              resilience::encodeResult(b).dump());
}

/** A default single-core run of @p policy over @p trace. */
sim::SingleCoreResult
runOn(const traces::Trace &trace, const std::string &policy)
{
    return sim::runSingleCore(trace, core::makePolicy(policy));
}

TEST(TraceCache, PerPolicyResultsUnchangedVsFreshTrace)
{
    const std::uint64_t n = 20'000;
    traces::Trace fresh("astar");
    workloads::makeWorkload("astar", n)->run(fresh);

    for (const char *policy : {"LRU", "DRRIP", "SHiP++"}) {
        auto from_cache = runOn(workloads::cachedTrace("astar", n), policy);
        auto from_fresh = runOn(fresh, policy);
        expectSameResult(from_cache, from_fresh);
    }
}

// --------------------------------------------------------- sweep runner

/** SweepOptions with no env dependence (no faults, no checkpoint). */
bench::SweepRunner::SweepOptions
hermeticOptions()
{
    static const resilience::FaultPlan kNoFaults;
    bench::SweepRunner::SweepOptions opts;
    opts.verify_resumed = 0;
    opts.faults = &kNoFaults;
    return opts;
}

TEST(SweepRunner, SerialAndParallelTablesIdentical)
{
    const std::uint64_t n = 20'000;
    const std::vector<std::string> names = {"astar", "sphinx3"};
    const std::vector<std::string> policies = {"LRU", "DRRIP", "SHiP++"};

    bench::SweepRunner serial(1);
    bench::SweepRunner parallel(4);
    EXPECT_EQ(parallel.threads(), 4u);
    for (const auto &name : names) {
        for (const auto &policy : policies) {
            serial.queue(name, policy, n);
            parallel.queue(name, policy, n);
        }
    }
    EXPECT_EQ(parallel.queuedCells(), names.size() * policies.size());
    auto serial_out = serial.runChecked(hermeticOptions());
    auto parallel_out = parallel.runChecked(hermeticOptions());
    EXPECT_EQ(parallel.queuedCells(), 0u);

    ASSERT_EQ(serial_out.cells.size(), parallel_out.cells.size());
    for (std::size_t i = 0; i < serial_out.cells.size(); ++i) {
        ASSERT_TRUE(serial_out.cells[i].ok());
        ASSERT_TRUE(parallel_out.cells[i].ok());
        expectSameResult(serial_out.cells[i].row,
                         parallel_out.cells[i].row);
    }

    // Cells come back in insertion order regardless of completion
    // order: cell i is (names[i / P], policies[i % P]).
    for (std::size_t i = 0; i < parallel_out.cells.size(); ++i) {
        const auto &row = parallel_out.cells[i].row;
        EXPECT_EQ(row.workload, names[i / policies.size()]);
        EXPECT_EQ(row.policy, policies[i % policies.size()]);
    }
}

TEST(SweepRunner, MatchesDirectSerialHarness)
{
    const std::uint64_t n = 20'000;
    bench::SweepRunner sweep(3);
    sweep.queue("astar", "LRU", n);
    sweep.queue("astar", "SHiP++", n);
    auto outcome = sweep.runChecked(hermeticOptions());
    ASSERT_EQ(outcome.cells.size(), 2u);
    EXPECT_FALSE(outcome.degraded());

    expectSameResult(outcome.at("astar/LRU").row,
                     runOn(workloads::cachedTrace("astar", n), "LRU"));
    expectSameResult(outcome.at("astar/SHiP++").row,
                     runOn(workloads::cachedTrace("astar", n), "SHiP++"));
    EXPECT_THROW(outcome.at("astar/MIN"), std::out_of_range);
}

TEST(SweepRunner, ParallelMapPreservesItemOrder)
{
    std::vector<int> items(50);
    for (int i = 0; i < 50; ++i)
        items[i] = i;
    auto out = bench::parallelMap(
        items,
        [](int x) {
            if (x % 7 == 0) // stagger completion order
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(2));
            return x * 3;
        },
        4);
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(out[i], i * 3);
}

} // namespace
} // namespace glider
