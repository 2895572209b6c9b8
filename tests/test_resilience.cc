/**
 * @file
 * Tests for src/resilience and the checked SweepRunner: fault-plan
 * parsing, per-cell containment/retry/deadline semantics, cooperative
 * simulator cancellation, checkpoint encode/decode and byte-identity,
 * and checkpoint resume (including the determinism recomputation
 * check against tampered rows).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_common.hh"
#include "cachesim/basic_lru.hh"
#include "verify/invariants.hh"

namespace glider {
namespace resilience {
namespace {

/** Deterministic synthetic result row for checkpoint tests. */
sim::SingleCoreResult
makeRow(const std::string &name, double ipc)
{
    sim::SingleCoreResult r;
    r.workload = name;
    r.policy = "TestPolicy";
    r.instructions = 1000;
    r.cycles = 2500.5;
    r.ipc = ipc;
    r.llc.accesses = 400;
    r.llc.hits = 300;
    r.llc.misses = 100;
    r.llc.bypasses = 7;
    r.llc.evictions = 93;
    r.accesses_simulated = 400;
    r.predictor.events = 50;
    r.predictor.correct = 40;
    r.sim_seconds = 1.25; // wall time: must not survive encoding
    return r;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Fast retry budget so quarantine tests don't sleep for real. */
RecoveryOptions
fastRecovery(int max_attempts)
{
    RecoveryOptions opts;
    opts.max_attempts = max_attempts;
    opts.backoff_initial_ms = 1;
    opts.backoff_max_ms = 2;
    return opts;
}

TEST(FaultPlan, ParsesAllClauseKinds)
{
    auto plan = FaultPlan::parse(
        "throw@a/LRU;flaky:2@b;hang@c;abort@d;random:0.5:42");
    ASSERT_EQ(plan.clauses().size(), 5u);
    EXPECT_EQ(plan.clauses()[0].kind, FaultPlan::Kind::Throw);
    EXPECT_EQ(plan.clauses()[0].key, "a/LRU");
    EXPECT_EQ(plan.clauses()[1].kind, FaultPlan::Kind::Flaky);
    EXPECT_EQ(plan.clauses()[1].flaky_attempts, 2);
    EXPECT_EQ(plan.clauses()[2].kind, FaultPlan::Kind::Hang);
    EXPECT_EQ(plan.clauses()[3].kind, FaultPlan::Kind::Abort);
    EXPECT_EQ(plan.clauses()[4].kind, FaultPlan::Kind::Random);
    EXPECT_DOUBLE_EQ(plan.clauses()[4].probability, 0.5);
    EXPECT_EQ(plan.clauses()[4].seed, 42u);
}

TEST(FaultPlan, RejectsMalformedClauses)
{
    EXPECT_THROW(FaultPlan::parse("explode@x"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("throw"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("flaky:0@x"), std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("random:1.5:7"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("random:0.5:7@key"),
                 std::invalid_argument);
}

TEST(RunCell, FlakyCellSucceedsAfterRetries)
{
    auto plan = FaultPlan::parse("flaky:2@cell");
    auto res = runCell<int>(
        "cell", [](const CancelToken &) { return 7; }, fastRecovery(3),
        &plan);
    EXPECT_EQ(res.status, CellStatus::Ok);
    EXPECT_EQ(res.attempts, 3);
    ASSERT_TRUE(res.value.has_value());
    EXPECT_EQ(*res.value, 7);
}

TEST(RunCell, ExhaustedRetriesQuarantine)
{
    auto plan = FaultPlan::parse("throw@cell");
    auto res = runCell<int>(
        "cell", [](const CancelToken &) { return 7; }, fastRecovery(3),
        &plan);
    EXPECT_EQ(res.status, CellStatus::Quarantined);
    EXPECT_EQ(res.attempts, 3);
    EXPECT_FALSE(res.value.has_value());
    EXPECT_NE(res.error.find("cell"), std::string::npos);
}

TEST(RunCell, InvariantViolationIsContained)
{
    auto res = runCell<int>(
        "cell",
        [](const CancelToken &) -> int {
            throw verify::InvariantViolation("occupancy over capacity");
        },
        fastRecovery(1));
    EXPECT_EQ(res.status, CellStatus::Quarantined);
    EXPECT_EQ(res.error, "occupancy over capacity");
}

TEST(RunCell, DeadlineCancelsHungCell)
{
    auto plan = FaultPlan::parse("hang@cell");
    auto opts = fastRecovery(1);
    opts.deadline_ms = 30;
    auto res = runCell<int>(
        "cell", [](const CancelToken &) { return 7; }, opts, &plan);
    EXPECT_EQ(res.status, CellStatus::Quarantined);
    EXPECT_NE(res.error.find("cancelled"), std::string::npos);
}

TEST(RunCell, ParentCancelStopsRetries)
{
    CancelToken parent;
    parent.cancel();
    auto plan = FaultPlan::parse("throw@cell");
    auto res = runCell<int>(
        "cell", [](const CancelToken &) { return 7; }, fastRecovery(3),
        &plan, &parent);
    EXPECT_EQ(res.status, CellStatus::Quarantined);
    EXPECT_EQ(res.attempts, 1); // a cancelled sweep is not retried
}

TEST(Cancellation, SimulatorLoopHonoursToken)
{
    traces::Trace t("cancelled");
    for (std::uint64_t i = 0; i < 10'000; ++i)
        t.push(0x400000, i * 64);
    CancelToken token;
    token.cancel();
    sim::SimOptions opts;
    opts.cancel = &token;
    EXPECT_THROW(sim::runSingleCore(
                     t, std::make_unique<sim::BasicLruPolicy>(), opts),
                 CancelledError);
}

TEST(Checkpoint, EncodeDecodeRoundTrips)
{
    auto row = makeRow("astar", 0.123456789);
    auto encoded = encodeResult(row);
    auto decoded = decodeResult(encoded);
    EXPECT_EQ(decoded.workload, row.workload);
    EXPECT_EQ(decoded.policy, row.policy);
    EXPECT_EQ(decoded.instructions, row.instructions);
    EXPECT_DOUBLE_EQ(decoded.cycles, row.cycles);
    EXPECT_DOUBLE_EQ(decoded.ipc, row.ipc);
    EXPECT_EQ(decoded.llc.accesses, row.llc.accesses);
    EXPECT_EQ(decoded.llc.hits, row.llc.hits);
    EXPECT_EQ(decoded.llc.misses, row.llc.misses);
    EXPECT_EQ(decoded.llc.bypasses, row.llc.bypasses);
    EXPECT_EQ(decoded.llc.evictions, row.llc.evictions);
    EXPECT_EQ(decoded.accesses_simulated, row.accesses_simulated);
    EXPECT_EQ(decoded.predictor.events, row.predictor.events);
    EXPECT_EQ(decoded.predictor.correct, row.predictor.correct);
    // Wall time is excluded from the checkpoint by design.
    EXPECT_EQ(decoded.sim_seconds, 0.0);
    EXPECT_TRUE(encodeResult(decoded) == encoded);
}

TEST(Checkpoint, DecodeRejectsEveryMissingField)
{
    const auto full = encodeResult(makeRow("a", 1.0));
    for (const auto &dropped : full.members()) {
        auto cut = obs::json::Value::object();
        for (const auto &[k, v] : full.members())
            if (k != dropped.first)
                cut[k] = v;
        EXPECT_THROW(decodeResult(cut), std::runtime_error)
            << dropped.first;
    }
}

TEST(Checkpoint, RecordsAndReloads)
{
    const std::string path = tempPath("ckpt_reload.json");
    std::remove(path.c_str());
    obs::json::Value config = obs::json::Value::object();
    config["accesses"] =
        obs::json::Value(static_cast<std::uint64_t>(1000));
    {
        SweepCheckpoint ckpt(path, "unit", config);
        EXPECT_EQ(ckpt.load(), 0u);
        ckpt.record("a/LRU", encodeResult(makeRow("a", 1.0)));
        ckpt.record("b/LRU", encodeResult(makeRow("b", 2.0)));
    }
    SweepCheckpoint reloaded(path, "unit", config);
    EXPECT_EQ(reloaded.load(), 2u);
    const auto *row = reloaded.find("a/LRU");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(decodeResult(*row).workload, "a");
    EXPECT_EQ(reloaded.find("missing"), nullptr);
    std::remove(path.c_str());
}

TEST(Checkpoint, ConfigFingerprintMismatchDiscards)
{
    const std::string path = tempPath("ckpt_config.json");
    std::remove(path.c_str());
    obs::json::Value config = obs::json::Value::object();
    config["accesses"] =
        obs::json::Value(static_cast<std::uint64_t>(1000));
    {
        SweepCheckpoint ckpt(path, "unit", config);
        ckpt.record("a/LRU", encodeResult(makeRow("a", 1.0)));
    }
    obs::json::Value other = obs::json::Value::object();
    other["accesses"] =
        obs::json::Value(static_cast<std::uint64_t>(2000));
    SweepCheckpoint stale(path, "unit", other);
    EXPECT_EQ(stale.load(), 0u);
    std::remove(path.c_str());
}

TEST(Checkpoint, FileBytesIndependentOfRecordOrder)
{
    const std::string path_ab = tempPath("ckpt_ab.json");
    const std::string path_ba = tempPath("ckpt_ba.json");
    std::remove(path_ab.c_str());
    std::remove(path_ba.c_str());
    obs::json::Value config = obs::json::Value::object();
    auto row_a = encodeResult(makeRow("a", 1.25));
    auto row_b = encodeResult(makeRow("b", 2.5));
    {
        SweepCheckpoint ckpt(path_ab, "unit", config);
        ckpt.record("a/LRU", row_a);
        ckpt.record("b/LRU", row_b);
    }
    {
        SweepCheckpoint ckpt(path_ba, "unit", config);
        ckpt.record("b/LRU", row_b);
        ckpt.record("a/LRU", row_a);
    }
    const std::string bytes = slurp(path_ab);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, slurp(path_ba));
    std::remove(path_ab.c_str());
    std::remove(path_ba.c_str());
}

/** SweepOptions with no env dependence, for hermetic runner tests. */
bench::SweepRunner::SweepOptions
hermeticOptions(const FaultPlan *faults = nullptr)
{
    bench::SweepRunner::SweepOptions opts;
    opts.sweep_name = "unit";
    opts.config = obs::json::Value::object();
    opts.recovery = fastRecovery(1);
    opts.verify_resumed = 0;
    opts.faults = faults;
    return opts;
}

TEST(SweepRunner, FaultQuarantinesOnlyTargetCell)
{
    auto plan = FaultPlan::parse("throw@bad");
    bench::SweepRunner sweep(2);
    for (const std::string key : {"good1", "bad", "good2"}) {
        sweep.queueCell(key, [key](const CancelToken &) {
            return makeRow(key, 1.5);
        });
    }
    auto outcome = sweep.runChecked(hermeticOptions(&plan));
    ASSERT_EQ(outcome.cells.size(), 3u);
    EXPECT_TRUE(outcome.degraded());
    EXPECT_TRUE(outcome.cells[0].ok());
    EXPECT_FALSE(outcome.cells[1].ok());
    EXPECT_TRUE(outcome.cells[2].ok());
    // Siblings of the quarantined cell completed with real rows.
    EXPECT_EQ(outcome.cells[0].row.workload, "good1");
    EXPECT_EQ(outcome.cells[2].row.workload, "good2");
    EXPECT_EQ(outcome.cells[1].status, CellStatus::Quarantined);
    EXPECT_NE(outcome.cells[1].error.find("bad"), std::string::npos);
}

TEST(SweepRunner, ResumeSkipsCompletedCellsAndConverges)
{
    const std::string full_path = tempPath("sweep_full.json");
    const std::string part_path = tempPath("sweep_part.json");
    std::remove(full_path.c_str());
    std::remove(part_path.c_str());
    const std::vector<std::string> keys = {"a/LRU", "b/LRU", "c/LRU"};

    std::atomic<int> invocations{0};
    auto queueAll = [&](bench::SweepRunner &sweep) {
        for (const auto &key : keys) {
            sweep.queueCell(key, [key, &invocations](
                                     const CancelToken &) {
                ++invocations;
                return makeRow(key, 3.0);
            });
        }
    };

    // Uninterrupted reference run.
    {
        bench::SweepRunner sweep(2);
        queueAll(sweep);
        auto opts = hermeticOptions();
        opts.checkpoint_path = full_path;
        auto outcome = sweep.runChecked(opts);
        EXPECT_FALSE(outcome.degraded());
        EXPECT_EQ(outcome.resumed, 0u);
    }
    EXPECT_EQ(invocations.load(), 3);

    // Simulated interrupted run: only the first cell got recorded.
    {
        SweepCheckpoint partial(part_path, "unit",
                                obs::json::Value::object());
        partial.record(keys[0], encodeResult(makeRow(keys[0], 3.0)));
    }
    invocations = 0;
    {
        bench::SweepRunner sweep(2);
        queueAll(sweep);
        auto opts = hermeticOptions();
        opts.checkpoint_path = part_path;
        auto outcome = sweep.runChecked(opts);
        EXPECT_FALSE(outcome.degraded());
        EXPECT_EQ(outcome.resumed, 1u);
        ASSERT_EQ(outcome.cells.size(), 3u);
        EXPECT_EQ(outcome.cells[0].status, CellStatus::Resumed);
        EXPECT_EQ(outcome.cells[0].row.workload, "a/LRU");
    }
    // Only the two missing cells were recomputed...
    EXPECT_EQ(invocations.load(), 2);
    // ...and the resumed checkpoint is byte-identical to the
    // uninterrupted one.
    const std::string bytes = slurp(full_path);
    EXPECT_FALSE(bytes.empty());
    EXPECT_EQ(bytes, slurp(part_path));
    std::remove(full_path.c_str());
    std::remove(part_path.c_str());
}

TEST(SweepRunner, VerifyDetectsTamperedResumedRow)
{
    const std::string path = tempPath("sweep_tamper.json");
    std::remove(path.c_str());
    {
        // The checkpointed row does not match what the cell computes.
        SweepCheckpoint ckpt(path, "unit", obs::json::Value::object());
        ckpt.record("a/LRU", encodeResult(makeRow("a/LRU", 99.0)));
    }
    bench::SweepRunner sweep(1);
    sweep.queueCell("a/LRU", [](const CancelToken &) {
        return makeRow("a/LRU", 3.0);
    });
    auto opts = hermeticOptions();
    opts.checkpoint_path = path;
    opts.verify_resumed = 1;
    EXPECT_THROW(sweep.runChecked(opts), CheckpointMismatch);
    std::remove(path.c_str());
}

TEST(SweepRunner, VerifyAcceptsDeterministicResumedRow)
{
    const std::string path = tempPath("sweep_verify_ok.json");
    std::remove(path.c_str());
    {
        SweepCheckpoint ckpt(path, "unit", obs::json::Value::object());
        ckpt.record("a/LRU", encodeResult(makeRow("a/LRU", 3.0)));
    }
    bench::SweepRunner sweep(1);
    sweep.queueCell("a/LRU", [](const CancelToken &) {
        return makeRow("a/LRU", 3.0);
    });
    auto opts = hermeticOptions();
    opts.checkpoint_path = path;
    opts.verify_resumed = 1;
    auto outcome = sweep.runChecked(opts);
    ASSERT_EQ(outcome.cells.size(), 1u);
    EXPECT_EQ(outcome.cells[0].status, CellStatus::Resumed);
    std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedRowIsDroppedAndRecomputed)
{
    const std::string path = tempPath("ckpt_truncated.json");
    std::remove(path.c_str());
    const std::vector<std::string> keys = {"a/LRU", "b/LRU", "c/LRU"};
    {
        // A schema-valid file whose b/LRU row was cut short.
        SweepCheckpoint ckpt(path, "unit", obs::json::Value::object());
        for (const auto &key : keys)
            ckpt.record(key, encodeResult(makeRow(key, 3.0)));
        auto truncated = obs::json::Value::object();
        truncated["workload"] = "b/LRU";
        ckpt.record("b/LRU", truncated);
    }
    auto run = [&](const std::string &ckpt_path) {
        bench::SweepRunner sweep(2);
        for (const auto &key : keys) {
            sweep.queueCell(key, [key](const CancelToken &) {
                return makeRow(key, 3.0);
            });
        }
        auto opts = hermeticOptions();
        opts.checkpoint_path = ckpt_path;
        return sweep.runChecked(opts);
    };
    const auto resumed = run(path);
    EXPECT_EQ(resumed.resumed, 2u); // b/LRU was dropped and recomputed
    const auto fresh = run("");
    for (std::size_t i = 0; i < keys.size(); ++i) {
        EXPECT_EQ(encodeResult(resumed.cells[i].row).dump(),
                  encodeResult(fresh.cells[i].row).dump());
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace resilience
} // namespace glider
