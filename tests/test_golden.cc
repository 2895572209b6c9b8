/**
 * @file
 * Golden-trace regression tests: exact LLC counter values for LRU,
 * Hawkeye, and Glider on two committed fixed-seed traces.
 *
 * Unlike the property tests, these pin *specific numbers*, so any
 * behavioural drift in the simulator, the protocol, or a policy's
 * decision sequence shows up as a diff against the table below —
 * even when it leaves qualitative orderings intact.
 *
 * The traces live in tests/data as gtrace files, are replayed through
 * sim::StreamingSource, and are regenerated only on purpose with
 * golden_tracegen (see its header). On mismatch the assertion
 * message prints the full actual row so the table can be refreshed
 * after an *intentional* behaviour change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>

#include "cachesim/access_source.hh"
#include "cachesim/simulator.hh"
#include "core/policy_factory.hh"
#include "traces/gtrace.hh"

#ifndef GLIDER_TEST_DATA_DIR
#define GLIDER_TEST_DATA_DIR "tests/data"
#endif

namespace glider {
namespace {

/** One pinned result row: measured-phase LLC counters. */
struct GoldenRow
{
    const char *policy;
    std::uint64_t accesses;
    std::uint64_t hits;
    std::uint64_t misses;
    std::uint64_t evictions;
    std::uint64_t bypasses;
};

/**
 * Print a row as its policy name. gtest puts the printed parameter
 * into the test listing, and ctest names the discovered test after
 * it, so the name must not depend on where the row lives in memory.
 */
void
PrintTo(const GoldenRow &row, std::ostream *os)
{
    *os << row.policy;
}

/**
 * Small hierarchy (Table 1 shrunk 32x) so the 24K-access traces
 * produce real LLC pressure: 4KB/8 L1, 16KB/8 L2, 64KB/16 LLC.
 */
sim::SimOptions
goldenOpts()
{
    sim::SimOptions opts;
    opts.hierarchy.l1.size_bytes = 4 * 1024;
    opts.hierarchy.l2.size_bytes = 16 * 1024;
    opts.hierarchy.llc.size_bytes = 64 * 1024;
    opts.warmup_fraction = 0.2;
    return opts;
}

/**
 * Open the committed golden gtrace @p name for replay. Fails the
 * current test and returns nothing when the file is missing or
 * does not validate.
 */
std::optional<sim::StreamingSource>
goldenSource(const std::string &name)
{
    std::string path = std::string(GLIDER_TEST_DATA_DIR) + "/" + name
        + ".gtrace";
    traces::StreamingTrace trace;
    std::string error;
    if (!trace.open(path, &error)) {
        ADD_FAILURE() << "cannot open golden trace " << path << ": "
                      << error;
        return std::nullopt;
    }
    std::optional<sim::StreamingSource> source;
    source.emplace(std::move(trace));
    return source;
}

std::string
formatRow(const std::string &policy, const sim::CacheStats &llc)
{
    std::ostringstream os;
    // glider-lint: allow(json-outside-obs) C++ initializer row for
    // pasting into the golden table, not machine-readable output
    os << "{\"" << policy << "\", " << llc.accesses << ", " << llc.hits
       << ", " << llc.misses << ", " << llc.evictions << ", "
       << llc.bypasses << "},";
    return os.str();
}

void
checkGolden(const std::string &trace_name, const GoldenRow &row)
{
    auto source = goldenSource(trace_name);
    ASSERT_TRUE(source.has_value());
    ASSERT_GT(source->size(), 0u);
    auto res = sim::runSingleCore(*source, core::makePolicy(row.policy),
                                  goldenOpts());
    EXPECT_TRUE(res.llc.accesses == row.accesses
                && res.llc.hits == row.hits
                && res.llc.misses == row.misses
                && res.llc.evictions == row.evictions
                && res.llc.bypasses == row.bypasses)
        << trace_name << " actual: " << formatRow(row.policy, res.llc);
    // Internal coherence regardless of the pinned numbers.
    EXPECT_EQ(res.llc.hits + res.llc.misses, res.llc.accesses);
    EXPECT_LE(res.llc.bypasses, res.llc.misses);
}

// clang-format off
const GoldenRow kGoldenMix[] = {
    {"LRU", 13073, 916, 12157, 12157, 0},
    {"Hawkeye", 13073, 4252, 8821, 8821, 0},
    {"Glider", 13073, 3260, 9813, 9813, 0},
    {"FRD", 13073, 3686, 9387, 9387, 0},
    {"MUSTACHE", 13073, 914, 12159, 12159, 0},
    {"COALESCE", 13073, 5112, 7961, 1369, 6592},
    {"EntropyAge", 13073, 1052, 12021, 12021, 0},
    {"DecayCount", 13073, 1997, 11076, 11076, 0},
};
const GoldenRow kGoldenScan[] = {
    {"LRU", 18275, 1346, 16929, 16929, 0},
    {"Hawkeye", 18275, 6211, 12064, 12064, 0},
    {"Glider", 18275, 6428, 11847, 11847, 0},
    {"FRD", 18275, 5593, 12682, 12682, 0},
    {"MUSTACHE", 18275, 1346, 16929, 16929, 0},
    {"COALESCE", 18275, 2372, 15903, 12147, 3756},
    {"EntropyAge", 18275, 1535, 16740, 16740, 0},
    {"DecayCount", 18275, 1889, 16386, 16386, 0},
};
// clang-format on

class GoldenMix : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(GoldenMix, ExactLlcCounters)
{
    checkGolden("golden_mix", GetParam());
}

INSTANTIATE_TEST_SUITE_P(GoldenTraces, GoldenMix,
                         ::testing::ValuesIn(kGoldenMix));

class GoldenScan : public ::testing::TestWithParam<GoldenRow>
{
};

TEST_P(GoldenScan, ExactLlcCounters)
{
    checkGolden("golden_scan", GetParam());
}

INSTANTIATE_TEST_SUITE_P(GoldenTraces, GoldenScan,
                         ::testing::ValuesIn(kGoldenScan));

TEST(GoldenTraces, LlcStreamIsPolicyIndependent)
{
    // All pinned rows for one trace must agree on `accesses`: the
    // LLC sees the same stream under any LLC policy. (Bypassed
    // fills still count as LLC accesses, so COALESCE agrees too.)
    for (const auto &table : {std::span<const GoldenRow>(kGoldenMix),
                              std::span<const GoldenRow>(kGoldenScan)}) {
        for (const auto &row : table)
            EXPECT_EQ(row.accesses, table.front().accesses)
                << row.policy;
    }
}

/** Expect @p name to hold 24000 records whose pc+address sum is @p sum. */
void
expectChecksum(const std::string &name, std::uint64_t sum)
{
    auto source = goldenSource(name);
    ASSERT_TRUE(source.has_value());
    EXPECT_EQ(source->size(), 24000u) << name;
    std::uint64_t records = 0;
    std::uint64_t actual = 0;
    for (auto chunk = source->nextChunk(); !chunk.empty();
         chunk = source->nextChunk()) {
        for (const auto &r : chunk) {
            ++records;
            actual += r.address + r.pc;
        }
    }
    EXPECT_EQ(records, 24000u) << name;
    EXPECT_EQ(actual, sum) << name;
}

TEST(GoldenTraces, CommittedTracesMatchGenerator)
{
    // Guard against silent regeneration drift: sizes and a cheap
    // checksum over the committed files. (The golden_tracegen_*
    // ctest entries byte-compare them with a fresh generator run.)
    expectChecksum("golden_mix", 631442058068u);
    expectChecksum("golden_scan", 129825709316u);
}

} // namespace
} // namespace glider
