/**
 * @file
 * Pins the OPTgen training-event stream that Hawkeye and Glider see.
 *
 * Both predictors learn from the order and content of the events the
 * shared sampler/OPTgen path hands to onTrainingEvent, so a change to
 * that path (drain order, sampled-set choice, event fields) that
 * still lands on the same miss counts could silently retrain them on
 * a different stream. These tests fold every event into one hash and
 * compare it with a pinned value; any reordering or field change
 * moves the hash.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cachesim/simulator.hh"
#include "common/hash.hh"
#include "core/glider_policy.hh"
#include "policies/hawkeye.hh"
#include "workloads/registry.hh"

namespace glider {
namespace {

/** Running hash and count of the events one policy trained on. */
struct EventDigest
{
    std::uint64_t hash = 0;
    std::uint64_t events = 0;

    void
    fold(const opt::TrainingEvent &ev)
    {
        std::uint64_t flags = (ev.opt_hit ? 1u : 0u)
            | (ev.predicted_friendly ? 2u : 0u)
            | (ev.prediction_valid ? 4u : 0u);
        std::uint64_t h = hashCombine(hash, ev.pc);
        h = hashCombine(h, ev.block);
        h = hashCombine(h, ev.core);
        h = hashCombine(h, flags);
        h = hashCombine(h, ev.history.size());
        for (std::uint64_t pc : ev.history)
            h = hashCombine(h, pc);
        hash = h;
        ++events;
    }
};

/** Wraps @p Base so every training event is folded into a digest. */
template <typename Base>
class DigestingPolicy : public Base
{
  public:
    explicit DigestingPolicy(EventDigest *digest) : digest_(digest) {}

  protected:
    void
    onTrainingEvent(const opt::TrainingEvent &event) override
    {
        digest_->fold(event);
        Base::onTrainingEvent(event);
    }

  private:
    EventDigest *digest_;
};

std::unique_ptr<sim::ReplacementPolicy>
digestingPolicy(const std::string &name, EventDigest *digest)
{
    if (name == "Hawkeye")
        return std::make_unique<DigestingPolicy<policies::HawkeyePolicy>>(
            digest);
    return std::make_unique<DigestingPolicy<core::GliderPolicy>>(digest);
}

struct Pin
{
    const char *workload;
    const char *policy;
    std::uint64_t events;
    std::uint64_t hash;
};

// Single-core runs: default hierarchy (2048-set LLC, 64 sampled sets),
// 100k accesses of four Figure 11 workloads that each yield hundreds
// of training events or more at that length.
const Pin kSingleCorePins[] = {
    {"bfs", "Hawkeye", 12447, 0xb62d74928b66fec3ull},
    {"bfs", "Glider", 12447, 0xc700a83fc76327b0ull},
    {"xalancbmk", "Hawkeye", 958, 0xe8019dbf121573cfull},
    {"xalancbmk", "Glider", 958, 0xfb61fd4f4c8007c9ull},
    {"cc", "Hawkeye", 317, 0x8fef210abeb64dceull},
    {"cc", "Glider", 317, 0x4e9c9c390a195179ull},
    {"soplex", "Hawkeye", 323, 0xfb49dc158a5086dfull},
    {"soplex", "Glider", 323, 0xc9378e00fe94c02ull},
};

TEST(TrainingStream, SingleCoreEventStreamIsPinned)
{
    for (const Pin &pin : kSingleCorePins) {
        const auto &trace = workloads::cachedTrace(pin.workload, 100'000);
        EventDigest digest;
        sim::runSingleCore(trace, digestingPolicy(pin.policy, &digest));
        EXPECT_EQ(digest.events, pin.events)
            << pin.workload << "/" << pin.policy;
        EXPECT_EQ(digest.hash, pin.hash)
            << pin.workload << "/" << pin.policy << std::hex
            << " hash 0x" << digest.hash;
    }
}

// The 4-core mix of the repository benchmark: an 8192-set shared LLC
// with 256 sampled sets and events from every core.
const Pin kMultiCorePins[] = {
    {"mix4", "Hawkeye", 8667, 0x7b15807b5e9d0666ull},
    {"mix4", "Glider", 8155, 0x7fde7a3918adccafull},
};

TEST(TrainingStream, FourCoreEventStreamIsPinned)
{
    std::vector<const traces::Trace *> traces;
    for (const char *name : {"gcc", "xalancbmk", "sphinx3", "libquantum"})
        traces.push_back(&workloads::cachedTrace(name, 60'000));
    sim::SimOptions opts;
    opts.hierarchy = sim::HierarchyConfig::forCores(4);
    for (const Pin &pin : kMultiCorePins) {
        EventDigest digest;
        sim::runMultiCore(traces, digestingPolicy(pin.policy, &digest),
                          60'000, opts);
        EXPECT_EQ(digest.events, pin.events) << pin.policy;
        EXPECT_EQ(digest.hash, pin.hash)
            << pin.policy << std::hex << " hash 0x" << digest.hash;
    }
}

} // namespace
} // namespace glider
