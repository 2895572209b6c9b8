/**
 * @file
 * Invariant-checking decorator for replacement policies.
 *
 * CheckedPolicy wraps any ReplacementPolicy and mirrors the cache's
 * tag array from the event protocol alone (victimWay / onHit /
 * onEvict / onInsert). Because the shadow state is derived
 * independently of the cache's own tag array, any disagreement
 * between the two — duplicate tags in a set, a hit reported for a
 * way that does not hold the block, an out-of-bounds victim, a
 * missing or spurious onEvict — is caught on the exact access that
 * introduces it, with an InvariantViolation naming the failure.
 *
 * The wrapper is behaviour-transparent: every event is forwarded to
 * the inner policy unchanged and name() forwards too, so result
 * tables are byte-identical with and without checking. A build
 * configured with -DGLIDER_CHECKED=ON wraps every factory-created
 * policy (see core::makePolicy); default builds pay nothing.
 */

#ifndef GLIDER_VERIFY_CHECKED_POLICY_HH
#define GLIDER_VERIFY_CHECKED_POLICY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cachesim/replacement.hh"

namespace glider {
namespace verify {

/** Replacement-policy decorator asserting protocol invariants. */
class CheckedPolicy : public sim::ReplacementPolicy
{
  public:
    struct Options
    {
        /**
         * Additionally verify victim selection against a true-LRU
         * reference model (valid only when wrapping an LRU policy):
         * the victim must be an invalid way if one exists, otherwise
         * the least recently touched way.
         */
        bool verify_lru = false;
    };

    explicit CheckedPolicy(std::unique_ptr<sim::ReplacementPolicy> inner);
    CheckedPolicy(std::unique_ptr<sim::ReplacementPolicy> inner,
                  Options options);

    /** Forwarded so experiment tables are unchanged by wrapping. */
    std::string name() const override { return inner_->name(); }

    /** Forwarded so telemetry is unchanged by wrapping. */
    void
    exportMetrics(obs::Registry &registry,
                  const std::string &prefix) const override
    {
        inner_->exportMetrics(registry, prefix);
    }

    /** Forwarded so online accuracy is unchanged by wrapping. */
    sim::PredictorAccuracy
    predictorAccuracy() const override
    {
        return inner_->predictorAccuracy();
    }

    void reset(const sim::CacheGeometry &geom) override;
    std::uint32_t victimWay(const sim::ReplacementAccess &access,
                            sim::SetView lines) override;
    void onHit(const sim::ReplacementAccess &access,
               std::uint32_t way) override;
    void onEvict(const sim::ReplacementAccess &access, std::uint32_t way,
                 const sim::LineView &victim) override;
    void onInsert(const sim::ReplacementAccess &access,
                  std::uint32_t way) override;

    /** Event counters, for cross-checking against CacheStats. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t bypasses() const { return bypasses_; }

    sim::ReplacementPolicy &inner() { return *inner_; }

  private:
    /** Shadow copy of one tag-array line, plus an LRU stamp. */
    struct ShadowLine
    {
        bool valid = false;
        std::uint64_t block = 0;
        std::uint64_t last_touch = 0;
    };

    /** Where in the miss protocol the current access stands. */
    enum class Phase { Idle, AfterVictim };

    ShadowLine *row(std::uint64_t set) { return &shadow_[set * ways()]; }
    std::uint32_t ways() const { return geom_.ways; }
    void checkSetIndex(const sim::ReplacementAccess &access,
                       const char *event) const;
    /** Way (if any) of @p set's shadow row holding @p block. */
    std::uint32_t findBlock(std::uint64_t set, std::uint64_t block);

    std::unique_ptr<sim::ReplacementPolicy> inner_;
    Options options_;
    sim::CacheGeometry geom_;
    std::vector<ShadowLine> shadow_;
    std::uint64_t clock_ = 0;

    Phase phase_ = Phase::Idle;
    std::uint64_t pending_set_ = 0;
    std::uint64_t pending_block_ = 0;
    std::uint32_t pending_way_ = 0;
    bool pending_evict_needed_ = false;
    bool evict_seen_ = false;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t bypasses_ = 0;
};

/** Wrap @p policy in a CheckedPolicy (convenience for harnesses). */
std::unique_ptr<sim::ReplacementPolicy>
checkedPolicy(std::unique_ptr<sim::ReplacementPolicy> policy,
              CheckedPolicy::Options options = CheckedPolicy::Options());

} // namespace verify
} // namespace glider

#endif // GLIDER_VERIFY_CHECKED_POLICY_HH
