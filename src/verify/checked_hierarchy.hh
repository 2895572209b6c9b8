/**
 * @file
 * Invariant-checking wrapper around the three-level hierarchy.
 *
 * CheckedHierarchy owns a sim::Hierarchy whose LLC policy is wrapped
 * in a CheckedPolicy, and after every access cross-checks state that
 * no single module can see on its own:
 *
 *  - counter coherence at every level (hits + misses == accesses,
 *    bypasses and evictions bounded by misses/insertions);
 *  - access-flow conservation (per-core L1 misses == L2 accesses;
 *    summed L2 misses == LLC accesses; per-core LLC counters sum to
 *    the LLC's own stats);
 *  - depth consistency (the depth returned by access() matches which
 *    level's counters moved);
 *  - warmup accounting (clearStatsCounters() re-baselines every
 *    counter consistently, so post-warmup totals still reconcile
 *    against the protocol-derived event counts).
 *
 * Violations throw verify::InvariantViolation.
 */

#ifndef GLIDER_VERIFY_CHECKED_HIERARCHY_HH
#define GLIDER_VERIFY_CHECKED_HIERARCHY_HH

#include <memory>

#include "cachesim/hierarchy.hh"
#include "checked_policy.hh"

namespace glider {
namespace verify {

/** Hierarchy wrapper running a full invariant sweep per access. */
class CheckedHierarchy
{
  public:
    /**
     * @param config Level shapes and latencies.
     * @param cores Number of cores (private L1/L2 each).
     * @param llc_policy LLC policy under test; wrapped in a
     *        CheckedPolicy (with @p options) before installation.
     */
    CheckedHierarchy(const sim::HierarchyConfig &config, unsigned cores,
                     std::unique_ptr<sim::ReplacementPolicy> llc_policy,
                     CheckedPolicy::Options options
                     = CheckedPolicy::Options());

    /** Forward one access, then verify all structural invariants. */
    sim::AccessDepth access(std::uint8_t core, std::uint64_t pc,
                            std::uint64_t byte_addr, bool is_write);

    /** Forward a warmup reset, keeping the baselines reconciled. */
    void clearStatsCounters();

    /** Run the full invariant sweep on demand (e.g. end of run). */
    void check() const;

    sim::Hierarchy &hierarchy() { return *hier_; }

  private:
    static void checkCacheCounters(const sim::Cache &cache,
                                   const char *level);

    std::unique_ptr<sim::Hierarchy> hier_;
    CheckedPolicy *checker_; //!< owned by the hierarchy's LLC
    unsigned cores_;
    /** CheckedPolicy event counts at the last stats reset. */
    std::uint64_t base_hits_ = 0;
    std::uint64_t base_misses_ = 0;
    std::uint64_t base_evictions_ = 0;
    std::uint64_t base_bypasses_ = 0;
};

} // namespace verify
} // namespace glider

#endif // GLIDER_VERIFY_CHECKED_HIERARCHY_HH
