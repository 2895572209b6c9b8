/**
 * @file
 * A set-associative cache with pluggable replacement.
 *
 * Tag state lives here; all replacement metadata lives in the policy.
 * The model is access-atomic (lookup and fill happen in one step, no
 * MSHRs): for replacement-policy studies what matters is the access
 * and eviction stream each level observes, which this preserves.
 */

#ifndef GLIDER_CACHESIM_CACHE_HH
#define GLIDER_CACHESIM_CACHE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache_config.hh"
#include "obs/metrics.hh"
#include "replacement.hh"

namespace glider {
namespace sim {

/** Hit/miss statistics for one cache. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
    std::uint64_t evictions = 0; //!< misses that displaced a valid line

    double
    missRate() const
    {
        return accesses
            ? static_cast<double>(misses) / static_cast<double>(accesses)
            : 0.0;
    }
};

/** One set-associative cache level. */
class Cache
{
  public:
    /**
     * @param config Geometry and latency.
     * @param policy Replacement policy; the cache takes ownership.
     * @param cores Number of cores sharing this cache.
     * @throws std::invalid_argument if @p config holds no whole set.
     */
    Cache(const CacheConfig &config,
          std::unique_ptr<ReplacementPolicy> policy, unsigned cores = 1);

    /**
     * Perform one access: on a hit the policy's onHit fires; on a
     * miss the policy chooses a victim (or bypasses) and the line is
     * filled.
     * @param block_addr Block address; never LineView::kInvalid, the
     *        invalid-way sentinel (traces::blockAddr cannot produce it).
     * @return true on hit.
     */
    bool access(std::uint8_t core, std::uint64_t pc,
                std::uint64_t block_addr, bool is_write);

    /** True if @p block_addr is currently resident (no side effects). */
    bool probe(std::uint64_t block_addr) const;

    const CacheStats &stats() const { return stats_; }
    const CacheConfig &config() const { return config_; }
    ReplacementPolicy &policy() { return *policy_; }
    const ReplacementPolicy &policy() const { return *policy_; }

    /** Clear tags and stats and reset the policy. */
    void reset();

    /** Zero the hit/miss counters without disturbing cache state. */
    void clearStats() { stats_ = CacheStats{}; }

    /**
     * Snapshot stats (and, in GLIDER_METRICS builds, the occupancy-
     * at-miss histogram) into @p registry under @p prefix. Safe to
     * call repeatedly; counters are overwritten, not accumulated.
     */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;

  private:
    std::uint64_t setIndex(std::uint64_t block_addr) const
    {
        return block_addr & (num_sets_ - 1);
    }

    CacheConfig config_;
    std::unique_ptr<ReplacementPolicy> policy_;
    std::uint64_t num_sets_;
    unsigned cores_;
    std::vector<LineView> lines_; //!< sets x ways, row-major
    CacheStats stats_;
    //! Valid lines in the set at each miss; no-op unless GLIDER_METRICS.
    obs::HotHistogram occ_at_miss_;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_CACHE_HH
