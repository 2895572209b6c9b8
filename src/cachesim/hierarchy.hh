/**
 * @file
 * Three-level cache hierarchy: private L1D and L2 per core, shared
 * LLC running the replacement policy under study (Table 1 shapes).
 */

#ifndef GLIDER_CACHESIM_HIERARCHY_HH
#define GLIDER_CACHESIM_HIERARCHY_HH

#include <functional>
#include <memory>
#include <vector>

#include "cache.hh"
#include "cache_config.hh"
#include "private_filter.hh"

namespace glider {
namespace sim {

/** Deepest level an access had to travel to. */
enum class AccessDepth { L1, L2, Llc, Dram };

/** Round-trip latency (core cycles) of an access that reached @p depth. */
std::uint32_t latencyOf(const HierarchyConfig &config, AccessDepth depth);

/** Factory for the LLC policy under study. */
using PolicyFactory = std::function<std::unique_ptr<ReplacementPolicy>()>;

/**
 * Private L1/L2 per core (a PrivateFilter each) plus a shared LLC: the
 * full walk the replay loop's codes are checked against.
 */
class Hierarchy
{
  public:
    /**
     * @param config Level shapes and latencies.
     * @param cores Number of cores (private L1/L2 each).
     * @param llc_policy LLC replacement policy instance.
     */
    Hierarchy(const HierarchyConfig &config, unsigned cores,
              std::unique_ptr<ReplacementPolicy> llc_policy);

    /**
     * Walk one access down the hierarchy, filling on the way back.
     * @return deepest level reached.
     */
    AccessDepth access(std::uint8_t core, std::uint64_t pc,
                       std::uint64_t byte_addr, bool is_write);

    /** Round-trip latency (core cycles) for a given depth. */
    std::uint32_t
    latency(AccessDepth depth) const
    {
        return latencyOf(config_, depth);
    }

    Cache &l1(unsigned core) { return private_[core]->l1(); }
    Cache &l2(unsigned core) { return private_[core]->l2(); }
    Cache &llc() { return *llc_; }
    const Cache &llc() const { return *llc_; }
    const HierarchyConfig &config() const { return config_; }
    unsigned cores() const { return cores_; }

    /** LLC accesses/misses observed for a given core. */
    std::uint64_t llcAccessesFor(unsigned core) const
    {
        return llc_core_accesses_[core];
    }
    std::uint64_t llcMissesFor(unsigned core) const
    {
        return llc_core_misses_[core];
    }

    /** Zero all per-level and per-core counters (cache state kept). */
    void clearStatsCounters();

    /**
     * Snapshot every level's stats — l1.core<N>/l2.core<N>/llc
     * subtrees, per-core LLC traffic and the LLC policy's telemetry —
     * into @p registry under @p prefix. Use a fresh registry per
     * export.
     */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const;

  private:
    HierarchyConfig config_;
    unsigned cores_;
    std::vector<std::unique_ptr<PrivateFilter>> private_; //!< per core
    std::unique_ptr<Cache> llc_;
    std::vector<std::uint64_t> llc_core_accesses_;
    std::vector<std::uint64_t> llc_core_misses_;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_HIERARCHY_HH
