/**
 * @file
 * Cache and hierarchy configuration. Defaults follow the paper's
 * Table 1: 32KB/8-way L1, 256KB/8-way L2, 2MB/16-way LLC per core,
 * with the CRC2 latencies.
 */

#ifndef GLIDER_CACHESIM_CACHE_CONFIG_HH
#define GLIDER_CACHESIM_CACHE_CONFIG_HH

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "traces/access.hh"

namespace glider {
namespace sim {

/** Geometry and latency of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 32 * 1024;
    std::uint32_t ways = 8;
    std::uint32_t latency = 4; //!< access latency in core cycles

    /**
     * Number of sets implied by size/ways/64B blocks.
     * @throws std::invalid_argument if ways is 0.
     */
    std::uint64_t
    sets() const
    {
        if (ways < 1)
            // glider-lint: allow(hotpath-transitive) shape check, run
            // when a cache or sampler is built, before any access
            throw std::invalid_argument("CacheConfig " + name
                                        + ": ways must be >= 1");
        std::uint64_t block = 1ull << traces::kBlockBits;
        GLIDER_ASSERT(size_bytes % (block * ways) == 0);
        return size_bytes / (block * ways);
    }
};

/** Full hierarchy parameters (Table 1). */
struct HierarchyConfig
{
    CacheConfig l1{"L1D", 32 * 1024, 8, 4};
    CacheConfig l2{"L2", 256 * 1024, 8, 12};
    CacheConfig llc{"LLC", 2 * 1024 * 1024, 16, 26};
    std::uint32_t dram_latency = 200; //!< core cycles to DRAM

    /**
     * Scale the LLC to @p cores x 2MB (the paper's multi-core runs
     * share an 8MB LLC among 4 cores).
     */
    static HierarchyConfig
    forCores(unsigned cores)
    {
        HierarchyConfig cfg;
        cfg.llc.size_bytes = 2ull * 1024 * 1024 * cores;
        return cfg;
    }
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_CACHE_CONFIG_HH
