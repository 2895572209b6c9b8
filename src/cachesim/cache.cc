#include "cache.hh"

#include <stdexcept>

#include "common/logging.hh"

namespace glider {
namespace sim {

Cache::Cache(const CacheConfig &config,
             std::unique_ptr<ReplacementPolicy> policy, unsigned cores)
    : config_(config), policy_(std::move(policy)),
      num_sets_(config.sets()), cores_(cores),
      occ_at_miss_(0.0, config.ways + 1.0, config.ways + 1)
{
    GLIDER_ASSERT(policy_ != nullptr);
    if (num_sets_ == 0) {
        throw std::invalid_argument(
            "Cache " + config.name + ": " + std::to_string(config.size_bytes)
            + " bytes is smaller than one set of "
            + std::to_string(config.ways) + " ways");
    }
    GLIDER_ASSERT((num_sets_ & (num_sets_ - 1)) == 0);
    reset();
}

void
Cache::reset()
{
    lines_.assign(num_sets_ * config_.ways, LineView{});
    stats_ = CacheStats{};
    CacheGeometry geom;
    geom.sets = num_sets_;
    geom.ways = config_.ways;
    geom.cores = cores_;
    policy_->reset(geom);
}

bool
Cache::access(std::uint8_t core, std::uint64_t pc,
              std::uint64_t block_addr, bool is_write)
{
    ++stats_.accesses;
    std::uint64_t set = setIndex(block_addr);
    LineView *base = &lines_[set * config_.ways];

    ReplacementAccess acc;
    acc.set = set;
    acc.pc = pc;
    acc.block_addr = block_addr;
    acc.core = core;
    acc.is_write = is_write;

    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (base[way].block_addr == block_addr) {
            ++stats_.hits;
            policy_->onHit(acc, way);
            return true;
        }
    }

    ++stats_.misses;
#if defined(GLIDER_METRICS) && GLIDER_METRICS
    {
        std::uint32_t occupied = 0;
        for (std::uint32_t way = 0; way < config_.ways; ++way)
            occupied += base[way].valid() ? 1 : 0;
        occ_at_miss_.record(static_cast<double>(occupied));
    }
#endif
    std::uint32_t victim =
        policy_->victimWay(acc, SetView{base, config_.ways});
    if (victim >= config_.ways) {
        // Bypass: the line is forwarded without being cached.
        ++stats_.bypasses;
        return false;
    }
    if (base[victim].valid()) {
        ++stats_.evictions;
        policy_->onEvict(acc, victim, base[victim]);
    }
    base[victim].block_addr = block_addr;
    policy_->onInsert(acc, victim);
    return false;
}

void
Cache::exportMetrics(obs::Registry &registry,
                     const std::string &prefix) const
{
    registry.setCounter(prefix + ".accesses", stats_.accesses);
    registry.setCounter(prefix + ".hits", stats_.hits);
    registry.setCounter(prefix + ".misses", stats_.misses);
    registry.setCounter(prefix + ".bypasses", stats_.bypasses);
    registry.setCounter(prefix + ".evictions", stats_.evictions);
    registry.setGauge(prefix + ".miss_rate", stats_.missRate());
#if defined(GLIDER_METRICS) && GLIDER_METRICS
    // Merge assumes a fresh registry: exporting the same cache twice
    // into one registry would double the histogram's samples.
    if (occ_at_miss_.count() > 0) {
        obs::Histogram &h = registry.histogram(
            prefix + ".occupancy_at_miss", occ_at_miss_.lo(),
            occ_at_miss_.hi(), occ_at_miss_.buckets());
        h.merge(occ_at_miss_);
    }
#endif
}

bool
Cache::probe(std::uint64_t block_addr) const
{
    std::uint64_t set = setIndex(block_addr);
    const LineView *base = &lines_[set * config_.ways];
    for (std::uint32_t way = 0; way < config_.ways; ++way) {
        if (base[way].block_addr == block_addr)
            return true;
    }
    return false;
}

} // namespace sim
} // namespace glider
