/**
 * @file
 * The replacement-policy plugin interface, modelled on the API of the
 * 2nd Cache Replacement Championship (CRC2): a policy is asked for a
 * victim way on each miss and notified on every access so it can
 * update its internal state. Policies own all replacement metadata
 * (RRPVs, predictor tables, samplers); the cache owns only tags.
 */

#ifndef GLIDER_CACHESIM_REPLACEMENT_HH
#define GLIDER_CACHESIM_REPLACEMENT_HH

#include <cstdint>
#include <string>

namespace glider {

namespace obs {
class Registry; // metrics.hh; kept out of the hot-path header
}

namespace sim {

/** Static shape of the cache a policy is driving. */
struct CacheGeometry
{
    std::uint64_t sets = 0;
    std::uint32_t ways = 0;
    std::uint32_t cores = 1; //!< cores sharing this cache
};

/**
 * Tag-array view of one line, passed to victim selection: one word,
 * the block address, with all-ones marking an invalid (never filled)
 * way. No real block is all-ones (traces::blockAddr shifts the byte
 * address right), so the sentinel never collides with a tag.
 */
struct LineView
{
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

    std::uint64_t block_addr = kInvalid;

    bool valid() const { return block_addr != kInvalid; }
};

/**
 * Non-owning view of one set's ways in the cache's tag array, passed
 * to victim selection. Cheap to copy (pointer + count): the cache
 * hands out its own storage, so the miss path never allocates. The
 * view is only valid for the duration of the victimWay call.
 */
struct SetView
{
    const LineView *lines = nullptr;
    std::uint32_t ways = 0;

    const LineView &operator[](std::uint32_t way) const
    {
        return lines[way];
    }
    std::uint32_t size() const { return ways; }
    const LineView *begin() const { return lines; }
    const LineView *end() const { return lines + ways; }
};

/**
 * Online predictor accuracy (Figure 10): OPTgen-labelled predictions
 * and how many matched OPT. Zero for policies without a predictor.
 */
struct PredictorAccuracy
{
    std::uint64_t events = 0;  //!< OPTgen-labelled predictions
    std::uint64_t correct = 0; //!< predictions matching OPT

    double
    accuracy() const
    {
        return events ? static_cast<double>(correct)
                / static_cast<double>(events)
                      : 0.0;
    }
};

/** One access as seen by the replacement policy. */
struct ReplacementAccess
{
    std::uint64_t set = 0;
    std::uint64_t pc = 0;
    std::uint64_t block_addr = 0;
    std::uint8_t core = 0;
    bool is_write = false;
};

/**
 * Abstract replacement policy (CRC2-style).
 *
 * Call protocol, per LLC access:
 *  - hit:  onHit(access, way)
 *  - miss: victimWay(access, lines) -> way to evict, or ways (the
 *          bypass sentinel) to skip insertion; if a way was returned,
 *          onEvict(access, way, evicted_view) for a valid victim, then
 *          onInsert(access, way).
 */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Policy name used in experiment tables. */
    virtual std::string name() const = 0;

    /** (Re)initialise all metadata for a cache of shape @p geom. */
    virtual void reset(const CacheGeometry &geom) = 0;

    /**
     * Choose a victim for a miss in @p access.set.
     * @param lines Zero-copy view of the set's ways in way order;
     *              valid only for the duration of the call.
     * @return way index in [0, ways), or ways to bypass the cache.
     */
    virtual std::uint32_t victimWay(const ReplacementAccess &access,
                                    SetView lines) = 0;

    /** The access hit in @p way. */
    virtual void onHit(const ReplacementAccess &access,
                       std::uint32_t way) = 0;

    /** A valid victim in @p way is being evicted for @p access. */
    virtual void onEvict(const ReplacementAccess &access,
                         std::uint32_t way, const LineView &victim) = 0;

    /** The missing line is inserted into @p way. */
    virtual void onInsert(const ReplacementAccess &access,
                          std::uint32_t way) = 0;

    /** Online predictor accuracy since reset(); off the hot path. */
    virtual PredictorAccuracy predictorAccuracy() const { return {}; }

    /**
     * Export policy telemetry (predictor accuracy, training counters,
     * sampler occupancy, ...) into @p registry under @p prefix.
     * Off the hot path; the default exports nothing.
     */
    virtual void exportMetrics(obs::Registry &registry,
                               const std::string &prefix) const
    {
        (void)registry;
        (void)prefix;
    }
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_REPLACEMENT_HH
