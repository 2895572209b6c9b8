/**
 * @file
 * OPTgen: Hawkeye's online reconstruction of Belady's decisions for
 * past accesses (Jain & Lin, ISCA'16), extended to carry the
 * control-flow context Glider needs.
 *
 * For each sampled cache set, OPTgen keeps an occupancy vector over a
 * sliding window of recent accesses ("time quanta"). When an access
 * closes a usage interval [t_prev, t) for a block, the interval is an
 * OPT hit iff every quantum in it still has spare capacity; OPT hits
 * reserve their interval by incrementing it. The closing of an
 * interval yields a training event for the predictor that observed
 * the access at t_prev.
 */

#ifndef GLIDER_OPT_OPTGEN_HH
#define GLIDER_OPT_OPTGEN_HH

#include <cstdint>
#include <optional>
#include <vector>

namespace glider {
namespace opt {

/** PCHR snapshot captured with each sampled access (Glider feature). */
using PcHistory = std::vector<std::uint64_t>;

/** Emitted when OPTgen decides the fate of a past access. */
struct TrainingEvent
{
    bool opt_hit = false;       //!< OPT would have cached the access
    std::uint64_t pc = 0;       //!< PC of the access being labelled
    std::uint64_t block = 0;
    std::uint8_t core = 0;      //!< core that issued the access
    PcHistory history;          //!< PCHR contents at that access
    bool predicted_friendly = false; //!< what the predictor said then
    bool prediction_valid = false;   //!< was a prediction recorded
};

/** OPTgen state for one sampled set. */
class OptGenSet
{
  public:
    /** Label and churn telemetry, accumulated since construction. */
    struct Stats
    {
        std::uint64_t hit_intervals = 0;  //!< closed intervals OPT kept
        std::uint64_t miss_intervals = 0; //!< closed intervals OPT shed
        std::uint64_t expired_negatives = 0;  //!< aged out of window
        std::uint64_t capacity_evictions = 0; //!< sampler slot stolen
    };

    /**
     * @param ways Modelled associativity (OPT capacity per quantum).
     * @param history_quanta Sliding-window length; the Hawkeye
     *        default is 8x the associativity.
     * @param max_entries Tracked-address budget (sampler capacity).
     */
    OptGenSet(std::uint32_t ways, std::size_t history_quanta,
              std::size_t max_entries);

    /**
     * Record an access to @p block by @p pc.
     *
     * @param history PCHR snapshot at this access (may be empty).
     * @param predicted_friendly The predictor's verdict for this
     *        access (used later to score online accuracy).
     * @param prediction_valid False when no prediction was made.
     * @return a TrainingEvent if this access closed a usage interval.
     */
    std::optional<TrainingEvent> access(std::uint64_t block,
                                        std::uint64_t pc,
                                        std::uint8_t core,
                                        const PcHistory &history,
                                        bool predicted_friendly,
                                        bool prediction_valid);

    /**
     * Pop an eviction-driven negative training event, if any: a
     * tracked address aged out of the window without reuse, which
     * means OPT did not cache it. Call until empty after access().
     */
    std::optional<TrainingEvent> popExpired();

    /** @return true while popExpired() has events to hand out. */
    bool hasExpired() const { return !expired_.empty(); }

    std::uint64_t clock() const { return clock_; }

    const Stats &stats() const { return stats_; }

    /**
     * Mean occupancy of the sliding window's quanta as a fraction of
     * OPT capacity (0 when no access has been seen). An on-demand
     * scan; not part of the access hot path.
     */
    double occupancyUtilization() const;

  private:
    struct Entry
    {
        std::uint64_t block = 0;
        std::uint64_t last_time = 0;
        std::uint64_t pc = 0;
        std::uint8_t core = 0;
        PcHistory history;
        bool predicted_friendly = false;
        bool prediction_valid = false;
        bool valid = false;
    };

    /** Quantum index -> occupancy slot in the ring. */
    std::uint8_t &occupancyAt(std::uint64_t time);

    std::uint32_t ways_;
    std::size_t history_quanta_;
    std::size_t max_entries_;
    std::uint64_t clock_ = 0;     //!< accesses to this set so far
    std::uint64_t base_time_ = 0; //!< oldest quantum still in window
    std::vector<std::uint8_t> occupancy_; //!< ring of history_quanta_
    std::vector<Entry> entries_;
    std::vector<TrainingEvent> expired_;
    Stats stats_;
};

/**
 * Set-sampled OPTgen front end: routes accesses of sampled LLC sets
 * to per-set OptGen state, as Hawkeye's sampler does (64 sampled
 * sets by default). Sampled sets are chosen by hashing the set index
 * rather than by stride, so that regular address-layout strides in
 * the workload (e.g. multi-line objects) cannot alias with the
 * sample and starve some PCs of training.
 *
 * Drain order: popExpired() serves the sampled sets round-robin in
 * slot order, one event per visit, starting at a cursor that moves
 * past each set it serves. A bitmask of the sets with queued events
 * lets it jump straight to the next one, so a drain costs the same
 * however many sets are sampled; the order is exactly that of a
 * linear scan over every slot.
 */
class OptGenSampler
{
  public:
    /**
     * @param sets Total LLC sets.
     * @param ways LLC associativity.
     * @param sampled_sets How many sets to sample (spread evenly).
     * @param window_quanta_per_way Per-set OPTgen window, in quanta
     *        per way (Hawkeye uses 8x the associativity).
     * @param entries_per_way Per-set tracked-address budget, in
     *        entries per way.
     */
    OptGenSampler(std::uint64_t sets, std::uint32_t ways,
                  std::uint64_t sampled_sets = 64,
                  std::size_t window_quanta_per_way = 8,
                  std::size_t entries_per_way = 2);

    /** @return true if @p set is sampled. */
    bool isSampled(std::uint64_t set) const;

    /** Forward an access on a sampled set (see OptGenSet::access). */
    std::optional<TrainingEvent> access(std::uint64_t set,
                                        std::uint64_t block,
                                        std::uint64_t pc,
                                        std::uint8_t core,
                                        const PcHistory &history,
                                        bool predicted_friendly,
                                        bool prediction_valid);

    /**
     * Drain expired-entry negative events across all sampled sets,
     * one per call, in the round-robin order described above.
     */
    std::optional<TrainingEvent> popExpired();

    std::size_t sampledSets() const { return sampled_.size(); }

    /** Sum of per-set label/churn counters across all sampled sets. */
    OptGenSet::Stats stats() const;

    /** Mean of per-set occupancyUtilization over sampled sets. */
    double occupancyUtilization() const;

  private:
    /** First slot with queued events at or after @p from, wrapping. */
    std::size_t nextPending(std::size_t from) const;

    std::uint64_t sets_;
    std::vector<std::int32_t> sample_index_; //!< set -> slot or -1
    std::vector<OptGenSet> sampled_;
    std::vector<std::uint64_t> pending_; //!< bit per slot with events
    std::size_t drain_cursor_ = 0;
};

} // namespace opt
} // namespace glider

#endif // GLIDER_OPT_OPTGEN_HH
