/**
 * @file
 * The Hawkeye framework (Jain & Lin, ISCA'16): an LLC replacement
 * skeleton that learns from OPTgen's reconstruction of Belady's
 * decisions on sampled sets. Hawkeye instantiates it with a per-PC
 * counter predictor; Glider (src/core) replaces only the predictor
 * with its ISVM over an unordered PC history — everything else
 * (sampler, OPTgen, insertion priorities, aging, eviction order) is
 * shared, mirroring how the paper "replaces the predictor module of
 * Hawkeye, keeping other modules the same" (§5.4).
 */

#ifndef GLIDER_POLICIES_OPT_GUIDED_HH
#define GLIDER_POLICIES_OPT_GUIDED_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cachesim/replacement.hh"
#include "opt/optgen.hh"
#include "rrip.hh"

namespace glider {
namespace policies {

/**
 * Base class implementing the OPTgen-trained replacement framework.
 * Subclasses supply the predictor (predictAccess / onTrainingEvent /
 * historySnapshot).
 */
class OptGuidedPolicy : public sim::ReplacementPolicy
{
  public:
    /** Insertion confidence levels (§4.4's RRPV 0 / 2 / 7 buckets). */
    enum class Pred { FriendlyHigh, FriendlyLow, Averse };

    void reset(const sim::CacheGeometry &geom) override;
    std::uint32_t victimWay(const sim::ReplacementAccess &access,
                            sim::SetView lines) noexcept override;
    void onHit(const sim::ReplacementAccess &access,
               std::uint32_t way) noexcept override;
    void onEvict(const sim::ReplacementAccess &access, std::uint32_t way,
                 const sim::LineView &victim) noexcept override;
    void onInsert(const sim::ReplacementAccess &access,
                  std::uint32_t way) noexcept override;

    /** Online predictor accuracy vs OPTgen (Figure 10). */
    sim::PredictorAccuracy predictorAccuracy() const override
    {
        return accuracy_;
    }

    /**
     * Export framework telemetry — online accuracy, tracked-PC count,
     * and the OPTgen sampler's label/occupancy stats — under
     * @p prefix. Subclass overrides should call this base first.
     */
    void exportMetrics(obs::Registry &registry,
                       const std::string &prefix) const override;

  protected:
    /** Predict the caching priority of @p access. */
    virtual Pred predictAccess(const sim::ReplacementAccess &access) = 0;

    /** An OPTgen label arrived: train the predictor. */
    virtual void onTrainingEvent(const opt::TrainingEvent &event) = 0;

    /**
     * The predictor was wrong about an evicted cache-friendly line;
     * Hawkeye detrains the inserting context. Default: no-op.
     */
    virtual void onFriendlyEviction(std::uint64_t line_pc,
                                    std::uint8_t core);

    /**
     * Control-flow history to store with sampled accesses. Returned
     * by reference — this is called per sampled access and a by-value
     * return put a vector copy on the hot path; the referent must
     * stay valid until the next access.
     */
    virtual const opt::PcHistory &historySnapshot(
        const sim::ReplacementAccess &);

    /** Called once per LLC access, before prediction (PCHR update). */
    virtual void observeAccess(const sim::ReplacementAccess &) {}

    sim::CacheGeometry geom_;

  private:
    /**
     * Per-line RRIP state in 2 bytes, so a set's ways form one
     * contiguous row (32 B at 16 ways) that victim selection and the
     * friendly-insert aging loop each walk once. The inserting PC is
     * kept apart in line_pc_: it is read only on a friendly eviction.
     */
    struct LineState
    {
        std::uint8_t rrpv : 7 = kMaxRrpv;
        std::uint8_t friendly : 1 = 0; //!< inserted cache-friendly
        std::uint8_t core = 0;         //!< core of the inserting access
    };
    static_assert(sizeof(LineState) == 2);

    /** Run the sampler/trainer pipeline for one access. */
    void sample(const sim::ReplacementAccess &access, Pred prediction);
    void handleEvent(const opt::TrainingEvent &event);

    std::unique_ptr<opt::OptGenSampler> sampler_;
    sim::PredictorAccuracy accuracy_;
    std::unordered_map<std::uint64_t, sim::PredictorAccuracy>
        per_pc_accuracy_;
    std::vector<LineState> lines_; //!< sets x ways, row per set
    std::vector<std::uint64_t> line_pc_;
};

} // namespace policies
} // namespace glider

#endif // GLIDER_POLICIES_OPT_GUIDED_HH
