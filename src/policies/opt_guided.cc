#include "opt_guided.hh"

#include "common/logging.hh"
#include "obs/metrics.hh"

namespace glider {
namespace policies {

void
OptGuidedPolicy::reset(const sim::CacheGeometry &geom)
{
    geom_ = geom;
    // Keep the sampled-set ratio constant (1/32 of sets, CRC2-like):
    // a shared multi-core LLC has 4x the sets, and sampling a fixed
    // 64 would train the predictor 4x slower than single-core.
    std::uint64_t sampled = geom.sets / 32;
    if (sampled < 64)
        sampled = 64;
    sampler_ = std::make_unique<opt::OptGenSampler>(geom.sets, geom.ways,
                                                    sampled);
    accuracy_ = sim::PredictorAccuracy{};
    per_pc_accuracy_.clear();
    lines_.assign(geom.sets * geom.ways, LineState{});
    line_pc_.assign(geom.sets * geom.ways, 0);
}

void
OptGuidedPolicy::handleEvent(const opt::TrainingEvent &event)
{
    if (event.prediction_valid) {
        ++accuracy_.events;
        auto &per_pc = per_pc_accuracy_[event.pc];
        ++per_pc.events;
        if (event.opt_hit == event.predicted_friendly) {
            ++accuracy_.correct;
            ++per_pc.correct;
        }
    }
    onTrainingEvent(event);
}

void
OptGuidedPolicy::sample(const sim::ReplacementAccess &access,
                        Pred prediction)
{
    if (!sampler_->isSampled(access.set))
        return;
    bool predicted_friendly = prediction != Pred::Averse;
    auto ev = sampler_->access(access.set, access.block_addr, access.pc,
                               access.core, historySnapshot(access),
                               predicted_friendly, true);
    if (ev)
        handleEvent(*ev);
    while (auto expired = sampler_->popExpired())
        handleEvent(*expired);
}

std::uint32_t
OptGuidedPolicy::victimWay(const sim::ReplacementAccess &access,
                           sim::SetView lines) noexcept
{
    const LineState *row = &lines_[access.set * geom_.ways];
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if (!lines[w].valid())
            return w;
    }
    // Cache-averse lines go first...
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if (row[w].rrpv >= kMaxRrpv)
            return w;
    }
    // ...otherwise the oldest cache-friendly line; the predictor was
    // wrong about it, so the inserting context is detrained.
    std::uint32_t victim = 0;
    for (std::uint32_t w = 1; w < geom_.ways; ++w) {
        if (row[w].rrpv > row[victim].rrpv)
            victim = w;
    }
    if (row[victim].friendly)
        onFriendlyEviction(line_pc_[access.set * geom_.ways + victim],
                           row[victim].core);
    return victim;
}

void
OptGuidedPolicy::onHit(const sim::ReplacementAccess &access,
                       std::uint32_t way) noexcept
{
    observeAccess(access);
    Pred pred = predictAccess(access);
    sample(access, pred);

    std::size_t idx = access.set * geom_.ways + way;
    line_pc_[idx] = access.pc;
    bool friendly = pred != Pred::Averse;
    lines_[idx] = {friendly ? std::uint8_t{0} : kMaxRrpv, friendly,
                   access.core};
}

void
OptGuidedPolicy::onEvict(const sim::ReplacementAccess &, std::uint32_t,
                         const sim::LineView &) noexcept
{
}

void
OptGuidedPolicy::onInsert(const sim::ReplacementAccess &access,
                          std::uint32_t way) noexcept
{
    observeAccess(access);
    Pred pred = predictAccess(access);
    sample(access, pred);

    LineState *row = &lines_[access.set * geom_.ways];
    line_pc_[access.set * geom_.ways + way] = access.pc;

    switch (pred) {
      case Pred::Averse:
        row[way] = {kMaxRrpv, false, access.core};
        return;
      case Pred::FriendlyLow:
        row[way] = {2, true, access.core};
        break;
      case Pred::FriendlyHigh:
        row[way] = {0, true, access.core};
        break;
    }
    // A friendly insertion ages the other friendly lines so that
    // "oldest friendly" approximates LRU order among friendly lines
    // (the Hawkeye aging rule; saturates below the averse level).
    for (std::uint32_t w = 0; w < geom_.ways; ++w) {
        if (w != way && row[w].friendly && row[w].rrpv < kMaxRrpv - 1)
            ++row[w].rrpv;
    }
}

void
OptGuidedPolicy::onFriendlyEviction(std::uint64_t, std::uint8_t)
{
}

const opt::PcHistory &
OptGuidedPolicy::historySnapshot(const sim::ReplacementAccess &)
{
    // Predictors without a history feature (Hawkeye) share one empty
    // snapshot; allocated once, never mutated.
    static const opt::PcHistory kEmpty;
    return kEmpty;
}

void
OptGuidedPolicy::exportMetrics(obs::Registry &registry,
                               const std::string &prefix) const
{
    registry.setCounter(prefix + ".accuracy.events", accuracy_.events);
    registry.setCounter(prefix + ".accuracy.correct",
                        accuracy_.correct);
    registry.setGauge(prefix + ".accuracy.online",
                      accuracy_.accuracy());
    registry.setCounter(prefix + ".tracked_pcs",
                        per_pc_accuracy_.size());
    if (sampler_) {
        opt::OptGenSet::Stats s = sampler_->stats();
        registry.setCounter(prefix + ".optgen.sampled_sets",
                            sampler_->sampledSets());
        registry.setCounter(prefix + ".optgen.hit_intervals",
                            s.hit_intervals);
        registry.setCounter(prefix + ".optgen.miss_intervals",
                            s.miss_intervals);
        registry.setCounter(prefix + ".optgen.expired_negatives",
                            s.expired_negatives);
        registry.setCounter(prefix + ".optgen.capacity_evictions",
                            s.capacity_evictions);
        registry.setGauge(prefix + ".optgen.occupancy_utilization",
                          sampler_->occupancyUtilization());
    }
}

} // namespace policies
} // namespace glider
