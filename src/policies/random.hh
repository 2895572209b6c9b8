/**
 * @file
 * Random replacement — a sanity-check baseline (not in the paper's
 * comparison set, but useful for calibrating the simulator and for
 * the test suite's invariants).
 */

#ifndef GLIDER_POLICIES_RANDOM_HH
#define GLIDER_POLICIES_RANDOM_HH

#include "cachesim/replacement.hh"
#include "common/rng.hh"

namespace glider {
namespace policies {

/** Uniformly random victim selection. */
class RandomPolicy : public sim::ReplacementPolicy
{
  public:
    explicit RandomPolicy(std::uint64_t seed = 42) : rng_(seed) {}

    std::string name() const override { return "Random"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        geom_ = geom;
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &, sim::SetView lines)
        noexcept override
    {
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (!lines[w].valid())
                return w;
        }
        return static_cast<std::uint32_t>(rng_.below(geom_.ways));
    }

    void onHit(const sim::ReplacementAccess &, std::uint32_t)
        noexcept override
    {
    }
    void onEvict(const sim::ReplacementAccess &, std::uint32_t,
                 const sim::LineView &) noexcept override
    {
    }
    void onInsert(const sim::ReplacementAccess &, std::uint32_t)
        noexcept override
    {
    }

  private:
    sim::CacheGeometry geom_;
    Rng rng_;
};

} // namespace policies
} // namespace glider

#endif // GLIDER_POLICIES_RANDOM_HH
