/**
 * @file
 * The RRIP family (Jaleel et al., ISCA'10): SRRIP, BRRIP, and
 * set-dueling DRRIP. These are the heuristic ancestors of the
 * championship policies and provide the RRPV machinery (3-bit
 * re-reference prediction values) that SHiP, Hawkeye, and Glider all
 * build on.
 */

#ifndef GLIDER_POLICIES_RRIP_HH
#define GLIDER_POLICIES_RRIP_HH

#include <vector>

#include "cachesim/replacement.hh"
#include "common/rng.hh"

namespace glider {
namespace policies {

/** Maximum RRPV with the 3-bit counters used throughout the repo. */
constexpr std::uint8_t kMaxRrpv = 7;

/** Shared RRPV array + victim scan used by the whole RRIP family. */
class RrpvBase : public sim::ReplacementPolicy
{
  public:
    void
    reset(const sim::CacheGeometry &geom) override
    {
        geom_ = geom;
        rrpv_.assign(geom.sets * geom.ways, kMaxRrpv);
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &access,
              sim::SetView lines) noexcept override
    {
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (!lines[w].valid())
                return w;
        }
        std::uint8_t *row = rowFor(access.set);
        for (;;) {
            for (std::uint32_t w = 0; w < geom_.ways; ++w) {
                if (row[w] >= kMaxRrpv)
                    return w;
            }
            for (std::uint32_t w = 0; w < geom_.ways; ++w)
                ++row[w];
        }
    }

    void
    onHit(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        rowFor(access.set)[way] = 0;
    }

    void
    onEvict(const sim::ReplacementAccess &, std::uint32_t,
            const sim::LineView &) noexcept override
    {
    }

  protected:
    std::uint8_t *rowFor(std::uint64_t set)
    {
        return &rrpv_[set * geom_.ways];
    }

    sim::CacheGeometry geom_;
    std::vector<std::uint8_t> rrpv_;
};

/** Static RRIP: insert at long re-reference interval (max-1). */
class SrripPolicy : public RrpvBase
{
  public:
    std::string name() const override { return "SRRIP"; }

    void
    onInsert(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        rowFor(access.set)[way] = kMaxRrpv - 1;
    }
};

/** Bimodal RRIP: insert at distant, occasionally at long. */
class BrripPolicy : public RrpvBase
{
  public:
    explicit BrripPolicy(std::uint64_t seed = 7) : rng_(seed) {}

    std::string name() const override { return "BRRIP"; }

    void
    onInsert(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        rowFor(access.set)[way] =
            rng_.chance(1.0 / 32.0) ? kMaxRrpv - 1 : kMaxRrpv;
    }

  private:
    Rng rng_;
};

/**
 * Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion with a
 * 10-bit policy-selection counter.
 */
class DrripPolicy : public RrpvBase
{
  public:
    explicit DrripPolicy(std::uint64_t seed = 7) : rng_(seed) {}

    std::string name() const override { return "DRRIP"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        RrpvBase::reset(geom);
        psel_ = kPselMax / 2;
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &access,
              sim::SetView lines) noexcept override
    {
        // A miss in a leader set votes against that leader's policy.
        switch (leaderKind(access.set)) {
          case Leader::Srrip:
            if (psel_ < kPselMax)
                ++psel_;
            break;
          case Leader::Brrip:
            if (psel_ > 0)
                --psel_;
            break;
          case Leader::Follower:
            break;
        }
        return RrpvBase::victimWay(access, lines);
    }

    void
    onInsert(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        bool use_brrip;
        switch (leaderKind(access.set)) {
          case Leader::Srrip:
            use_brrip = false;
            break;
          case Leader::Brrip:
            use_brrip = true;
            break;
          default:
            // SRRIP-leader misses count psel_ up: a high psel_ means
            // BRRIP is winning the duel. psel_ starts at the midpoint,
            // so an undecided duel keeps BRRIP.
            use_brrip = psel_ >= kPselMax / 2;
            break;
        }
        std::uint8_t insert = kMaxRrpv - 1;
        if (use_brrip && !rng_.chance(1.0 / 32.0))
            insert = kMaxRrpv;
        rowFor(access.set)[way] = insert;
    }

  private:
    enum class Leader { Srrip, Brrip, Follower };

    static constexpr std::uint32_t kPselMax = 1023;

    /**
     * 32 SRRIP leaders and 32 BRRIP leaders spread over the sets; on
     * caches with fewer than 128 sets the leader spacing is clamped
     * so followers always exist.
     */
    Leader
    leaderKind(std::uint64_t set) const
    {
        std::uint64_t region = geom_.sets / 64;
        if (region < 2)
            region = 2;
        if (set % region == 0) {
            return (set / region) % 2 == 0 ? Leader::Srrip
                                           : Leader::Brrip;
        }
        return Leader::Follower;
    }

    std::uint32_t psel_ = kPselMax / 2;
    Rng rng_;
};

} // namespace policies
} // namespace glider

#endif // GLIDER_POLICIES_RRIP_HH
