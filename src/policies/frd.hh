/**
 * @file
 * FRD — forward-reuse-distance predictor policy, after "Learning
 * Forward Reuse Distance" (Yang et al., 2020; see PAPERS.md). Where
 * Hawkeye classifies PCs into binary friendly/averse, FRD regresses
 * the *distance* to a line's next use: a per-PC EWMA of observed
 * forward reuse distances (in LLC accesses) predicts, at insertion
 * or promotion time, when the line will be touched again. Eviction
 * is Belady-style over the predictions — the line whose predicted
 * next use is furthest away goes first, and a line already far past
 * its predicted reuse is treated as dead.
 *
 * Storage: a 4K-entry hashed PC table (8B each) plus three per-line
 * words; everything is preallocated in reset(), so the hot path is
 * allocation-free.
 */

#ifndef GLIDER_POLICIES_FRD_HH
#define GLIDER_POLICIES_FRD_HH

#include <vector>

#include "cachesim/replacement.hh"
#include "common/hash.hh"

namespace glider {
namespace policies {

/** Forward-reuse-distance regression replacement. */
class FrdPolicy : public sim::ReplacementPolicy
{
  public:
    std::string name() const override { return "FRD"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        geom_ = geom;
        clock_ = 0;
        pred_.assign(kTableEntries, kInitialDistance);
        std::size_t lines = geom.sets * geom.ways;
        next_use_.assign(lines, 0);
        last_touch_.assign(lines, 0);
        line_sig_.assign(lines, 0);
        line_reused_.assign(lines, 1);
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &access,
              sim::SetView lines) noexcept override
    {
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (!lines[w].valid())
                return w;
        }
        // Belady over predictions: furthest predicted next use goes
        // first. A line overdue for its predicted reuse was
        // mispredicted — rank it even further out (dead), breaking
        // ties toward the most overdue.
        std::size_t base = access.set * geom_.ways;
        std::uint32_t victim = 0;
        std::uint64_t worst = 0;
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            std::uint64_t expect = next_use_[base + w];
            std::uint64_t score = expect > clock_
                ? expect
                : kDeadScore + (clock_ - expect);
            if (score > worst) {
                worst = score;
                victim = w;
            }
        }
        return victim;
    }

    void
    onHit(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        ++clock_;
        std::size_t idx = access.set * geom_.ways + way;
        // Observed forward reuse distance of the previous touch
        // trains the PC that made it (EWMA, 1/8 gain).
        std::uint64_t observed = clock_ - last_touch_[idx];
        std::uint64_t &p = pred_[line_sig_[idx]];
        std::int64_t delta = static_cast<std::int64_t>(observed)
            - static_cast<std::int64_t>(p);
        p = static_cast<std::uint64_t>(
            static_cast<std::int64_t>(p) + delta / 8);
        if (p > kMaxDistance)
            p = kMaxDistance;
        line_reused_[idx] = 1;
        rearm(idx, access.pc);
    }

    void
    onEvict(const sim::ReplacementAccess &, std::uint32_t,
            const sim::LineView &) noexcept override
    {
        // Dead-on-eviction training happens in onInsert, which sees
        // the same way with line_reused_ still reflecting the victim.
    }

    void
    onInsert(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        ++clock_;
        std::size_t idx = access.set * geom_.ways + way;
        if (!line_reused_[idx]) {
            std::uint64_t &p = pred_[line_sig_[idx]];
            p += p / 4 + 64;
            if (p > kMaxDistance)
                p = kMaxDistance;
        }
        line_reused_[idx] = 0;
        rearm(idx, access.pc);
    }

  private:
    static constexpr std::size_t kTableEntries = 4096;
    static constexpr std::uint64_t kInitialDistance = 4096;
    static constexpr std::uint64_t kMaxDistance = 1u << 20;
    /** Scores above this mark mispredicted (overdue) lines. */
    static constexpr std::uint64_t kDeadScore = 1ull << 62;

    static std::size_t
    sigOf(std::uint64_t pc)
    {
        return static_cast<std::size_t>(hashInto(pc, kTableEntries));
    }

    /** Stamp a line's owner and predicted next use at touch time. */
    void
    rearm(std::size_t idx, std::uint64_t pc)
    {
        std::size_t sig = sigOf(pc);
        line_sig_[idx] = static_cast<std::uint32_t>(sig);
        last_touch_[idx] = clock_;
        next_use_[idx] = clock_ + pred_[sig];
    }

    sim::CacheGeometry geom_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> pred_;       //!< per-PC EWMA distance
    std::vector<std::uint64_t> next_use_;   //!< per-line prediction
    std::vector<std::uint64_t> last_touch_; //!< per-line touch time
    std::vector<std::uint32_t> line_sig_;   //!< per-line PC signature
    std::vector<std::uint8_t> line_reused_; //!< reuse seen since insert
};

} // namespace policies
} // namespace glider

#endif // GLIDER_POLICIES_FRD_HH
