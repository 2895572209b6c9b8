/**
 * @file
 * Two cheap heuristic baselines for the policy zoo (ROADMAP bullet
 * 3), sized to cost a few bytes per set/line so the learning-based
 * policies have non-trivial but inexpensive opponents:
 *
 *  - EntropyAge: entropy-guided adaptive aging. A per-set shift
 *    register of 4-bit PC hashes estimates access-stream entropy;
 *    high entropy (many distinct PCs — scans, chaotic interleavings)
 *    inserts lines at distant RRPV so they age out fast, low entropy
 *    (a tight loop) inserts near.
 *
 *  - DecayCount: decayed adaptive counting. Per-line saturating hit
 *    counters with lazy epoch-based halving; the victim is the line
 *    with the lowest decayed count, ties broken toward the oldest.
 *    Frequency with forgetting — an LFU that survives phase changes.
 */

#ifndef GLIDER_POLICIES_HEURISTICS_HH
#define GLIDER_POLICIES_HEURISTICS_HH

#include <vector>

#include "cachesim/replacement.hh"
#include "common/hash.hh"
#include "rrip.hh"

namespace glider {
namespace policies {

/** Entropy-guided adaptive aging over the RRIP machinery. */
class EntropyAgePolicy : public RrpvBase
{
  public:
    std::string name() const override { return "EntropyAge"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        RrpvBase::reset(geom);
        history_.assign(geom.sets, 0);
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &access,
              sim::SetView lines) noexcept override
    {
        observe(access);
        return RrpvBase::victimWay(access, lines);
    }

    void
    onHit(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        observe(access);
        RrpvBase::onHit(access, way);
    }

    void
    onInsert(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        // 16-nibble window: distinct PC hashes approximate the
        // stream's entropy. Few distinct PCs => loop-like reuse,
        // protect; many => scan-like churn, age out fast.
        unsigned distinct = distinctNibbles(history_[access.set]);
        std::uint8_t insert = kMaxRrpv - 1;
        if (distinct >= 12)
            insert = kMaxRrpv;
        else if (distinct <= 4)
            insert = 1;
        rowFor(access.set)[way] = insert;
    }

  private:
    /** Shift the access's 4-bit PC hash into the set's window. */
    void
    observe(const sim::ReplacementAccess &access)
    {
        history_[access.set] = history_[access.set] << 4
            | hashBits(access.pc, 4);
    }

    static unsigned
    distinctNibbles(std::uint64_t window)
    {
        std::uint32_t present = 0;
        for (int i = 0; i < 16; ++i) {
            present |= 1u << (window & 0xF);
            window >>= 4;
        }
        unsigned count = 0;
        while (present) {
            present &= present - 1;
            ++count;
        }
        return count;
    }

    std::vector<std::uint64_t> history_; //!< per-set PC-nibble window
};

/** Decayed adaptive counting: LFU with lazy epoch halving. */
class DecayCountPolicy : public sim::ReplacementPolicy
{
  public:
    std::string name() const override { return "DecayCount"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        geom_ = geom;
        clock_ = 0;
        count_.assign(geom.sets * geom.ways, 0);
        last_touch_.assign(geom.sets * geom.ways, 0);
        set_epoch_.assign(geom.sets, 0);
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &access,
              sim::SetView lines) noexcept override
    {
        decaySet(access.set);
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (!lines[w].valid())
                return w;
        }
        std::size_t base = access.set * geom_.ways;
        std::uint32_t victim = 0;
        for (std::uint32_t w = 1; w < geom_.ways; ++w) {
            std::size_t i = base + w;
            std::size_t v = base + victim;
            if (count_[i] < count_[v]
                || (count_[i] == count_[v]
                    && last_touch_[i] < last_touch_[v])) {
                victim = w;
            }
        }
        return victim;
    }

    void
    onHit(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        std::size_t idx = access.set * geom_.ways + way;
        if (count_[idx] < kCountMax)
            ++count_[idx];
        last_touch_[idx] = ++clock_;
    }

    void
    onEvict(const sim::ReplacementAccess &, std::uint32_t,
            const sim::LineView &) noexcept override
    {
    }

    void
    onInsert(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        std::size_t idx = access.set * geom_.ways + way;
        count_[idx] = 1;
        last_touch_[idx] = ++clock_;
    }

  private:
    static constexpr std::uint8_t kCountMax = 63;
    static constexpr std::uint64_t kEpochShift = 13; //!< 8192 accesses

    /** Lazy decay: halve the set's counters once per elapsed epoch. */
    void
    decaySet(std::uint64_t set)
    {
        std::uint64_t epoch = clock_ >> kEpochShift;
        std::uint64_t behind = epoch - set_epoch_[set];
        if (behind == 0)
            return;
        if (behind > 6)
            behind = 6; // counters are 6 bits: further shifts zero them
        std::size_t base = set * geom_.ways;
        for (std::uint32_t w = 0; w < geom_.ways; ++w)
            count_[base + w] = static_cast<std::uint8_t>(
                count_[base + w] >> behind);
        set_epoch_[set] = epoch;
    }

    sim::CacheGeometry geom_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint8_t> count_;       //!< per-line decayed count
    std::vector<std::uint64_t> last_touch_; //!< per-line recency
    std::vector<std::uint64_t> set_epoch_;  //!< per-set decay epoch
};

} // namespace policies
} // namespace glider

#endif // GLIDER_POLICIES_HEURISTICS_HH
