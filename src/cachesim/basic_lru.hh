/**
 * @file
 * Built-in true-LRU replacement, used for the private L1/L2 levels
 * (and as the paper's LLC baseline via policies::LruPolicy, which is
 * an alias of this mechanism).
 */

#ifndef GLIDER_CACHESIM_BASIC_LRU_HH
#define GLIDER_CACHESIM_BASIC_LRU_HH

#include <bit>
#include <stdexcept>
#include <string>
#include <vector>

#include "replacement.hh"

namespace glider {
namespace sim {

/**
 * True-LRU with one 64-bit recency word per set: the set's way ids as
 * 4-bit nibbles, most recent in the low nibble, so at most 16 ways.
 * A fresh set lists ways ways-1 ... 0, so never-filled ways are
 * evicted in way order, exactly as the "first invalid way, else the
 * oldest" rule picks them; the SetView is not read.
 */
class BasicLruPolicy : public ReplacementPolicy
{
  public:
    static constexpr std::uint32_t kMaxWays = 16;

    std::string name() const override { return "LRU"; }

    void
    reset(const CacheGeometry &geom) override
    {
        if (geom.ways < 1 || geom.ways > kMaxWays) {
            throw std::invalid_argument(
                "BasicLruPolicy: ways must be in [1, 16], got "
                + std::to_string(geom.ways));
        }
        std::uint64_t fresh = 0;
        for (std::uint32_t w = 0; w < geom.ways; ++w)
            fresh = (fresh << 4) | w;
        recency_.assign(geom.sets, fresh);
        lru_shift_ = 4 * (geom.ways - 1);
    }

    std::uint32_t
    victimWay(const ReplacementAccess &access, SetView) noexcept override
    {
        return static_cast<std::uint32_t>(
            (recency_[access.set] >> lru_shift_) & 0xF);
    }

    void
    onHit(const ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        touch(access.set, way);
    }

    void
    onEvict(const ReplacementAccess &, std::uint32_t,
            const LineView &) noexcept override
    {
    }

    void
    onInsert(const ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        touch(access.set, way);
    }

  private:
    static constexpr std::uint64_t kNibbleLow3 = 0x7777777777777777ull;
    static constexpr std::uint64_t kNibbleTop = 0x8888888888888888ull;

    /** Move @p way to the most-recent end of @p set's list. */
    void
    touch(std::uint64_t set, std::uint32_t way) noexcept
    {
        std::uint64_t word = recency_[set];
        // XOR zeroes the nibble holding `way`; the add-and-or test
        // then sets bit 3 of exactly the zero nibbles (no borrow
        // crosses a nibble), so the lowest flag is `way`'s position.
        std::uint64_t x = word ^ (way * 0x1111111111111111ull);
        std::uint64_t zero =
            ~(((x & kNibbleLow3) + kNibbleLow3) | x) & kNibbleTop;
        unsigned shift = static_cast<unsigned>(std::countr_zero(zero)) & ~3u;
        std::uint64_t newer = (std::uint64_t{1} << shift) - 1;
        std::uint64_t through = (newer << 4) | 0xF;
        recency_[set] = (word & ~through) | ((word & newer) << 4) | way;
    }

    std::vector<std::uint64_t> recency_; //!< one word per set
    unsigned lru_shift_ = 0;             //!< 4 * (ways - 1)
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_BASIC_LRU_HH
