/**
 * @file
 * MUSTACHE-style multi-step-ahead eviction (after Quislant et al.,
 * "MUSTACHE: Multi-Step-Ahead Predictions for Cache Eviction", 2022;
 * see PAPERS.md). A first-order Markov successor table learns, per
 * block, which block the program touches next. At eviction time the
 * policy rolls the chain forward K steps from the missing block and
 * protects any resident line the chain predicts will be needed soon;
 * the victim is the least-recently-used line outside that predicted
 * window.
 *
 * Storage: a 64K-entry successor table (8B each, direct-mapped by
 * block hash) plus one per-line recency word and a small per-core
 * last-block register; all preallocated in reset().
 */

#ifndef GLIDER_POLICIES_MUSTACHE_HH
#define GLIDER_POLICIES_MUSTACHE_HH

#include <array>
#include <vector>

#include "cachesim/replacement.hh"
#include "common/hash.hh"

namespace glider {
namespace policies {

/** Markov-chain lookahead eviction. */
class MustachePolicy : public sim::ReplacementPolicy
{
  public:
    std::string name() const override { return "MUSTACHE"; }

    void
    reset(const sim::CacheGeometry &geom) override
    {
        geom_ = geom;
        clock_ = 0;
        succ_.assign(kSuccEntries, 0);
        last_touch_.assign(geom.sets * geom.ways, 0);
        last_block_.fill(0);
    }

    std::uint32_t
    victimWay(const sim::ReplacementAccess &access,
              sim::SetView lines) noexcept override
    {
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (!lines[w].valid())
                return w;
        }
        // Roll the successor chain K steps ahead of the missing
        // block and protect resident lines the chain names.
        std::uint32_t protected_mask = 0;
        std::uint64_t cur = access.block_addr;
        for (std::uint32_t step = 0; step < kLookahead; ++step) {
            cur = succ_[slotOf(cur)];
            if (cur == 0)
                break;
            for (std::uint32_t w = 0; w < geom_.ways; ++w) {
                if (lines[w].block_addr == cur)
                    protected_mask |= 1u << (w & 31);
            }
        }
        // LRU among the unprotected lines; plain LRU when the chain
        // claims the whole set (stale chains must not block eviction).
        std::size_t base = access.set * geom_.ways;
        std::uint32_t victim = 0;
        std::uint64_t oldest = ~0ull;
        bool found = false;
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (protected_mask & (1u << (w & 31)))
                continue;
            if (last_touch_[base + w] < oldest) {
                oldest = last_touch_[base + w];
                victim = w;
                found = true;
            }
        }
        if (found)
            return victim;
        for (std::uint32_t w = 0; w < geom_.ways; ++w) {
            if (last_touch_[base + w] < oldest) {
                oldest = last_touch_[base + w];
                victim = w;
            }
        }
        return victim;
    }

    void
    onHit(const sim::ReplacementAccess &access, std::uint32_t way)
        noexcept override
    {
        last_touch_[access.set * geom_.ways + way] = ++clock_;
        observe(access);
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
        last_touch_[access.set * geom_.ways + way] = ++clock_;
        observe(access);
    }

  private:
    static constexpr std::size_t kSuccEntries = 64 * 1024;
    static constexpr std::uint32_t kLookahead = 8;

    static std::size_t
    slotOf(std::uint64_t block)
    {
        return static_cast<std::size_t>(hashInto(block, kSuccEntries));
    }

    /** Record block-to-block succession, per core. */
    void
    observe(const sim::ReplacementAccess &access)
    {
        std::uint64_t prev = last_block_[access.core];
        if (prev != 0 && prev != access.block_addr)
            succ_[slotOf(prev)] = access.block_addr;
        last_block_[access.core] = access.block_addr;
    }

    sim::CacheGeometry geom_;
    std::uint64_t clock_ = 0;
    std::vector<std::uint64_t> succ_;       //!< Markov successor table
    std::vector<std::uint64_t> last_touch_; //!< per-line recency
    std::array<std::uint64_t, 256> last_block_{}; //!< per-core chain head
};

} // namespace policies
} // namespace glider

#endif // GLIDER_POLICIES_MUSTACHE_HH
