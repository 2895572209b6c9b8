/**
 * @file
 * The private L1/L2 pass, run once per trace.
 *
 * L1 and L2 are fixed true-LRU, non-inclusive, with no back-
 * invalidation and no writebacks (Table 1, as in ChampSim). Nothing
 * the LLC does ever reaches back into them, so where each CPU access
 * stops in the private levels — and hence the LLC access stream —
 * depends only on the trace and the L1/L2 shapes, never on the LLC
 * policy. PrivateFilter computes that as one 2-bit depth code per
 * access; the replay loop then walks only the LLC, and
 * opt::extractLlcStream selects the LLC-bound records. The replay and
 * the reference Hierarchy walk keep one PrivateFilter per core.
 */

#ifndef GLIDER_CACHESIM_PRIVATE_FILTER_HH
#define GLIDER_CACHESIM_PRIVATE_FILTER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cache.hh"
#include "cache_config.hh"
#include "traces/trace.hh"

namespace glider {
namespace sim {

/** Deepest private level an access reached; fits in 2 bits. */
enum class PrivateDepth : std::uint8_t { L1 = 0, L2 = 1, Llc = 2 };

/** One PrivateDepth per CPU access, packed 32 to a 64-bit word. */
class DepthCodes
{
  public:
    /** Number of codes (CPU accesses). */
    std::uint64_t size() const { return size_; }

    /** How many codes are PrivateDepth::Llc. */
    std::uint64_t llcCount() const { return llc_; }

    /** Heap bytes held: size()/4, rounded up to a word. */
    std::size_t bytes() const { return words_.size() * sizeof(Word); }

    PrivateDepth
    operator[](std::uint64_t i) const
    {
        return static_cast<PrivateDepth>(
            (words_[i / kPerWord] >> (i % kPerWord * kBits)) & 3);
    }

  private:
    friend class PrivateFilter;
    using Word = std::uint64_t;
    static constexpr unsigned kBits = 2;
    static constexpr unsigned kPerWord = 64 / kBits;

    std::vector<Word> words_;
    std::uint64_t size_ = 0;
    std::uint64_t llc_ = 0;
};

/** The private L1 and L2 of one core, in front of the shared LLC. */
class PrivateFilter
{
  public:
    explicit PrivateFilter(const HierarchyConfig &config);

    /**
     * Walk one access through L1 and, on an L1 miss, L2, filling on
     * the way back. @return where it stopped.
     */
    PrivateDepth
    access(std::uint8_t core, std::uint64_t pc, std::uint64_t block_addr,
           bool is_write)
    {
        if (l1_.access(core, pc, block_addr, is_write))
            return PrivateDepth::L1;
        if (l2_.access(core, pc, block_addr, is_write))
            return PrivateDepth::L2;
        return PrivateDepth::Llc;
    }

    /**
     * Replace @p out with the codes of @p records, continuing from
     * the cache state the earlier calls left. @p out keeps its
     * capacity, so refilling it chunk by chunk allocates only while
     * chunks grow.
     */
    void filter(std::span<const traces::AccessRecord> records,
                DepthCodes &out);

    /**
     * The codes of every record of @p trace under @p config's L1/L2,
     * built on first use and kept in trace.memo() (2 bits per access)
     * until the trace changes. The LLC shape and the latencies play
     * no part, so HierarchyConfig::forCores(n) shares one entry.
     */
    static std::shared_ptr<const DepthCodes>
    of(const traces::Trace &trace, const HierarchyConfig &config);

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }

  private:
    Cache l1_;
    Cache l2_;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_PRIVATE_FILTER_HH
