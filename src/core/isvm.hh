/**
 * @file
 * The Integer Support Vector Machine of §4.3/§4.4.
 *
 * Each tracked PC owns one ISVM of 16 signed 8-bit weights. A
 * prediction sums the weights selected by 4-bit hashes of the PCHR
 * contents; training applies the integer perceptron/hinge update
 * (±1 with a no-update threshold), which — per Fact 1 of §4.3 — is
 * exactly gradient descent on the hinge loss with learning rate 1/n
 * rescaled to integer arithmetic.
 *
 * Storage is structure-of-arrays: IsvmTable owns one contiguous,
 * 64-byte-aligned int8 weight plane (entries x 16), and Isvm views
 * are thin row pointers into it. The dense per-request feature is a
 * SlotCounts vector — counts[j] = how many history PCs hash to slot
 * j — so a prediction is a 16-lane u8 x s8 dot product, which the
 * batched path (GliderPredictor::predictMany) hands to the SIMD
 * kernels in common/simd.hh. Every history PC is hashed exactly once
 * per operation: countSlots() builds the feature and both the
 * decision sum and the weight update consume it.
 */

#ifndef GLIDER_CORE_ISVM_HH
#define GLIDER_CORE_ISVM_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <span>

#include "common/hash.hh"
#include "common/logging.hh"
#include "common/simd.hh"
#include "opt/optgen.hh"

namespace glider {
namespace core {

/** ISVM row layout: 16 saturating signed 8-bit weights. */
inline constexpr std::size_t kIsvmWeights = 16;
inline constexpr int kIsvmWeightMax = 127;
inline constexpr int kIsvmWeightMin = -128;

/**
 * Histories longer than this cannot be represented in a SlotCounts
 * byte vector (and would break the SIMD exactness bound); the PCHR
 * holds ~5 unique PCs, so the cap is far from every real
 * configuration.
 */
inline constexpr std::size_t kIsvmMaxHistory = simd::kMaxCountSum;

/**
 * Per-thread count of slot-hash invocations. The one-hash contract —
 * every history PC hashed exactly once per predict/train/observe —
 * is a correctness *and* performance invariant (the pre-PR-6
 * double-hash bug silently doubled the hot-path hash cost); tests pin
 * it by sampling this counter around predictor operations. A
 * thread_local increment costs ~1 cycle and keeps the counter
 * race-free without atomics.
 */
inline std::uint64_t &
isvmSlotHashCount()
{
    thread_local std::uint64_t count = 0;
    return count;
}

/** 4-bit hash selecting the weight slot for a history PC. */
inline std::uint32_t
isvmSlotOf(std::uint64_t history_pc)
{
    ++isvmSlotHashCount();
    return static_cast<std::uint32_t>(hashBits(history_pc, 4));
}

/**
 * Dense k-sparse feature: per-slot multiplicity of a history.
 * lane[j] counts the history PCs hashing to weight slot j, so a
 * decision sum is dot(weights, lane). 16 bytes, register-friendly,
 * and maintainable incrementally (the PCHR updates it per observe).
 */
struct alignas(16) SlotCounts
{
    std::array<std::uint8_t, kIsvmWeights> lane{};

    const std::uint8_t *data() const { return lane.data(); }

    void add(std::uint32_t slot) { ++lane[slot]; }
    void remove(std::uint32_t slot) { --lane[slot]; }

    bool
    operator==(const SlotCounts &other) const
    {
        return lane == other.lane;
    }
};

/**
 * Hash every history PC once into a packed 16-byte count row (the
 * batched path writes straight into its gather buffer).
 */
inline void
countSlotsInto(std::span<const std::uint64_t> history,
               std::uint8_t *lanes)
{
    GLIDER_ASSERT(history.size() <= kIsvmMaxHistory);
    std::memset(lanes, 0, kIsvmWeights);
    for (auto pc : history)
        ++lanes[isvmSlotOf(pc)];
}

/** Hash every history PC once into its slot-count feature. */
inline SlotCounts
countSlots(std::span<const std::uint64_t> history)
{
    SlotCounts counts;
    countSlotsInto(history, counts.lane.data());
    return counts;
}

/** Exact decision sum of one weight row against a feature. */
inline int
isvmDotRow(const std::int8_t *weights, const SlotCounts &counts)
{
    int sum = 0;
    for (std::size_t j = 0; j < kIsvmWeights; ++j)
        sum += static_cast<int>(counts.lane[j])
            * static_cast<int>(weights[j]);
    return sum;
}

/**
 * Unconditional saturating hinge step: move each selected weight by
 * ±its multiplicity, clamped to the 8-bit range. Per-step clamping
 * and clamp-after-sum agree because all contributions share a sign.
 */
inline void
isvmApplyRow(std::int8_t *weights, const SlotCounts &counts,
             bool positive)
{
    for (std::size_t j = 0; j < kIsvmWeights; ++j) {
        int delta = static_cast<int>(counts.lane[j]);
        if (delta == 0)
            continue;
        int w = static_cast<int>(weights[j])
            + (positive ? delta : -delta);
        if (w > kIsvmWeightMax)
            w = kIsvmWeightMax;
        if (w < kIsvmWeightMin)
            w = kIsvmWeightMin;
        weights[j] = static_cast<std::int8_t>(w);
    }
}

/**
 * Thresholded integer hinge/perceptron update (the "do not update
 * when above threshold" rule of §4.4) against a precomputed feature.
 * @return true if weights moved (the threshold did not skip it).
 */
inline bool
isvmTrainRow(std::int8_t *weights, const SlotCounts &counts,
             bool positive, int threshold)
{
    int sum = isvmDotRow(weights, counts);
    if (positive && sum > threshold)
        return false;
    if (!positive && sum < -threshold)
        return false;
    isvmApplyRow(weights, counts, positive);
    return true;
}

/** Read-only view over one PC's weight row in the SoA plane. */
class IsvmConstView
{
  public:
    explicit IsvmConstView(const std::int8_t *row) : w_(row) {}

    /** Sum of the weights selected by @p history. */
    int
    predict(const opt::PcHistory &history) const
    {
        return isvmDotRow(w_, countSlots(history));
    }

    /** Decision sum against a pre-resolved slot-count feature. */
    int
    predictCounts(const SlotCounts &counts) const
    {
        return isvmDotRow(w_, counts);
    }

    std::span<const std::int8_t, kIsvmWeights>
    weights() const
    {
        return std::span<const std::int8_t, kIsvmWeights>(w_,
                                                          kIsvmWeights);
    }

    const std::int8_t *data() const { return w_; }

  private:
    const std::int8_t *w_;
};

/** Mutable row view: adds the integer hinge/perceptron update. */
class IsvmView
{
  public:
    explicit IsvmView(std::int8_t *row) : w_(row) {}

    int
    predict(const opt::PcHistory &history) const
    {
        return isvmDotRow(w_, countSlots(history));
    }

    int
    predictCounts(const SlotCounts &counts) const
    {
        return isvmDotRow(w_, counts);
    }

    /** Thresholded update; hashes each history PC exactly once. */
    bool
    train(const opt::PcHistory &history, bool positive, int threshold)
    {
        return isvmTrainRow(w_, countSlots(history), positive,
                            threshold);
    }

    /** Unconditional saturating step (threshold already checked). */
    void
    applyCounts(const SlotCounts &counts, bool positive)
    {
        isvmApplyRow(w_, counts, positive);
    }

    std::span<const std::int8_t, kIsvmWeights>
    weights() const
    {
        return std::span<const std::int8_t, kIsvmWeights>(w_,
                                                          kIsvmWeights);
    }

    std::int8_t *data() { return w_; }

    operator IsvmConstView() const { return IsvmConstView(w_); }

  private:
    std::int8_t *w_;
};

/**
 * One PC's integer SVM as a standalone value (tests, microbenches,
 * single-predictor tools): owns its 16-byte row inline — the real
 * hardware budget of Table 3 — and exposes the same operations as
 * the table views.
 */
class Isvm
{
  public:
    static constexpr std::size_t kWeights = kIsvmWeights;
    static constexpr int kWeightMax = kIsvmWeightMax;
    static constexpr int kWeightMin = kIsvmWeightMin;

    /** 4-bit hash selecting the weight slot for a history PC. */
    static std::uint32_t
    slotOf(std::uint64_t history_pc)
    {
        return isvmSlotOf(history_pc);
    }

    int
    predict(const opt::PcHistory &history) const
    {
        return isvmDotRow(w_.data(), countSlots(history));
    }

    int
    predictCounts(const SlotCounts &counts) const
    {
        return isvmDotRow(w_.data(), counts);
    }

    bool
    train(const opt::PcHistory &history, bool positive, int threshold)
    {
        return isvmTrainRow(w_.data(), countSlots(history), positive,
                            threshold);
    }

    std::span<const std::int8_t, kIsvmWeights>
    weights() const
    {
        return std::span<const std::int8_t, kIsvmWeights>(w_.data(),
                                                          kIsvmWeights);
    }

    IsvmView view() { return IsvmView(w_.data()); }
    IsvmConstView view() const { return IsvmConstView(w_.data()); }

  private:
    alignas(16) std::array<std::int8_t, kIsvmWeights> w_{};
};

static_assert(sizeof(Isvm) == kIsvmWeights,
              "Isvm must cost exactly its 16 8-bit weights");

/**
 * The ISVM Table of Figure 8: a direct-mapped structure holding one
 * ISVM per tracked PC (2048 PCs, hash-indexed). Weights live in a
 * single contiguous 64-byte-aligned int8 plane (structure-of-arrays)
 * so telemetry scans and checkpointing are linear sweeps and the
 * batched predictor can gather rows for the SIMD kernels.
 */
class IsvmTable
{
  public:
    /** Plane alignment: one full cache line. */
    static constexpr std::size_t kPlaneAlign = 64;

    explicit IsvmTable(std::size_t entries = 2048) : entries_(entries)
    {
        GLIDER_ASSERT(entries_ > 0);
        // Power-of-two tables (the hardware-realistic shape, and the
        // paper's 2048) index with a mask instead of hashInto's
        // runtime modulo: mix64(x) % 2^k == mix64(x) & (2^k - 1), so
        // the fast path is bit-identical while dropping a 64-bit
        // division from every row lookup.
        if ((entries_ & (entries_ - 1)) == 0)
            index_mask_ = entries_ - 1;
        plane_.reset(static_cast<std::int8_t *>(::operator new[](
            entries_ * kIsvmWeights, std::align_val_t{kPlaneAlign})));
        std::memset(plane_.get(), 0, entries_ * kIsvmWeights);
    }

    /** Plane row index owned by (pc, core); core folds into the hash. */
    std::size_t
    rowIndexOf(std::uint64_t pc, std::uint8_t core) const
    {
        const std::uint64_t key = hashCombine(pc, core);
        if (index_mask_ != 0)
            return static_cast<std::size_t>(mix64(key) & index_mask_);
        return static_cast<std::size_t>(hashInto(key, entries_));
    }

    /** Raw weight row @p index (batched gather path). */
    const std::int8_t *
    row(std::size_t index) const
    {
        return plane_.get() + index * kIsvmWeights;
    }

    std::int8_t *
    row(std::size_t index)
    {
        return plane_.get() + index * kIsvmWeights;
    }

    /** ISVM owned by (pc, core), as a mutable row view. */
    IsvmView
    forPc(std::uint64_t pc, std::uint8_t core = 0)
    {
        return IsvmView(row(rowIndexOf(pc, core)));
    }

    IsvmConstView
    forPc(std::uint64_t pc, std::uint8_t core = 0) const
    {
        return IsvmConstView(row(rowIndexOf(pc, core)));
    }

    std::size_t entries() const { return entries_; }

    /** The whole weight plane as one linear span (telemetry, tests). */
    std::span<const std::int8_t>
    plane() const
    {
        return std::span<const std::int8_t>(plane_.get(),
                                            entries_ * kIsvmWeights);
    }

    /**
     * Hardware budget of the table in bytes (Table 3 bookkeeping);
     * with int8 storage this is also the actual simulator footprint.
     */
    std::size_t
    storageBytes() const
    {
        return entries_ * kIsvmWeights; // 8-bit weights
    }

    /** Weight-population census (telemetry; full-table scan). */
    struct WeightStats
    {
        std::size_t total = 0;  //!< weights in the table
        std::size_t at_max = 0; //!< saturated at kWeightMax
        std::size_t at_min = 0; //!< saturated at kWeightMin
        std::size_t zero = 0;   //!< still (or back) at zero

        double
        saturationFraction() const
        {
            return total ? static_cast<double>(at_max + at_min)
                    / static_cast<double>(total)
                         : 0.0;
        }
    };

    WeightStats
    weightStats() const
    {
        WeightStats ws;
        ws.total = entries_ * kIsvmWeights;
        for (std::int8_t w : plane()) {
            if (w >= kIsvmWeightMax)
                ++ws.at_max;
            else if (w <= kIsvmWeightMin)
                ++ws.at_min;
            else if (w == 0)
                ++ws.zero;
        }
        return ws;
    }

  private:
    struct PlaneDelete
    {
        void
        operator()(std::int8_t *p) const
        {
            ::operator delete[](p, std::align_val_t{kPlaneAlign});
        }
    };

    std::size_t entries_;
    std::uint64_t index_mask_ = 0; //!< entries-1 when entries is 2^k
    std::unique_ptr<std::int8_t[], PlaneDelete> plane_;
};

} // namespace core
} // namespace glider

#endif // GLIDER_CORE_ISVM_HH
