#include "optgen.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/hash.hh"
#include "common/logging.hh"

namespace glider {
namespace opt {

OptGenSet::OptGenSet(std::uint32_t ways, std::size_t history_quanta,
                     std::size_t max_entries)
    : ways_(ways), history_quanta_(history_quanta),
      max_entries_(max_entries), occupancy_(history_quanta, 0),
      entries_(max_entries)
{
    GLIDER_ASSERT(ways >= 1);
    GLIDER_ASSERT(history_quanta >= 1);
    GLIDER_ASSERT(max_entries >= 1);
    // The expired queue is drained after every access, so it never
    // holds more than one batch of aged-out entries; reserving the
    // entry budget keeps the access-path push_backs allocation-free.
    expired_.reserve(max_entries);
}

std::uint8_t &
OptGenSet::occupancyAt(std::uint64_t time)
{
    GLIDER_ASSERT(time >= base_time_ && time < clock_ + 1);
    return occupancy_[time % history_quanta_];
}

std::optional<TrainingEvent>
OptGenSet::access(std::uint64_t block, std::uint64_t pc,
                  std::uint8_t core, const PcHistory &history,
                  bool predicted_friendly, bool prediction_valid)
{
    std::uint64_t now = clock_++;
    // Open the new quantum; slide the window forward if full.
    if (now >= history_quanta_) {
        std::uint64_t new_base = now - history_quanta_ + 1;
        // Entries whose interval start aged out of the window can
        // never be proven OPT hits: emit negative training for them.
        for (auto &e : entries_) {
            if (e.valid && e.last_time < new_base) {
                TrainingEvent ev;
                ev.opt_hit = false;
                ev.pc = e.pc;
                ev.block = e.block;
                ev.core = e.core;
                ev.history = e.history;
                ev.predicted_friendly = e.predicted_friendly;
                ev.prediction_valid = e.prediction_valid;
                // glider-lint: allow(hotpath-alloc) reserved to
                // max_entries in the constructor
                expired_.push_back(std::move(ev));
                e.valid = false;
                ++stats_.expired_negatives;
            }
        }
        base_time_ = new_base;
    }
    occupancy_[now % history_quanta_] = 0;

    std::optional<TrainingEvent> result;
    Entry *entry = nullptr;
    Entry *free_slot = nullptr;
    Entry *oldest = nullptr;
    for (auto &e : entries_) {
        if (e.valid && e.block == block) {
            entry = &e;
            break;
        }
        if (!e.valid && !free_slot)
            free_slot = &e;
        if (e.valid && (!oldest || e.last_time < oldest->last_time))
            oldest = &e;
    }

    if (entry) {
        // Usage interval [entry->last_time, now): an OPT hit iff all
        // its quanta still have spare capacity.
        bool fits = true;
        for (std::uint64_t t = entry->last_time; t < now; ++t) {
            if (occupancyAt(t) >= ways_) {
                fits = false;
                break;
            }
        }
        if (fits) {
            for (std::uint64_t t = entry->last_time; t < now; ++t)
                ++occupancyAt(t);
            ++stats_.hit_intervals;
        } else {
            ++stats_.miss_intervals;
        }
        TrainingEvent ev;
        ev.opt_hit = fits;
        ev.pc = entry->pc;
        ev.block = entry->block;
        ev.core = entry->core;
        ev.history = entry->history;
        ev.predicted_friendly = entry->predicted_friendly;
        ev.prediction_valid = entry->prediction_valid;
        result = std::move(ev);
    } else {
        // New tracked address; steal the oldest entry if at capacity.
        entry = free_slot;
        if (!entry) {
            GLIDER_ASSERT(oldest != nullptr);
            // The displaced address never got labelled: negative.
            TrainingEvent ev;
            ev.opt_hit = false;
            ev.pc = oldest->pc;
            ev.block = oldest->block;
            ev.core = oldest->core;
            ev.history = oldest->history;
            ev.predicted_friendly = oldest->predicted_friendly;
            ev.prediction_valid = oldest->prediction_valid;
            // glider-lint: allow(hotpath-alloc) reserved to
            // max_entries in the constructor
            expired_.push_back(std::move(ev));
            ++stats_.capacity_evictions;
            entry = oldest;
        }
    }

    entry->block = block;
    entry->last_time = now;
    entry->pc = pc;
    entry->core = core;
    entry->history = history;
    entry->predicted_friendly = predicted_friendly;
    entry->prediction_valid = prediction_valid;
    entry->valid = true;
    return result;
}

double
OptGenSet::occupancyUtilization() const
{
    if (clock_ == 0)
        return 0.0;
    std::uint64_t quanta = std::min<std::uint64_t>(
        clock_, static_cast<std::uint64_t>(history_quanta_));
    std::uint64_t total = 0;
    for (std::uint64_t t = clock_ - quanta; t < clock_; ++t)
        total += occupancy_[t % history_quanta_];
    return static_cast<double>(total)
        / (static_cast<double>(quanta) * static_cast<double>(ways_));
}

std::optional<TrainingEvent>
OptGenSet::popExpired()
{
    if (expired_.empty())
        return std::nullopt;
    TrainingEvent ev = std::move(expired_.back());
    expired_.pop_back();
    return ev;
}

OptGenSampler::OptGenSampler(std::uint64_t sets, std::uint32_t ways,
                             std::uint64_t sampled_sets,
                             std::size_t window_quanta_per_way,
                             std::size_t entries_per_way)
{
    GLIDER_ASSERT(sets >= 1);
    sets_ = sets;
    if (sampled_sets > sets)
        sampled_sets = sets;
    // Hash-ranked selection: the sampled_sets sets with the smallest
    // mixed index are chosen. Deterministic, evenly spread, and free
    // of stride aliasing.
    std::vector<std::uint64_t> order(sets);
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [](std::uint64_t a, std::uint64_t b) {
                  return mix64(a) < mix64(b);
              });
    sample_index_.assign(sets, -1);
    sampled_.reserve(sampled_sets);
    for (std::uint64_t i = 0; i < sampled_sets; ++i) {
        sample_index_[order[i]] = static_cast<std::int32_t>(i);
        sampled_.emplace_back(ways, window_quanta_per_way * ways,
                              entries_per_way * ways);
    }
    // At least one word, so nextPending never reads an empty mask.
    pending_.assign(sampled_.size() / 64 + 1, 0);
}

bool
OptGenSampler::isSampled(std::uint64_t set) const
{
    return sample_index_[set] >= 0;
}

std::optional<TrainingEvent>
OptGenSampler::access(std::uint64_t set, std::uint64_t block,
                      std::uint64_t pc, std::uint8_t core,
                      const PcHistory &history,
                      bool predicted_friendly, bool prediction_valid)
{
    GLIDER_ASSERT(isSampled(set));
    auto slot = static_cast<std::size_t>(sample_index_[set]);
    OptGenSet &og = sampled_[slot];
    auto ev = og.access(block, pc, core, history, predicted_friendly,
                        prediction_valid);
    if (og.hasExpired())
        pending_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    return ev;
}

OptGenSet::Stats
OptGenSampler::stats() const
{
    OptGenSet::Stats total;
    for (const auto &s : sampled_) {
        total.hit_intervals += s.stats().hit_intervals;
        total.miss_intervals += s.stats().miss_intervals;
        total.expired_negatives += s.stats().expired_negatives;
        total.capacity_evictions += s.stats().capacity_evictions;
    }
    return total;
}

double
OptGenSampler::occupancyUtilization() const
{
    if (sampled_.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &s : sampled_)
        sum += s.occupancyUtilization();
    return sum / static_cast<double>(sampled_.size());
}

std::size_t
OptGenSampler::nextPending(std::size_t from) const
{
    // Mask off the slots before @p from in its word, visit every word
    // once, then revisit that first word whole for the wrapped slots.
    std::size_t word = from / 64;
    std::uint64_t bits =
        pending_[word] & (~std::uint64_t{0} << (from % 64));
    for (std::size_t n = 0; n <= pending_.size(); ++n) {
        if (bits)
            return word * 64
                + static_cast<std::size_t>(std::countr_zero(bits));
        word = word + 1 == pending_.size() ? 0 : word + 1;
        bits = pending_[word];
    }
    return sampled_.size();
}

std::optional<TrainingEvent>
OptGenSampler::popExpired()
{
    // Round-robin drain: the cursor moves past each set it serves, so
    // one hot set cannot drain exhaustively while other sets' expired
    // negatives go stale behind it. Sets without events are skipped
    // through the pending bitmask, not visited.
    std::size_t slot = nextPending(drain_cursor_);
    if (slot == sampled_.size())
        return std::nullopt;
    OptGenSet &og = sampled_[slot];
    auto ev = og.popExpired();
    if (!og.hasExpired())
        pending_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    drain_cursor_ = slot + 1 == sampled_.size() ? 0 : slot + 1;
    return ev;
}

} // namespace opt
} // namespace glider
