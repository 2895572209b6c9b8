/**
 * @file
 * In-memory access traces.
 *
 * A Trace is the interchange format between the workload generators,
 * the cache simulator, the Belady oracle, and the offline learning
 * pipeline. Its on-disk form is gtrace (gtrace.hh).
 */

#ifndef GLIDER_TRACES_TRACE_HH
#define GLIDER_TRACES_TRACE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "access.hh"
#include "common/thread_annotations.hh"
#include "sink.hh"

namespace glider {
namespace traces {

/**
 * Data derived from one trace's records, computed on first use and
 * kept with the trace (sim::PrivateFilter's depth codes are the one
 * user). Entries are keyed by the parameters of the derivation, so a
 * second shape builds its own entry. Lookups are thread-safe and
 * concurrent first lookups of one key build it once. The trace drops
 * every entry when its records change, and a copied trace starts
 * with none: the memo belongs to one trace object, never to an
 * address that a later trace could reuse.
 */
class TraceMemo
{
  public:
    using Key = std::array<std::uint64_t, 4>;

    TraceMemo() = default;
    TraceMemo(const TraceMemo &) {}
    TraceMemo(TraceMemo &&other) noexcept { take(other); }

    TraceMemo &
    operator=(const TraceMemo &)
    {
        clear();
        return *this;
    }

    TraceMemo &
    operator=(TraceMemo &&other) noexcept
    {
        take(other);
        return *this;
    }

    /**
     * The entry under @p key; on first use, @p build() makes it under
     * the memo's lock, so concurrent askers wait for the one build.
     */
    template <class T, class Build>
    std::shared_ptr<const T>
    get(const Key &key, Build &&build) const
    {
        LockGuard lock(mu_);
        for (const Entry &e : entries_) {
            if (e.key == key)
                return std::static_pointer_cast<const T>(e.value);
        }
        std::shared_ptr<const T> value = build();
        entries_.push_back({key, value});
        return value;
    }

    /**
     * Drop every entry. Only the trace's mutators call this, and a
     * mutator already needs exclusive access to the trace, so no
     * lookup can run concurrently.
     */
    void
    clear() GLIDER_NO_THREAD_SAFETY_ANALYSIS
    {
        entries_.clear();
    }

  private:
    struct Entry
    {
        Key key;
        std::shared_ptr<const void> value;
    };

    //! Moving needs exclusive access to both memos, like clear().
    void
    take(TraceMemo &other) GLIDER_NO_THREAD_SAFETY_ANALYSIS
    {
        std::vector<Entry> entries = std::move(other.entries_);
        other.entries_.clear();
        entries_ = std::move(entries);
    }

    mutable Mutex mu_;
    mutable std::vector<Entry> entries_ GLIDER_GUARDED_BY(mu_);
};

/** A named, ordered sequence of memory accesses, held in RAM. */
class Trace : public TraceSink
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    /** Append one access. */
    void push(const AccessRecord &rec) override
    {
        memo_.clear();
        records_.push_back(rec);
    }

    using TraceSink::push;

    /** Append an access by fields. */
    void
    push(std::uint64_t pc, std::uint64_t address, bool is_write = false,
         std::uint8_t core = 0)
    {
        memo_.clear();
        records_.push_back(AccessRecord{pc, address, core, is_write});
    }

    const std::string &name() const { return name_; }
    void setName(std::string n) { name_ = std::move(n); }

    std::uint64_t size() const override { return records_.size(); }
    bool empty() const { return records_.empty(); }
    const AccessRecord &operator[](std::size_t i) const
    {
        return records_[i];
    }
    const std::vector<AccessRecord> &records() const { return records_; }

    auto begin() const { return records_.begin(); }
    auto end() const { return records_.end(); }

    /** Keep only the first @p n accesses. */
    void
    truncate(std::size_t n)
    {
        if (n < records_.size()) {
            memo_.clear();
            records_.resize(n);
        }
    }

    /** Sub-trace of records [first, first+count), clamped to size. */
    Trace slice(std::size_t first, std::size_t count) const;

    /** Data derived from these records; see TraceMemo. */
    const TraceMemo &memo() const { return memo_; }

  private:
    std::string name_;
    std::vector<AccessRecord> records_;
    TraceMemo memo_;
};

} // namespace traces
} // namespace glider

#endif // GLIDER_TRACES_TRACE_HH
