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

#include <cstddef>
#include <string>
#include <vector>

#include "access.hh"
#include "sink.hh"

namespace glider {
namespace traces {

/** A named, ordered sequence of memory accesses, held in RAM. */
class Trace : public TraceSink
{
  public:
    Trace() = default;
    explicit Trace(std::string name) : name_(std::move(name)) {}

    /** Append one access. */
    void push(const AccessRecord &rec) override
    {
        records_.push_back(rec);
    }

    using TraceSink::push;

    /** Append an access by fields. */
    void
    push(std::uint64_t pc, std::uint64_t address, bool is_write = false,
         std::uint8_t core = 0)
    {
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
        if (n < records_.size())
            records_.resize(n);
    }

    /** Sub-trace of records [first, first+count), clamped to size. */
    Trace slice(std::size_t first, std::size_t count) const;

  private:
    std::string name_;
    std::vector<AccessRecord> records_;
};

} // namespace traces
} // namespace glider

#endif // GLIDER_TRACES_TRACE_HH
