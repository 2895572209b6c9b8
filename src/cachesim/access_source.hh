/**
 * @file
 * Chunked access-record sources for the simulation drivers.
 *
 * The simulator replays records through an AccessSource instead of a
 * concrete Trace, so the same loop serves both the in-memory path
 * (TraceSource: the whole vector as one zero-copy chunk) and the
 * billion-access streaming path (StreamingSource: one decoded gtrace
 * chunk resident at a time, consumed pages dropped behind the cursor).
 * Both deliver identical record sequences, so streamed results are
 * bit-identical to in-memory ones by construction. A TraceSource also
 * hands over the trace's memoised private-filter codes for a core's
 * first pass; a streamed source has none, and the replay filters each
 * chunk as it arrives.
 */

#ifndef GLIDER_CACHESIM_ACCESS_SOURCE_HH
#define GLIDER_CACHESIM_ACCESS_SOURCE_HH

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "private_filter.hh"
#include "traces/gtrace.hh"
#include "traces/trace.hh"

namespace glider {
namespace sim {

/**
 * An ordered stream of access records delivered in chunks. Callers
 * iterate nextChunk() until it returns an empty span, and may rewind()
 * to replay from the start (the multi-core early-finisher rule).
 * Returned spans stay valid until the next nextChunk()/rewind() call
 * on the same source.
 */
class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /** Workload name carried into result rows. */
    virtual const std::string &name() const = 0;

    /** Total records one full pass delivers. */
    virtual std::uint64_t size() const = 0;

    /** Next chunk of records; empty span once exhausted. */
    virtual std::span<const traces::AccessRecord> nextChunk() = 0;

    /** Restart delivery from the first record. */
    virtual void rewind() = 0;

    /**
     * The private-filter codes of one pass through cold L1/L2 of
     * @p config's shape, when the source keeps them (see
     * PrivateFilter::of); nullptr otherwise.
     */
    virtual std::shared_ptr<const DepthCodes>
    memoisedDepths(const HierarchyConfig &) const
    {
        return nullptr;
    }
};

/** In-memory source: the whole trace as one zero-copy chunk. */
class TraceSource final : public AccessSource
{
  public:
    explicit TraceSource(const traces::Trace &trace) : trace_(&trace) {}

    const std::string &name() const override { return trace_->name(); }
    std::uint64_t size() const override { return trace_->size(); }

    std::span<const traces::AccessRecord>
    nextChunk() override
    {
        if (delivered_)
            return {};
        delivered_ = true;
        return {trace_->records().data(), trace_->records().size()};
    }

    void rewind() override { delivered_ = false; }

    std::shared_ptr<const DepthCodes>
    memoisedDepths(const HierarchyConfig &config) const override
    {
        return PrivateFilter::of(*trace_, config);
    }

  private:
    const traces::Trace *trace_;
    bool delivered_ = false;
};

/**
 * Streaming source over an open gtrace file. Memory use is one decode
 * buffer (the file's largest chunk), independent of trace length; with
 * @p drop_pages set (the default) consumed file pages are released as
 * the cursor passes them, so resident set stays O(1) too. Dropped
 * pages transparently refault on rewind().
 */
class StreamingSource final : public AccessSource
{
  public:
    explicit StreamingSource(traces::StreamingTrace trace,
                             bool drop_pages = true)
        : trace_(std::move(trace)), drop_pages_(drop_pages)
    {
        GLIDER_ASSERT(trace_.isOpen());
        // glider-lint: allow(hotpath-alloc) decode buffer sized once
        buf_.resize(trace_.maxChunkRecords());
    }

    const std::string &name() const override { return trace_.name(); }
    std::uint64_t size() const override { return trace_.size(); }

    std::span<const traces::AccessRecord>
    nextChunk() override
    {
        if (next_ >= trace_.chunkCount())
            return {};
        std::size_t idx = next_++;
        std::size_t n = trace_.readChunk(idx, buf_.data(), buf_.size());
        if (drop_pages_)
            trace_.dropChunkPages(idx);
        return {buf_.data(), n};
    }

    void rewind() override { next_ = 0; }

    const traces::StreamingTrace &trace() const { return trace_; }

  private:
    traces::StreamingTrace trace_;
    std::vector<traces::AccessRecord> buf_;
    std::size_t next_ = 0;
    bool drop_pages_;
};

} // namespace sim
} // namespace glider

#endif // GLIDER_CACHESIM_ACCESS_SOURCE_HH
