/**
 * @file
 * gtrace v1: the compact on-disk trace format behind billion-access
 * streaming simulation.
 *
 * An in-memory Trace costs ~24 bytes per access; at the paper's
 * multi-billion-access trace lengths that is tens of gigabytes per
 * workload. gtrace stores the same stream in a few bytes per access
 * by delta-encoding PCs and addresses (consecutive accesses are
 * overwhelmingly near each other in both spaces) and never requires
 * more than one chunk of decoded records in memory at a time.
 *
 * File layout (all integers little-endian):
 *
 *   FileHeader
 *     magic         8 bytes  "GLDRGTR1"
 *     version       u32      1
 *     name_len      u32      trace-name byte count
 *     name          name_len bytes (no terminator)
 *     chunk_target  u32      records per full chunk at write time
 *     reserved      u32      0
 *   Chunk (repeated; zero or more)
 *     chunk_magic   u32      0x4B4E4843 ("CHNK")
 *     records       u32      records in this chunk (1..chunk_target)
 *     payload_bytes u64      encoded byte count
 *     checksum      u64      FNV-1a 64 over the payload bytes
 *     payload       payload_bytes bytes
 *   Trailer
 *     end_magic     u32      0x444E4547 ("GEND")
 *     reserved      u32      0
 *     total_records u64      sum of chunk record counts
 *     chunk_count   u64      number of chunks
 *
 * Payload encoding, per record, in order:
 *     flags    1 byte        core << 1 | is_write
 *     pc       zigzag varint delta vs. previous record's pc
 *     address  zigzag varint delta vs. previous record's address
 * Deltas reset to (0, 0) at every chunk start, so each chunk decodes
 * independently — the property chunk-sliced streaming and random
 * chunk access both rely on. Deltas are computed modulo 2^64, so any
 * jump (including > 4 GiB in either direction) round-trips exactly.
 *
 * The reader mmaps the file and decodes one chunk at a time into a
 * caller-provided buffer; consumed pages can be dropped with
 * dropChunkPages() so sequential replay keeps resident memory O(1)
 * in trace length.
 */

#ifndef GLIDER_TRACES_GTRACE_HH
#define GLIDER_TRACES_GTRACE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "access.hh"
#include "sink.hh"

namespace glider {
namespace traces {

namespace gtrace {

/** Records per chunk unless the writer is told otherwise. */
constexpr std::uint32_t kDefaultChunkRecords = 1u << 16;

/** Worst-case encoded bytes per record (flags + two 10-byte varints). */
constexpr std::size_t kMaxRecordBytes = 21;

} // namespace gtrace

/**
 * Streaming gtrace writer: push records, get a chunked, checksummed
 * file. Memory use is one encode buffer (chunk_target records' worst
 * case), independent of how many records pass through.
 */
class GtraceWriter
{
  public:
    GtraceWriter() = default;
    ~GtraceWriter();

    GtraceWriter(const GtraceWriter &) = delete;
    GtraceWriter &operator=(const GtraceWriter &) = delete;

    /**
     * Create @p path and write the file header. @p name is the trace
     * name embedded in the file (the workload name, so streamed
     * results label rows identically to in-memory ones).
     */
    bool open(const std::string &path, const std::string &name,
              std::uint32_t chunk_target = gtrace::kDefaultChunkRecords);

    /** Append one record (buffered; flushed at chunk boundaries). */
    void push(const AccessRecord &rec);

    /** Records pushed so far. */
    std::uint64_t pushed() const { return pushed_; }

    /** False after any write error; finish() will fail. */
    bool ok() const { return file_ != nullptr && ok_; }

    /**
     * Flush the final partial chunk, write the trailer, and close.
     * @return true when every byte reached the file.
     */
    bool finish();

  private:
    void flushChunk();
    void put8(std::uint8_t b) { buf_[used_++] = b; }
    void putVarint(std::uint64_t v);

    std::FILE *file_ = nullptr;
    std::vector<std::uint8_t> buf_; //!< encode buffer, sized at open
    std::size_t used_ = 0;          //!< encoded bytes in buf_
    std::uint32_t chunk_target_ = gtrace::kDefaultChunkRecords;
    std::uint32_t chunk_records_ = 0;
    std::uint64_t chunk_count_ = 0;
    std::uint64_t pushed_ = 0;
    std::uint64_t prev_pc_ = 0;
    std::uint64_t prev_addr_ = 0;
    bool ok_ = false;
    bool finished_ = false;
};

/** TraceSink adapter: kernels generate straight to disk through it. */
class GtraceSink final : public TraceSink
{
  public:
    explicit GtraceSink(GtraceWriter &writer) : writer_(&writer) {}

    void push(const AccessRecord &rec) override { writer_->push(rec); }
    using TraceSink::push;
    std::uint64_t size() const override { return writer_->pushed(); }

  private:
    GtraceWriter *writer_;
};

/**
 * mmap-backed gtrace reader. open() validates the framing end to end
 * (magic, version, chunk bounds, trailer totals) and builds a chunk
 * index; readChunk() verifies the chunk checksum and decodes into a
 * caller buffer. Only decoded data is ever materialized, one chunk at
 * a time.
 */
class StreamingTrace
{
  public:
    StreamingTrace() = default;
    ~StreamingTrace();

    StreamingTrace(const StreamingTrace &) = delete;
    StreamingTrace &operator=(const StreamingTrace &) = delete;
    StreamingTrace(StreamingTrace &&other) noexcept;
    StreamingTrace &operator=(StreamingTrace &&other) noexcept;

    /**
     * Map @p path and validate its structure. On failure returns
     * false and (when @p error is non-null) describes what was wrong
     * — bad magic, truncated chunk, trailer mismatch, and so on.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    bool isOpen() const { return base_ != nullptr; }
    const std::string &name() const { return name_; }
    const std::string &path() const { return path_; }

    /** Total records across all chunks (from the verified trailer). */
    std::uint64_t size() const { return total_records_; }
    std::size_t chunkCount() const { return chunks_.size(); }

    /** Largest chunk record count — the decode-buffer capacity. */
    std::uint32_t maxChunkRecords() const { return max_chunk_records_; }

    /** Mapped file size in bytes. */
    std::uint64_t fileBytes() const { return map_bytes_; }

    /**
     * Decode chunk @p idx into @p out (capacity @p cap records).
     * @return the record count. Throws std::runtime_error on a
     * checksum mismatch, malformed payload, or insufficient capacity.
     */
    std::size_t readChunk(std::size_t idx, AccessRecord *out,
                          std::size_t cap) const;

    /**
     * Tell the kernel chunk @p idx's pages will not be re-read soon.
     * Sequential replay calls this on consumed chunks so resident
     * memory stays O(1); dropped pages transparently refault if a
     * rewind revisits them.
     */
    void dropChunkPages(std::size_t idx) const;

  private:
    struct ChunkRef
    {
        std::uint64_t payload_offset = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t checksum = 0;
        std::uint32_t records = 0;
    };

    void close();

    std::string path_;
    std::string name_;
    const std::uint8_t *base_ = nullptr;
    std::uint64_t map_bytes_ = 0;
    std::uint64_t total_records_ = 0;
    std::uint32_t chunk_target_ = 0;
    std::uint32_t max_chunk_records_ = 0;
    std::vector<ChunkRef> chunks_;
};

} // namespace traces
} // namespace glider

#endif // GLIDER_TRACES_GTRACE_HH
