/**
 * @file
 * Streaming-trace tests: the gtrace v1 codec (round-trip property
 * fuzz, chunk slicing, corruption rejection), the StreamingSource /
 * AccessSource plumbing, generate-once/stream-many spill semantics,
 * and the load-bearing guarantee of the billion-access path — that a
 * streamed simulation is bit-identical to the in-memory one.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cachesim/access_source.hh"
#include "cachesim/basic_lru.hh"
#include "cachesim/simulator.hh"
#include "common/rng.hh"
#include "traces/gtrace.hh"
#include "traces/trace.hh"
#include "workloads/registry.hh"

namespace glider {
namespace traces {
namespace {

std::string
tmpPath(const char *tag)
{
    return std::string("/tmp/glider_gtrace_") + tag + "."
        + std::to_string(::getpid()) + ".gtrace";
}

/** Write @p t as a gtrace at @p path with the given chunk size. */
void
writeGtrace(const Trace &t, const std::string &path,
            std::uint32_t chunk_target)
{
    GtraceWriter w;
    ASSERT_TRUE(w.open(path, t.name(), chunk_target));
    for (const auto &rec : t)
        w.push(rec);
    ASSERT_TRUE(w.finish());
}

/** Decode every chunk of @p st, in order, into one vector. */
std::vector<AccessRecord>
readAll(const StreamingTrace &st)
{
    std::vector<AccessRecord> out;
    std::vector<AccessRecord> buf(st.maxChunkRecords());
    for (std::size_t c = 0; c < st.chunkCount(); ++c) {
        std::size_t n = st.readChunk(c, buf.data(), buf.size());
        out.insert(out.end(), buf.begin(), buf.begin() + n);
    }
    return out;
}

void
expectSameRecords(const Trace &want, const std::vector<AccessRecord> &got)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i], want[i]) << "record " << i;
}

TEST(Gtrace, RoundTripsTypicalTrace)
{
    Trace t("typical");
    for (int i = 0; i < 5000; ++i)
        t.push(0x400000 + (i % 37) * 4, 0x10000 + i * 64, i % 5 == 0,
               static_cast<std::uint8_t>(i % 4));
    std::string path = tmpPath("typical");
    writeGtrace(t, path, 512);
    StreamingTrace st;
    std::string error;
    ASSERT_TRUE(st.open(path, &error)) << error;
    EXPECT_EQ(st.name(), "typical");
    EXPECT_EQ(st.size(), t.size());
    EXPECT_EQ(st.chunkCount(), (5000u + 511) / 512);
    expectSameRecords(t, readAll(st));
    std::remove(path.c_str());
}

TEST(Gtrace, RoundTripPropertyFuzz)
{
    // Random traces x random chunk sizes, with adversarial address
    // behaviour: huge forward/backward jumps (far beyond 4 GiB),
    // sequential runs, repeated records, random cores and writes.
    Rng rng(0xF00D);
    for (int round = 0; round < 25; ++round) {
        Trace t("fuzz");
        auto len = static_cast<int>(rng.below(3000));
        std::uint64_t pc = rng.next();
        std::uint64_t addr = rng.next();
        for (int i = 0; i < len; ++i) {
            switch (rng.below(4)) {
              case 0: // full-range teleport (delta may exceed 2^63)
                pc = rng.next();
                addr = rng.next();
                break;
              case 1: // > 4 GiB jump backwards
                addr -= (5ull << 30) + rng.below(1u << 20);
                break;
              case 2: // small forward stride
                pc += 4;
                addr += 64;
                break;
              default: // repeat the previous record
                break;
            }
            t.push(pc, addr, rng.chance(0.3),
                   static_cast<std::uint8_t>(rng.below(4)));
        }
        auto chunk =
            static_cast<std::uint32_t>(1 + rng.below(300));
        std::string path = tmpPath("fuzz");
        writeGtrace(t, path, chunk);
        StreamingTrace st;
        std::string error;
        ASSERT_TRUE(st.open(path, &error))
            << error << " (round " << round << ")";
        ASSERT_EQ(st.size(), t.size()) << "round " << round;
        expectSameRecords(t, readAll(st));
        std::remove(path.c_str());
    }
}

TEST(Gtrace, RoundTripsEmptyTrace)
{
    std::string path = tmpPath("empty");
    writeGtrace(Trace("nothing"), path, 64);
    StreamingTrace st;
    std::string error;
    ASSERT_TRUE(st.open(path, &error)) << error;
    EXPECT_EQ(st.size(), 0u);
    EXPECT_EQ(st.chunkCount(), 0u);
    std::remove(path.c_str());
}

TEST(Gtrace, RoundTripsSingleRecord)
{
    Trace t("one");
    t.push(UINT64_MAX, UINT64_MAX, true, 3);
    std::string path = tmpPath("one");
    writeGtrace(t, path, 1);
    StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    EXPECT_EQ(st.size(), 1u);
    expectSameRecords(t, readAll(st));
    std::remove(path.c_str());
}

TEST(Gtrace, ChunkSlicingMatchesTraceSlices)
{
    // Each chunk decodes independently (deltas reset per chunk), so
    // chunk c must equal the trace slice [c*K, (c+1)*K) — including
    // when read in arbitrary order.
    Trace t("sliced");
    Rng rng(42);
    for (int i = 0; i < 1000; ++i)
        t.push(rng.next(), rng.next(), rng.chance(0.5));
    constexpr std::uint32_t kChunk = 96;
    std::string path = tmpPath("sliced");
    writeGtrace(t, path, kChunk);
    StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    std::vector<AccessRecord> buf(st.maxChunkRecords());
    // Deliberately scrambled read order.
    std::vector<std::size_t> order;
    for (std::size_t c = 0; c < st.chunkCount(); ++c)
        order.push_back((c * 7 + 3) % st.chunkCount());
    for (std::size_t c : order) {
        std::size_t n = st.readChunk(c, buf.data(), buf.size());
        Trace want = t.slice(c * kChunk, kChunk);
        ASSERT_EQ(n, want.size()) << "chunk " << c;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(buf[i], want[i]) << "chunk " << c << " rec " << i;
    }
    std::remove(path.c_str());
}

TEST(Gtrace, OpenRejectsBadMagic)
{
    // Files that are not gtrace at all: another format's header, a
    // 0-byte file, and a path that does not exist.
    std::string path = tmpPath("badmagic");
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("GLDRTRC1 this is some other format entirely", f);
    std::fclose(f);
    StreamingTrace st;
    std::string error;
    EXPECT_FALSE(st.open(path, &error));
    EXPECT_NE(error.find("magic"), std::string::npos) << error;

    std::fclose(std::fopen(path.c_str(), "wb"));
    EXPECT_FALSE(st.open(path, &error));
    EXPECT_NE(error.find("empty file"), std::string::npos) << error;

    std::remove(path.c_str());
    EXPECT_FALSE(st.open(path, &error));
    EXPECT_NE(error.find("cannot open"), std::string::npos) << error;
}

TEST(Gtrace, OpenRejectsTruncation)
{
    // Every proper prefix of a valid file must be rejected: the chunk
    // walk or the trailer check catches the cut wherever it lands.
    // So must the whole file with stale bytes past its trailer.
    Trace t("trunc");
    for (int i = 0; i < 300; ++i)
        t.push(0x400000 + i, 0x10000 + i * 64);
    std::string path = tmpPath("trunc");
    writeGtrace(t, path, 64);
    std::vector<char> bytes;
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            bytes.insert(bytes.end(), buf, buf + n);
        std::fclose(f);
    }
    for (std::size_t cut : {std::size_t{4}, std::size_t{20},
                            bytes.size() / 2, bytes.size() - 1}) {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, cut, f), cut);
        std::fclose(f);
        StreamingTrace st;
        std::string error;
        EXPECT_FALSE(st.open(path, &error)) << "cut at " << cut;
    }
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
        std::fputs("stale bytes from a previous longer trace", f);
        std::fclose(f);
        StreamingTrace st;
        std::string error;
        EXPECT_FALSE(st.open(path, &error));
        EXPECT_NE(error.find("trailing bytes after the trailer"),
                  std::string::npos)
            << error;
    }
    std::remove(path.c_str());
}

TEST(Gtrace, ReadChunkThrowsOnFlippedPayloadByte)
{
    Trace t("corrupt");
    for (int i = 0; i < 200; ++i)
        t.push(0x400000 + i, 0x10000 + i * 64);
    std::string path = tmpPath("corrupt");
    writeGtrace(t, path, 64);
    // Flip one byte deep inside the file (within some chunk payload).
    {
        std::FILE *f = std::fopen(path.c_str(), "rb+");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, 120, SEEK_SET), 0);
        int c = std::fgetc(f);
        ASSERT_NE(c, EOF);
        ASSERT_EQ(std::fseek(f, 120, SEEK_SET), 0);
        std::fputc(c ^ 0xFF, f);
        std::fclose(f);
    }
    StreamingTrace st;
    std::string error;
    // Framing fields are length/offset driven, so a payload flip still
    // opens — the per-chunk checksum is what catches it on read.
    ASSERT_TRUE(st.open(path, &error)) << error;
    std::vector<AccessRecord> buf(st.maxChunkRecords());
    EXPECT_THROW(
        {
            for (std::size_t c = 0; c < st.chunkCount(); ++c)
                st.readChunk(c, buf.data(), buf.size());
        },
        std::runtime_error);
    std::remove(path.c_str());
}

TEST(Gtrace, ReadChunkThrowsOnSmallBuffer)
{
    Trace t("smallbuf");
    for (int i = 0; i < 64; ++i)
        t.push(1, i * 64);
    std::string path = tmpPath("smallbuf");
    writeGtrace(t, path, 64);
    StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    std::vector<AccessRecord> buf(8);
    EXPECT_THROW(st.readChunk(0, buf.data(), buf.size()),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(GtraceSink, KernelStreamsIdenticallyToTrace)
{
    // The same kernel through a Trace and through a GtraceSink must
    // produce identical record streams — generate-once/stream-many
    // depends on the sink abstraction not perturbing generation.
    Trace in_memory;
    workloads::makeWorkload("mcf", 20'000)->run(in_memory);

    std::string path = tmpPath("sink");
    GtraceWriter w;
    ASSERT_TRUE(w.open(path, "mcf", 1024));
    GtraceSink sink(w);
    workloads::makeWorkload("mcf", 20'000)->run(sink);
    ASSERT_TRUE(w.finish());

    StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    expectSameRecords(in_memory, readAll(st));
    std::remove(path.c_str());
}

} // namespace
} // namespace traces

namespace sim {
namespace {

traces::Trace
simTrace(std::uint64_t accesses)
{
    traces::Trace t;
    workloads::makeWorkload("omnetpp", accesses)->run(t);
    t.setName("omnetpp");
    return t;
}

TEST(StreamingSource, DeliversAndRewinds)
{
    traces::Trace t = simTrace(10'000);
    std::string path = "/tmp/glider_src_test.gtrace";
    {
        traces::GtraceWriter w;
        ASSERT_TRUE(w.open(path, t.name(), 777));
        for (const auto &rec : t)
            w.push(rec);
        ASSERT_TRUE(w.finish());
    }
    traces::StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    StreamingSource src(std::move(st));
    EXPECT_EQ(src.name(), "omnetpp");
    EXPECT_EQ(src.size(), t.size());
    for (int pass = 0; pass < 2; ++pass) {
        std::uint64_t i = 0;
        for (auto chunk = src.nextChunk(); !chunk.empty();
             chunk = src.nextChunk()) {
            for (const auto &rec : chunk)
                ASSERT_EQ(rec, t[i++]) << "pass " << pass;
        }
        EXPECT_EQ(i, t.size()) << "pass " << pass;
        EXPECT_TRUE(src.nextChunk().empty()); // stays exhausted
        src.rewind();
    }
    std::remove(path.c_str());
}

TEST(StreamingSource, SingleCoreRunIsBitIdenticalToInMemory)
{
    traces::Trace t = simTrace(30'000);
    std::string path = "/tmp/glider_src_single.gtrace";
    {
        traces::GtraceWriter w;
        ASSERT_TRUE(w.open(path, t.name(), 1000));
        for (const auto &rec : t)
            w.push(rec);
        ASSERT_TRUE(w.finish());
    }
    SimOptions opts;
    auto mem = runSingleCore(t, std::make_unique<BasicLruPolicy>(),
                             opts);
    traces::StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    StreamingSource src(std::move(st));
    auto streamed = runSingleCore(src,
                                  std::make_unique<BasicLruPolicy>(),
                                  opts);
    EXPECT_EQ(streamed.workload, mem.workload);
    EXPECT_EQ(streamed.llc.accesses, mem.llc.accesses);
    EXPECT_EQ(streamed.llc.hits, mem.llc.hits);
    EXPECT_EQ(streamed.llc.misses, mem.llc.misses);
    EXPECT_EQ(streamed.llc.evictions, mem.llc.evictions);
    EXPECT_EQ(streamed.llc.bypasses, mem.llc.bypasses);
    EXPECT_EQ(streamed.instructions, mem.instructions);
    EXPECT_EQ(streamed.cycles, mem.cycles);
    EXPECT_EQ(streamed.ipc, mem.ipc);
    EXPECT_EQ(streamed.accesses_simulated, mem.accesses_simulated);
    std::remove(path.c_str());
}

TEST(StreamingSource, MultiCoreRunIsBitIdenticalToInMemory)
{
    // The multi-core driver wraps streams (rewind at exhaustion), so
    // this also pins the wrap-around semantics against the in-memory
    // modulo-cursor behaviour.
    traces::Trace a = simTrace(8'000);
    traces::Trace b;
    workloads::makeWorkload("mcf", 8'000)->run(b);
    b.setName("mcf");
    std::string pa = "/tmp/glider_src_mc_a.gtrace";
    std::string pb = "/tmp/glider_src_mc_b.gtrace";
    const std::vector<std::pair<const traces::Trace *, std::string>>
        to_write{{&a, pa}, {&b, pb}};
    for (const auto &[t, p] : to_write) {
        traces::GtraceWriter w;
        ASSERT_TRUE(w.open(p, t->name(), 640));
        for (const auto &rec : *t)
            w.push(rec);
        ASSERT_TRUE(w.finish());
    }
    SimOptions opts;
    auto mem = runMultiCore({&a, &b},
                            std::make_unique<BasicLruPolicy>(), 12'000,
                            opts);

    traces::StreamingTrace sa, sb;
    ASSERT_TRUE(sa.open(pa));
    ASSERT_TRUE(sb.open(pb));
    StreamingSource srca(std::move(sa)), srcb(std::move(sb));
    std::vector<AccessSource *> sources{&srca, &srcb};
    auto streamed = runMultiCore(sources,
                                 std::make_unique<BasicLruPolicy>(),
                                 12'000, opts);
    EXPECT_EQ(streamed.workloads, mem.workloads);
    EXPECT_EQ(streamed.llc.accesses, mem.llc.accesses);
    EXPECT_EQ(streamed.llc.hits, mem.llc.hits);
    EXPECT_EQ(streamed.llc.misses, mem.llc.misses);
    EXPECT_EQ(streamed.llc.evictions, mem.llc.evictions);
    ASSERT_EQ(streamed.ipc_shared.size(), mem.ipc_shared.size());
    for (std::size_t c = 0; c < mem.ipc_shared.size(); ++c)
        EXPECT_EQ(streamed.ipc_shared[c], mem.ipc_shared[c]);
    std::remove(pa.c_str());
    std::remove(pb.c_str());
}

} // namespace
} // namespace sim

namespace workloads {
namespace {

/** RAII env var override. */
class EnvGuard
{
  public:
    EnvGuard(const char *name, const std::string &value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old)
            old_ = old;
        ::setenv(name, value.c_str(), 1);
    }
    ~EnvGuard()
    {
        if (old_.has_value())
            ::setenv(name_, old_->c_str(), 1);
        else
            ::unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> old_;
};

TEST(TraceSpill, FingerprintSeparatesNameAndLength)
{
    EXPECT_NE(traceFingerprint("mcf", 1000),
              traceFingerprint("lbm", 1000));
    EXPECT_NE(traceFingerprint("mcf", 1000),
              traceFingerprint("mcf", 2000));
    EXPECT_EQ(traceFingerprint("mcf", 1000),
              traceFingerprint("mcf", 1000));
}

TEST(TraceSpill, EnsureGeneratesOnceAndReuses)
{
    std::string dir = "/tmp/glider_spill_test."
        + std::to_string(::getpid());
    EnvGuard env("GLIDER_TRACE_DIR", dir);

    std::string path = ensureSpilledTrace("sphinx3", 5'000);
    ASSERT_TRUE(std::filesystem::exists(path));
    auto first_write = std::filesystem::last_write_time(path);

    // Second call must reuse the existing file, not regenerate.
    EXPECT_EQ(ensureSpilledTrace("sphinx3", 5'000), path);
    EXPECT_EQ(std::filesystem::last_write_time(path), first_write);

    // The spilled stream replays exactly what the kernel emits.
    traces::Trace want;
    makeWorkload("sphinx3", 5'000)->run(want);
    traces::StreamingTrace st;
    ASSERT_TRUE(st.open(path));
    EXPECT_EQ(st.name(), "sphinx3");
    ASSERT_EQ(st.size(), want.size());
    std::vector<traces::AccessRecord> buf(st.maxChunkRecords());
    std::uint64_t i = 0;
    for (std::size_t c = 0; c < st.chunkCount(); ++c) {
        std::size_t n = st.readChunk(c, buf.data(), buf.size());
        for (std::size_t k = 0; k < n; ++k)
            ASSERT_EQ(buf[k], want[i++]);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceSpill, DistinctLengthsGetDistinctFiles)
{
    std::string dir = "/tmp/glider_spill_len."
        + std::to_string(::getpid());
    EnvGuard env("GLIDER_TRACE_DIR", dir);
    std::string a = ensureSpilledTrace("tc", 2'000);
    std::string b = ensureSpilledTrace("tc", 4'000);
    EXPECT_NE(a, b);
    EXPECT_TRUE(std::filesystem::exists(a));
    EXPECT_TRUE(std::filesystem::exists(b));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace workloads
} // namespace glider
