/**
 * @file
 * Shared plumbing of the repository benchmark: command-line options,
 * clocks, order statistics, the result line, and the in-memory span
 * recorder of traced runs.
 */

#ifndef GLIDER_PERFBENCH_HARNESS_HH
#define GLIDER_PERFBENCH_HARNESS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <ctime>

#include <sys/resource.h>
#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

/** Parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned threads = 2;    //!< simulation threads
    std::string work_dir;    //!< scratch space, removed at exit
    std::string out_dir;     //!< spans and cell fingerprints land here
};

/** Steady-clock nanoseconds; same epoch as serve::TenantServer::nowNs. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) / 1e9;
}

/**
 * A cheap, non-serialising timestamp for timing single calls of a few
 * nanoseconds: the TSC on x86-64, the steady clock elsewhere. Convert
 * with a ns-per-tick ratio measured over the same interval.
 */
inline std::uint64_t
ticks()
{
#if defined(__x86_64__)
    return __rdtsc();
#else
    return nowNs();
#endif
}

/** User + system CPU seconds of the whole process. */
inline double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec)
            + static_cast<double>(tv.tv_usec) / 1e6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

/** CPU seconds of the calling thread. */
inline double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) / 1e9;
}

/** Peak resident set of the process so far, in MiB. */
inline double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/**
 * Percentile @p p (0..100) of @p values by linear interpolation
 * between closest ranks; reorders @p values. 0 when empty.
 */
inline double
percentile(std::vector<double> &values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

inline double
median(std::vector<double> values)
{
    return percentile(values, 50.0);
}

/**
 * The benchmark's verdict: metrics by name with units, plus the
 * attempted/failed tally of checked operations. Printed as the last
 * line of standard output.
 */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics_[name] = {value, unit};
    }

    bool has(const std::string &name) const
    {
        return metrics_.count(name) != 0;
    }

    /** Count @p n checked operations. */
    void attempt(std::uint64_t n = 1) { attempted_ += n; }

    /** Record a failed check; the run exits nonzero. */
    void
    fail(const std::string &what)
    {
        ++failed_;
        if (failures_printed_++ < 20)
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         what.c_str());
    }

    /** Record @p n failed operations at once (e.g. refusals). */
    void
    failMany(std::uint64_t n, const std::string &what)
    {
        if (n == 0)
            return;
        failed_ += n;
        std::fprintf(stderr, "perfbench: %llu failed: %s\n",
                     static_cast<unsigned long long>(n), what.c_str());
    }

    bool correct() const { return failed_ == 0 && attempted_ > 0; }

    /** Human-readable metric table (stdout, before the result line). */
    void
    printTable() const
    {
        for (const auto &[name, v] : metrics_)
            std::printf("  %-44s %14.6g %s\n", name.c_str(), v.first,
                        v.second.c_str());
    }

    /** The single-line JSON result. */
    std::string
    json() const
    {
        std::string out = "{\"correct\": ";
        out += correct() ? "true" : "false";
        out += ", \"attempted\": " + std::to_string(attempted_);
        out += ", \"failed\": " + std::to_string(failed_);
        out += ", \"metrics\": {";
        bool first = true;
        char buf[64];
        for (const auto &[name, v] : metrics_) {
            std::snprintf(buf, sizeof(buf), "%.17g", v.first);
            out += first ? "" : ", ";
            out += "\"" + name + "\": {\"value\": " + buf
                + ", \"unit\": \"" + v.second + "\"}";
            first = false;
        }
        out += "}}";
        return out;
    }

  private:
    std::map<std::string, std::pair<double, std::string>> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    unsigned failures_printed_ = 0;
};

/** One recorded interval of a traced run. */
struct Span
{
    const char *name = ""; //!< layer, e.g. "cachesim.l1"
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int32_t parent = -1; //!< index in the same Tracer, -1 = root
    std::int32_t cell = -1;   //!< simulation cell / serving window id
};

/**
 * Per-thread span buffer. Spans nest strictly (a child ends before
 * its parent), so a span's self time is its duration minus the
 * durations of its direct children.
 */
class Tracer
{
  public:
    std::int32_t
    begin(const char *name, std::int32_t parent, std::int32_t cell)
    {
        spans_.push_back({name, nowNs(), 0, parent, cell});
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    void end(std::int32_t idx) { spans_[idx].end_ns = nowNs(); }

    /** A span measured elsewhere (e.g. a sampled estimate). */
    std::int32_t
    add(const Span &span)
    {
        spans_.push_back(span);
        return static_cast<std::int32_t>(spans_.size() - 1);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self nanoseconds summed per span name. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span &s : spans_) {
            if (s.parent >= 0)
                child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
        }
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out[s.name] +=
                static_cast<double>(s.end_ns - s.start_ns) - child[i];
        }
        return out;
    }

    /** Append every span as one JSON line to @p f. */
    void
    write(std::FILE *f, unsigned thread) const
    {
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "{\"thread\": %u, \"id\": %zu, \"name\": \"%s\", "
                         "\"start_ns\": %llu, \"end_ns\": %llu, "
                         "\"parent\": %d, \"cell\": %d}\n",
                         thread, i, s.name,
                         static_cast<unsigned long long>(s.start_ns),
                         static_cast<unsigned long long>(s.end_ns),
                         s.parent, s.cell);
        }
    }

  private:
    std::vector<Span> spans_;
};

/** RAII span: begins on construction, ends on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const char *name, std::int32_t parent,
               std::int32_t cell)
        : tracer_(tracer), idx_(tracer.begin(name, parent, cell))
    {
    }
    ~ScopedSpan() { tracer_.end(idx_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int32_t id() const { return idx_; }

  private:
    Tracer &tracer_;
    std::int32_t idx_;
};

/** Write every tracer's spans to @p path (JSON lines). */
inline void
writeSpans(const std::string &path, const std::vector<Tracer> &tracers)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    for (std::size_t t = 0; t < tracers.size(); ++t)
        tracers[t].write(f, static_cast<unsigned>(t));
    std::fclose(f);
}

/** Workload entry points; each fills @p report. */
void runSweepPrivate(const Options &opts, Report &report);
void runMix4Streamed(const Options &opts, Report &report);
void runServeOpen(const Options &opts, Report &report);

} // namespace perfbench

#endif // GLIDER_PERFBENCH_HARNESS_HH
