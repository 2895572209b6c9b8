/**
 * @file
 * Lightweight metrics: Counter, Gauge, Histogram (fixed-bucket with
 * percentiles), and a hierarchical Registry with a schema-versioned
 * JSON export.
 *
 * All metric types are safe for concurrent recording (relaxed
 * atomics), so harness workers can hammer a shared registry. Reads
 * taken while writers are active are approximate snapshots, which is
 * the usual contract for telemetry.
 */

#ifndef GLIDER_OBS_METRICS_HH
#define GLIDER_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.hh"
#include "json.hh"

namespace glider {
namespace obs {

/** Monotonic event counter. */
class Counter
{
  public:
    void
    inc(std::uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    /** Overwrite the count — for snapshot exports and resets only. */
    void
    set(std::uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Point-in-time scalar (occupancy, rate, configuration value). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    void
    add(double delta)
    {
        double cur = value_.load(std::memory_order_relaxed);
        while (!value_.compare_exchange_weak(cur, cur + delta,
                                             std::memory_order_relaxed))
            ;
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Fixed-bucket histogram over [lo, hi): @p buckets equal-width bins
 * plus an overflow bin for samples >= hi (samples below lo clamp into
 * the first bin). Tracks exact count/sum/min/max alongside the bins,
 * so mean and extreme values do not suffer bucket quantization.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void record(double x);

    std::uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    double sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const;
    double min() const; //!< 0 when empty
    double max() const; //!< 0 when empty

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::size_t buckets() const { return nbuckets_; }
    std::uint64_t bucketCount(std::size_t i) const;
    std::uint64_t overflow() const; //!< samples recorded >= hi
    double binLow(std::size_t i) const;

    /**
     * Value below which @p q percent of samples fall, interpolated
     * within the containing bucket. Edge cases: 0 on an empty
     * histogram; a percentile landing in the overflow bucket returns
     * the exact observed max.
     */
    double percentile(double q) const;

    /** Add @p other's samples; shapes must match exactly (throws). */
    void merge(const Histogram &other);

    /** Export as a JSON leaf (count/min/max/mean/p50/p95/p99/bins). */
    json::Value toJson() const;

  private:
    double lo_;
    double hi_;
    double width_; //!< per-bucket width
    std::size_t nbuckets_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_; //!< +overflow
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{std::numeric_limits<double>::infinity()};
    std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/**
 * Hierarchical metric registry. Metric names are dot-separated paths
 * ("llc.hits", "harness.pool.peak_queue_depth"); the JSON export
 * nests on the dots. Registration is mutex-guarded and idempotent
 * (same name + same type returns the existing metric); recording
 * through the returned references is lock-free. Returned references
 * stay valid for the registry's lifetime.
 */
class Registry
{
  public:
    static constexpr int kSchemaVersion = 1;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name, double lo, double hi,
                         std::size_t buckets);
    /** String annotation leaf (policy name, build flavor, ...). */
    void label(const std::string &name, std::string value);

    /** Snapshot helpers for component export paths. */
    void
    setCounter(const std::string &name, std::uint64_t v)
    {
        counter(name).set(v);
    }
    void
    setGauge(const std::string &name, double v)
    {
        gauge(name).set(v);
    }

    bool has(const std::string &name) const;

    /**
     * Schema-versioned export:
     * {"schema": "glider-metrics", "schema_version": 1,
     *  "metrics": {<tree nested on the dotted names>}}.
     * @throws std::runtime_error if one metric's path is a prefix of
     * another's (a leaf cannot also be a subtree).
     */
    json::Value toJson() const;

  private:
    struct Entry
    {
        // Exactly one is set; unique_ptr keeps addresses stable.
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
        std::unique_ptr<std::string> label;
    };

    mutable Mutex mutex_;
    std::map<std::string, Entry> entries_ GLIDER_GUARDED_BY(mutex_);
};

} // namespace obs
} // namespace glider

#endif // GLIDER_OBS_METRICS_HH
