#include "metrics.hh"

#include <stdexcept>

namespace glider {
namespace obs {

namespace {

/** Relaxed atomic min/max via CAS. */
void
atomicMin(std::atomic<double> &slot, double x)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (x < cur
           && !slot.compare_exchange_weak(cur, x,
                                          std::memory_order_relaxed))
        ;
}

void
atomicMax(std::atomic<double> &slot, double x)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (x > cur
           && !slot.compare_exchange_weak(cur, x,
                                          std::memory_order_relaxed))
        ;
}

void
atomicAdd(std::atomic<double> &slot, double x)
{
    double cur = slot.load(std::memory_order_relaxed);
    while (!slot.compare_exchange_weak(cur, cur + x,
                                       std::memory_order_relaxed))
        ;
}

} // namespace

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), nbuckets_(buckets)
{
    if (!(hi > lo) || buckets == 0)
        throw std::invalid_argument(
            "Histogram: need hi > lo and buckets >= 1");
    width_ = (hi_ - lo_) / static_cast<double>(nbuckets_);
    counts_ =
        std::make_unique<std::atomic<std::uint64_t>[]>(nbuckets_ + 1);
    for (std::size_t i = 0; i <= nbuckets_; ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::record(double x)
{
    std::size_t bin;
    if (x >= hi_) {
        bin = nbuckets_; // overflow
    } else if (x < lo_) {
        bin = 0; // clamp below range into the first bucket
    } else {
        bin = static_cast<std::size_t>((x - lo_) / width_);
        if (bin >= nbuckets_)
            bin = nbuckets_ - 1; // floating-point edge at hi
    }
    counts_[bin].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, x);
    atomicMin(min_, x);
    atomicMax(max_, x);
}

double
Histogram::mean() const
{
    std::uint64_t n = count();
    return n ? sum() / static_cast<double>(n) : 0.0;
}

double
Histogram::min() const
{
    return count() ? min_.load(std::memory_order_relaxed) : 0.0;
}

double
Histogram::max() const
{
    return count() ? max_.load(std::memory_order_relaxed) : 0.0;
}

std::uint64_t
Histogram::bucketCount(std::size_t i) const
{
    if (i >= nbuckets_)
        throw std::out_of_range("Histogram::bucketCount");
    return counts_[i].load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::overflow() const
{
    return counts_[nbuckets_].load(std::memory_order_relaxed);
}

double
Histogram::binLow(std::size_t i) const
{
    return lo_ + width_ * static_cast<double>(i);
}

double
Histogram::percentile(double q) const
{
    std::uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 100.0)
        q = 100.0;
    double target = q / 100.0 * static_cast<double>(total);
    double cum = 0.0;
    for (std::size_t b = 0; b < nbuckets_; ++b) {
        auto c = static_cast<double>(
            counts_[b].load(std::memory_order_relaxed));
        if (c > 0.0 && target <= cum + c) {
            double frac = (target - cum) / c;
            double v = binLow(b) + frac * width_;
            // Never report beyond the exactly-tracked extremes.
            double mn = min_.load(std::memory_order_relaxed);
            double mx = max_.load(std::memory_order_relaxed);
            if (v < mn)
                v = mn;
            if (v > mx)
                v = mx;
            return v;
        }
        cum += c;
    }
    // Falls in the overflow bucket: the exact max is the best answer.
    return max_.load(std::memory_order_relaxed);
}

void
Histogram::merge(const Histogram &other)
{
    if (other.lo_ != lo_ || other.hi_ != hi_
        || other.nbuckets_ != nbuckets_)
        throw std::invalid_argument(
            "Histogram::merge: shape mismatch");
    if (other.count() == 0)
        return;
    for (std::size_t i = 0; i <= nbuckets_; ++i)
        counts_[i].fetch_add(
            other.counts_[i].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    atomicAdd(sum_, other.sum());
    atomicMin(min_, other.min_.load(std::memory_order_relaxed));
    atomicMax(max_, other.max_.load(std::memory_order_relaxed));
}

json::Value
Histogram::toJson() const
{
    json::Value out = json::Value::object();
    out["type"] = "histogram";
    out["count"] = count();
    out["min"] = min();
    out["max"] = max();
    out["mean"] = mean();
    out["p50"] = percentile(50.0);
    out["p95"] = percentile(95.0);
    out["p99"] = percentile(99.0);
    out["lo"] = lo_;
    out["hi"] = hi_;
    json::Value bins = json::Value::array();
    for (std::size_t i = 0; i < nbuckets_; ++i)
        bins.push(bucketCount(i));
    out["buckets"] = std::move(bins);
    out["overflow"] = overflow();
    return out;
}

Counter &
Registry::counter(const std::string &name)
{
    LockGuard lock(mutex_);
    Entry &e = entries_[name];
    if (e.gauge || e.histogram || e.label)
        throw std::invalid_argument("Registry: '" + name
                                    + "' already registered with a "
                                      "different type");
    if (!e.counter)
        e.counter = std::make_unique<Counter>();
    return *e.counter;
}

Gauge &
Registry::gauge(const std::string &name)
{
    LockGuard lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.histogram || e.label)
        throw std::invalid_argument("Registry: '" + name
                                    + "' already registered with a "
                                      "different type");
    if (!e.gauge)
        e.gauge = std::make_unique<Gauge>();
    return *e.gauge;
}

Histogram &
Registry::histogram(const std::string &name, double lo, double hi,
                    std::size_t buckets)
{
    LockGuard lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.gauge || e.label)
        throw std::invalid_argument("Registry: '" + name
                                    + "' already registered with a "
                                      "different type");
    if (!e.histogram)
        e.histogram = std::make_unique<Histogram>(lo, hi, buckets);
    else if (e.histogram->lo() != lo || e.histogram->hi() != hi
             || e.histogram->buckets() != buckets)
        throw std::invalid_argument("Registry: histogram '" + name
                                    + "' re-registered with a "
                                      "different shape");
    return *e.histogram;
}

void
Registry::label(const std::string &name, std::string value)
{
    LockGuard lock(mutex_);
    Entry &e = entries_[name];
    if (e.counter || e.gauge || e.histogram)
        throw std::invalid_argument("Registry: '" + name
                                    + "' already registered with a "
                                      "different type");
    e.label = std::make_unique<std::string>(std::move(value));
}

bool
Registry::has(const std::string &name) const
{
    LockGuard lock(mutex_);
    return entries_.count(name) != 0;
}

json::Value
Registry::toJson() const
{
    LockGuard lock(mutex_);
    json::Value metrics = json::Value::object();
    for (const auto &[name, entry] : entries_) {
        // Walk/create the object spine named by the dotted prefix.
        json::Value *node = &metrics;
        std::size_t start = 0;
        for (;;) {
            std::size_t dot = name.find('.', start);
            std::string part = name.substr(
                start, dot == std::string::npos ? std::string::npos
                                                : dot - start);
            json::Value &child = (*node)[part];
            if (dot == std::string::npos) {
                if (!child.isNull())
                    throw std::runtime_error(
                        "Registry::toJson: '" + name
                        + "' conflicts with a nested subtree");
                if (entry.counter)
                    child = json::Value(entry.counter->value());
                else if (entry.gauge)
                    child = json::Value(entry.gauge->value());
                else if (entry.histogram)
                    child = entry.histogram->toJson();
                else
                    child = json::Value(*entry.label);
                break;
            }
            if (child.isNull())
                child = json::Value::object();
            else if (!child.isObject())
                throw std::runtime_error(
                    "Registry::toJson: '" + name
                    + "' nests inside a non-object leaf");
            node = &child;
            start = dot + 1;
        }
    }
    json::Value out = json::Value::object();
    out["schema"] = "glider-metrics";
    out["schema_version"] = kSchemaVersion;
    out["metrics"] = std::move(metrics);
    return out;
}

} // namespace obs
} // namespace glider
