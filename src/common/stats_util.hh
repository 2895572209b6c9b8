/**
 * @file
 * Summary-statistics helpers used by experiment harnesses: running
 * mean/min/max accumulators, histograms, CDF extraction, and the
 * geometric mean used for speedup aggregation.
 */

#ifndef GLIDER_COMMON_STATS_UTIL_HH
#define GLIDER_COMMON_STATS_UTIL_HH

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace glider {

/** Incremental accumulator for count / mean / min / max / variance. */
class Summary
{
  public:
    /** Add one observation. */
    void
    add(double x)
    {
        ++n_;
        double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        m2_ += delta * (x - mean_);
        if (x < min_ || n_ == 1)
            min_ = x;
        if (x > max_ || n_ == 1)
            max_ = x;
    }

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    /** Sample variance (n-1 denominator); 0 when fewer than 2 points. */
    double
    variance() const
    {
        return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
    }

  private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-bin histogram over [lo, hi); out-of-range values clamp. */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t bins)
        : lo_(lo), hi_(hi), counts_(bins, 0)
    {
    }

    /** Record one sample. */
    void
    add(double x)
    {
        double t = (x - lo_) / (hi_ - lo_);
        auto bin = static_cast<std::int64_t>(
            t * static_cast<double>(counts_.size()));
        if (bin < 0)
            bin = 0;
        if (bin >= static_cast<std::int64_t>(counts_.size()))
            bin = static_cast<std::int64_t>(counts_.size()) - 1;
        ++counts_[static_cast<std::size_t>(bin)];
        ++total_;
    }

    const std::vector<std::uint64_t> &counts() const { return counts_; }
    std::uint64_t total() const { return total_; }

    /** Cumulative distribution: cdf()[i] = P(sample in bins 0..i). */
    std::vector<double>
    cdf() const
    {
        std::vector<double> out(counts_.size(), 0.0);
        double acc = 0.0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            acc += static_cast<double>(counts_[i]);
            out[i] = total_ ? acc / static_cast<double>(total_) : 0.0;
        }
        return out;
    }

    /** Lower edge of bin @p i. */
    double
    binLow(std::size_t i) const
    {
        return lo_ + (hi_ - lo_) * static_cast<double>(i)
            / static_cast<double>(counts_.size());
    }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/** Geometric mean of strictly positive values; 0 on empty input. */
inline double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Arithmetic mean; 0 on empty input. */
inline double
amean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : xs)
        acc += x;
    return acc / static_cast<double>(xs.size());
}

} // namespace glider

#endif // GLIDER_COMMON_STATS_UTIL_HH
