// Streaming statistics and small-sample summaries.
//
// Used to aggregate per-subtask validation accuracies into the per-epoch
// mean / min / max / stddev series the paper plots (Fig. 4 error bars), and
// to summarize latency samples in the store benchmarks.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace vcdl {

/// Welford online mean/variance plus min/max. O(1) space.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Quantile of a sample (linear interpolation); q in [0, 1]. Copies + sorts.
double quantile(std::vector<double> samples, double q);

/// Fixed-range linear histogram for latency distributions.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t count(std::size_t bucket) const { return counts_[bucket]; }
  std::size_t total() const { return total_; }
  std::size_t underflow() const { return underflow_; }
  std::size_t overflow() const { return overflow_; }
  double bucket_lo(std::size_t bucket) const;
  double bucket_hi(std::size_t bucket) const;

 private:
  double lo_, hi_, width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0, underflow_ = 0, overflow_ = 0;
};

}  // namespace vcdl
