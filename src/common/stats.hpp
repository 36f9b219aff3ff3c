// Streaming statistics.
//
// Used to aggregate per-subtask validation accuracies into the per-epoch
// mean / min / max / stddev series the paper plots (Fig. 4 error bars).
#pragma once

#include <cstddef>
#include <limits>

namespace vcdl {

/// Welford online mean/variance plus min/max. O(1) space.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace vcdl
