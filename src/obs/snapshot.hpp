// Point-in-time export of a metrics registry (vcdl::obs).
//
// A MetricsSnapshot is a plain value: copyable, comparable, and serializable
// with byte-stable output — map-ordered keys and shortest-round-trip double
// formatting (std::to_chars), so two snapshots with identical metric values
// produce identical JSON bytes. The deterministic-telemetry test suite
// (tests/test_obs.cpp, tests/test_trace_replay.cpp) leans on that: same-seed
// simulation runs must export byte-identical snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vcdl::obs {

/// The bucket edges guaranteed to contain a requested percentile: the exact
/// nearest-rank sample lies in [lo, hi] by construction. Underflow samples
/// yield lo = -infinity; overflow samples yield hi = +infinity.
struct PercentileBracket {
  double lo = 0.0;
  double hi = 0.0;
};

/// Frozen copy of one histogram's state.
struct HistogramSnapshot {
  HistogramOptions options;
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Nearest-rank percentile, q in [0, 1]: the bucket holding the
  /// ceil(q·count)-th smallest sample. Empty histogram: {0, 0}.
  PercentileBracket percentile_bracket(double q) const;
  /// Scalar percentile estimate: the bracket's upper edge, clamped into
  /// [lo, hi] so underflow/overflow never produce infinities (to_json
  /// embeds p50/p95/p99).
  double percentile(double q) const;
  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// The named counter's value, or 0 when it was never registered (a run
  /// that never built the counting component).
  std::uint64_t counter(const std::string& name) const;

  /// Deterministic JSON: sorted keys, shortest-round-trip doubles, embedded
  /// p50/p95/p99 per histogram. Byte-identical for identical values.
  std::string to_json() const;

  /// Order-sensitive FNV-1a over the JSON bytes — the one-word identity the
  /// trace-replay suite folds alongside TraceDigest.
  std::uint64_t fingerprint() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

}  // namespace vcdl::obs
