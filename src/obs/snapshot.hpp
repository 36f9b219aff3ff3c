// Point-in-time export of a metrics registry (vcdl::obs).
//
// A MetricsSnapshot is a plain value: copyable, comparable, and serializable
// with byte-stable output — map-ordered keys and shortest-round-trip double
// formatting (std::to_chars), so two snapshots with identical metric values
// produce identical JSON/CSV bytes. The deterministic-telemetry test suite
// (tests/test_obs.cpp, tests/test_trace_replay.cpp) leans on that: same-seed
// simulation runs must export byte-identical snapshots.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace vcdl::obs {

/// Frozen copy of one histogram's state.
struct HistogramSnapshot {
  HistogramOptions options;
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;
  double sum = 0.0;

  /// Same nearest-rank semantics as Histogram::percentile_bracket.
  PercentileBracket percentile_bracket(double q) const;
  /// Upper bracket edge clamped into [lo, hi] (see Histogram::percentile).
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
  /// Deterministic CSV: "type,name,field,value" rows, one scalar per row;
  /// histograms export count/sum/underflow/overflow/p50/p95/p99.
  std::string to_csv() const;

  /// Interval view `this − earlier`: counters and histogram bucket counts
  /// subtract (this must be the later snapshot of the same registry);
  /// gauges keep this snapshot's value (a gauge is a level, not a flow).
  /// Histogram sums subtract as doubles — exact for integral-valued sums,
  /// last-ulp approximate otherwise.
  MetricsSnapshot diff(const MetricsSnapshot& earlier) const;

  /// Order-sensitive FNV-1a over the JSON bytes — the one-word identity the
  /// trace-replay suite folds alongside TraceDigest.
  std::uint64_t fingerprint() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

}  // namespace vcdl::obs
