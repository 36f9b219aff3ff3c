// Observability layer: lock-cheap metrics registry (vcdl::obs).
//
// The paper's experiments are all statements about where time and cost go —
// transfer vs. compute, staleness vs. accuracy, preemption delay vs. price —
// and BOINC ships server-side telemetry as a first-class subsystem. This
// registry is VCDL's equivalent: named monotonic counters, gauges, and
// fixed-bucket histograms, and a snapshot of them that exports to JSON
// (obs/snapshot.hpp). There are two kinds of registry:
//
//   * A run's registry. VcTrainer::run() builds one per run and passes it to
//     every component it constructs; each component resolves its handles
//     from it once, in its constructor. It holds counters, gauges and
//     histograms observed with explicit virtual-time values, reads no
//     clock, and its snapshot is TrainResult::metrics: a pure function of
//     the run's seed (tests byte-compare snapshot JSON across same-seed
//     runs), whatever else runs in the process.
//   * The process registry, registry(). Nothing under src/ records there;
//     it is what perfbench/ installs a clock on. It never enters a
//     TrainResult.
//
// Design constraints:
//
//   1. *Lock-cheap on the hot path.* Metric handles are stable references;
//      all mutation is relaxed atomics (counters, gauge stores, histogram
//      bucket increments). The registry mutex guards only name registration
//      and snapshotting — never per-sample updates. Metrics are never
//      deregistered, so handles stay valid for the registry's lifetime.
//   2. *Thread-safe.* A registry may be touched from several threads at
//      once, and runs on other threads own registries of their own;
//      ci/sanitize.sh runs tests/test_obs.cpp under TSan.
//
// Naming convention (docs/OBSERVABILITY.md): "<component>.<metric>[_unit]",
// lowercase, [a-z0-9._] only — enforced at registration.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vcdl::obs {

struct MetricsSnapshot;

/// Monotonic counter. inc() is a relaxed atomic add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins double gauge.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-range linear bucketing: `buckets` equal-width bins over [lo, hi),
/// plus underflow (< lo) and overflow (>= hi) bins so no sample is dropped.
struct HistogramOptions {
  double lo = 0.0;
  double hi = 1.0;
  std::size_t buckets = 32;

  friend bool operator==(const HistogramOptions&,
                         const HistogramOptions&) = default;
};

/// Fixed-bucket histogram. observe() is two relaxed atomic increments plus a
/// CAS sum update — no locks. Percentiles are read from its snapshot
/// (HistogramSnapshot, obs/snapshot.hpp).
class Histogram {
 public:
  explicit Histogram(HistogramOptions options);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x);

  const HistogramOptions& options() const { return options_; }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t underflow() const {
    return underflow_.load(std::memory_order_relaxed);
  }
  std::uint64_t overflow() const {
    return overflow_.load(std::memory_order_relaxed);
  }

 private:
  HistogramOptions options_;
  double width_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> underflow_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Pluggable clock. now() is in seconds; only differences are meaningful.
class TimeSource {
 public:
  virtual ~TimeSource() = default;
  virtual double now() const = 0;
};

/// Default: the monotonic wall clock (std::chrono::steady_clock).
class WallTimeSource final : public TimeSource {
 public:
  double now() const override;
};

/// Adapts any callable — typically a SimEngine's virtual clock:
/// FunctionTimeSource sim([&engine] { return engine.now(); });
class FunctionTimeSource final : public TimeSource {
 public:
  explicit FunctionTimeSource(std::function<double()> fn);
  double now() const override { return fn_(); }

 private:
  std::function<double()> fn_;
};

/// Metric registry: name → stable handle. Registration and snapshotting
/// take a mutex; handle operations never do. Metrics are never deleted, so
/// cached references (the idiom instrumentation sites use) stay valid for
/// the registry's lifetime.
class Registry {
 public:
  Registry();

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the named metric, registering it on first use. Histogram
  /// options must match the registration exactly on every later call —
  /// a mismatch means two sites collided on one name.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, HistogramOptions options = {});

  /// Current time from the installed source (wall clock by default).
  double now() const {
    return time_.load(std::memory_order_acquire)->now();
  }
  /// Installs `source` (nullptr restores the wall clock) and returns the
  /// previous source. Prefer ScopedTimeSource.
  const TimeSource* set_time_source(const TimeSource* source);

  /// Consistent point-in-time copy of every metric.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  WallTimeSource wall_;
  std::atomic<const TimeSource*> time_;
};

/// The process registry. Nothing under src/ records here: run components
/// count into the registry their constructor is given.
Registry& registry();

/// RAII guard installing a time source on a registry for a scope; restores
/// the previous source on destruction.
class ScopedTimeSource {
 public:
  ScopedTimeSource(Registry& registry, const TimeSource& source)
      : registry_(registry), prev_(registry.set_time_source(&source)) {}
  ~ScopedTimeSource() { registry_.set_time_source(prev_); }

  ScopedTimeSource(const ScopedTimeSource&) = delete;
  ScopedTimeSource& operator=(const ScopedTimeSource&) = delete;

 private:
  Registry& registry_;
  const TimeSource* prev_;
};

}  // namespace vcdl::obs
