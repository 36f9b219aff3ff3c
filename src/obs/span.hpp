// RAII span timers over a registry's time source (vcdl::obs).
//
// A SpanTimer reads Registry::now() at construction and records the elapsed
// time into a duration histogram at destruction. Nothing under src/ times a
// span: a run's own registry reads no clock (obs/metrics.hpp). perfbench/
// times its probes with it.
//
// Usage — cache the histogram handle once, time each call:
//
//   obs::Histogram& h = reg.histogram("probe.call_s", {0.0, 0.05, 50});
//   obs::SpanTimer span(h, reg);
#pragma once

#include "obs/metrics.hpp"

namespace vcdl::obs {

class SpanTimer {
 public:
  explicit SpanTimer(Histogram& sink, Registry& reg = registry())
      : sink_(sink), registry_(reg), start_(reg.now()) {}
  ~SpanTimer() { sink_.observe(registry_.now() - start_); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Seconds elapsed so far (same clock the destructor records with).
  double elapsed() const { return registry_.now() - start_; }

 private:
  Histogram& sink_;
  Registry& registry_;
  double start_;
};

}  // namespace vcdl::obs
