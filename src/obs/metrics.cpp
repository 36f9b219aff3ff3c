#include "obs/metrics.hpp"

#include <chrono>
#include <cmath>

#include "common/error.hpp"
#include "obs/snapshot.hpp"

namespace vcdl::obs {
namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.front() == '.' || name.back() == '.') return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      width_((options.hi - options.lo) / static_cast<double>(options.buckets)),
      buckets_(options.buckets) {
  VCDL_CHECK(options_.buckets >= 1, "Histogram: need at least one bucket");
  VCDL_CHECK(options_.hi > options_.lo, "Histogram: hi must exceed lo");
  VCDL_CHECK(std::isfinite(options_.lo) && std::isfinite(options_.hi),
             "Histogram: bounds must be finite");
}

void Histogram::observe(double x) {
  if (x < options_.lo) {
    underflow_.fetch_add(1, std::memory_order_relaxed);
  } else if (x >= options_.hi) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    auto i = static_cast<std::size_t>((x - options_.lo) / width_);
    // Float rounding at the upper edge can land exactly on buckets.
    if (i >= buckets_.size()) i = buckets_.size() - 1;
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
  }
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

double WallTimeSource::now() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

FunctionTimeSource::FunctionTimeSource(std::function<double()> fn)
    : fn_(std::move(fn)) {
  VCDL_CHECK(fn_ != nullptr, "FunctionTimeSource: null clock");
}

Registry::Registry() : time_(&wall_) {}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    VCDL_CHECK(valid_metric_name(name),
               "obs: invalid metric name '" + name + "'");
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    VCDL_CHECK(valid_metric_name(name),
               "obs: invalid metric name '" + name + "'");
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(const std::string& name,
                               HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    VCDL_CHECK(valid_metric_name(name),
               "obs: invalid metric name '" + name + "'");
    it = histograms_.emplace(name, std::make_unique<Histogram>(options)).first;
  } else {
    VCDL_CHECK(it->second->options() == options,
               "obs: histogram '" + name +
                   "' re-registered with different bucket options");
  }
  return *it->second;
}

const TimeSource* Registry::set_time_source(const TimeSource* source) {
  return time_.exchange(source != nullptr ? source : &wall_,
                        std::memory_order_acq_rel);
}

MetricsSnapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.options = h->options();
    hs.buckets.reserve(h->options().buckets);
    for (std::size_t i = 0; i < h->options().buckets; ++i) {
      hs.buckets.push_back(h->bucket(i));
    }
    hs.underflow = h->underflow();
    hs.overflow = h->overflow();
    hs.count = h->count();
    hs.sum = h->sum();
    snap.histograms.emplace(name, std::move(hs));
  }
  return snap;
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace vcdl::obs
