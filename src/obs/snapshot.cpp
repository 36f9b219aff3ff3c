#include "obs/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>

#include "common/blob.hpp"
#include "common/error.hpp"

namespace vcdl::obs {
namespace {

// Shortest round-trip representation: deterministic bytes for identical
// double bits, unlike ostream formatting which is locale/precision dependent.
std::string fmt_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  VCDL_CHECK(res.ec == std::errc{}, "MetricsSnapshot: double format failed");
  return std::string(buf, res.ptr);
}

}  // namespace

PercentileBracket HistogramSnapshot::percentile_bracket(double q) const {
  VCDL_CHECK(q >= 0.0 && q <= 1.0, "percentile: q out of [0, 1]");
  if (count == 0) return {0.0, 0.0};
  const double width =
      (options.hi - options.lo) / static_cast<double>(options.buckets);
  // Nearest-rank: the ceil(q·n)-th smallest sample (1-based), at least 1.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = underflow;
  if (rank <= cum) {
    return {-std::numeric_limits<double>::infinity(), options.lo};
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cum += buckets[i];
    if (rank <= cum) {
      const double lo = options.lo + width * static_cast<double>(i);
      const double hi = i + 1 == buckets.size()
                            ? options.hi
                            : options.lo + width * static_cast<double>(i + 1);
      return {lo, hi};
    }
  }
  return {options.hi, std::numeric_limits<double>::infinity()};
}

double HistogramSnapshot::percentile(double q) const {
  const PercentileBracket b = percentile_bracket(q);
  return std::min(options.hi, std::max(options.lo, b.hi));
}

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": " + fmt_double(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms) {
    out += first ? "\n" : ",\n";
    out += "    \"" + name + "\": {\"lo\": " + fmt_double(h.options.lo) +
           ", \"hi\": " + fmt_double(h.options.hi) +
           ", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + fmt_double(h.sum) +
           ", \"underflow\": " + std::to_string(h.underflow) +
           ", \"overflow\": " + std::to_string(h.overflow) +
           ", \"p50\": " + fmt_double(h.percentile(0.50)) +
           ", \"p95\": " + fmt_double(h.percentile(0.95)) +
           ", \"p99\": " + fmt_double(h.percentile(0.99)) + ", \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "]}";
    first = false;
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

std::uint64_t MetricsSnapshot::fingerprint() const { return fnv1a(to_json()); }

}  // namespace vcdl::obs
