#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

#include "tensor/gemm_kernels.hpp"

#ifndef VCDL_PERFBENCH_BUILD_TYPE
#define VCDL_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  s.median = median(samples);
  std::sort(samples.begin(), samples.end());
  // Nearest rank of percentile p is ceil(p·n/100); keep ten samples above it.
  for (int p = 99; p >= 50 && s.n > 10; --p) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(s.n) / 100.0));
    if (rank >= 1 && rank + 10 <= s.n) {
      s.tail_pct = p;
      s.tail = samples[rank - 1];
      break;
    }
  }
  return s;
}

std::string describe(const Summary& summary) {
  std::ostringstream os;
  os << "median of n=" << summary.n;
  if (summary.tail_pct > 0) {
    os << ", p" << summary.tail_pct << "=" << summary.tail;
  } else {
    os << ", no percentile has 10 samples above it";
  }
  return os.str();
}

double ratio(std::uint64_t num, std::uint64_t base) {
  return base == 0 ? 0.0
                   : static_cast<double>(num) / static_cast<double>(base);
}

std::string ratio_note(std::uint64_t num, std::uint64_t base) {
  std::ostringstream os;
  os << "(" << num << " / " << base << ")";
  return os.str();
}

Host host_info(std::size_t worker_threads) {
  Host h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  h.worker_threads = worker_threads;
  h.simd = vcdl::ops::simd_tier_name(vcdl::ops::active_simd_tier());
  h.build_type = VCDL_PERFBENCH_BUILD_TYPE;
  return h;
}

std::string describe(const Host& host) {
  std::ostringstream os;
  os << "nproc=" << host.nproc << " worker_threads=" << host.worker_threads
     << " simd=" << host.simd << " build=" << host.build_type;
  return os.str();
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

void progress(const std::string& workload, const std::string& phase,
              std::size_t run, std::size_t planned, double wall_so_far) {
  char line[256];
  std::snprintf(line, sizeof line,
                "[perfbench] %s %s run %zu/%zu wall %.1fs peak_rss %.1fMiB\n",
                workload.c_str(), phase.c_str(), run, planned, wall_so_far,
                peak_rss_mib());
  std::fputs(line, stderr);
  std::fflush(stderr);
}

std::uint32_t Tracer::id(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  totals_.emplace_back();
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::begin(std::uint32_t name) {
  stack_.push_back({name, Clock::now(), 0.0});
}

void Tracer::end() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double duration = seconds_since(open.start);
  Totals& t = totals_[open.name];
  ++t.count;
  t.total_s += duration;
  t.self_s += duration - open.child_s;
  if (!stack_.empty()) stack_.back().child_s += duration;
}

void Tracer::add(std::uint32_t name, double seconds) {
  Totals& t = totals_[name];
  ++t.count;
  t.total_s += seconds;
  t.self_s += seconds;
  if (!stack_.empty()) stack_.back().child_s += seconds;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return totals_[i];
  }
  return {};
}

namespace {
std::string full_digits(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}
}  // namespace

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-26s %16.6g %-6s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_result_line(const Outcome& outcome) {
  std::ostringstream os;
  os << "{\"correct\": " << (outcome.correct ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    // JSON has no NaN/Inf; a non-finite value is already an error upstream.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    os << (i ? ", " : "") << '"' << m.name << "\": {\"value\": "
       << full_digits(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
