// Shared benchmark plumbing: wall-clock timing summaries, the span tracer
// used by the traced pass, host identity, progress lines and the result line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// A timing reported as its median plus the highest nearest-rank percentile
/// that still has at least ten samples above it (0 when n < 11).
struct Summary {
  double median = 0.0;
  int tail_pct = 0;
  double tail = 0.0;
  std::size_t n = 0;
};
Summary summarize(std::vector<double> samples);
double median(std::vector<double> samples);
/// "median of n=…, p…=…" for the human table.
std::string describe(const Summary& summary);

/// num / base, 0 when the base is 0; ratio_note gives "(num / base)".
double ratio(std::uint64_t num, std::uint64_t base);
std::string ratio_note(std::uint64_t num, std::uint64_t base);

struct Host {
  unsigned nproc = 0;
  std::size_t worker_threads = 0;
  std::string simd;
  std::string build_type;
};
Host host_info(std::size_t worker_threads);
std::string describe(const Host& host);

/// Peak resident set of this process (getrusage ru_maxrss), MiB.
double peak_rss_mib();

/// One unbuffered stderr line per measured run.
void progress(const std::string& workload, const std::string& phase,
              std::size_t run, std::size_t planned, double wall_so_far);

/// Nested wall-clock spans with per-name totals. A disabled tracer records
/// nothing, which is how the same code path is timed with tracing off.
class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // total minus time covered by child spans
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  std::uint32_t id(std::string_view name);
  void begin(std::uint32_t name);
  void end();
  /// A leaf span timed by the caller, for calls whose span name depends on
  /// their outcome.
  void add(std::uint32_t name, double seconds);

  /// Zero totals when the name was never recorded.
  Totals totals(std::string_view name) const;

  class Scope {
   public:
    Scope(Tracer& tracer, std::uint32_t name) : tracer_(tracer) {
      if (tracer_.enabled_) tracer_.begin(name);
    }
    ~Scope() {
      if (tracer_.enabled_) tracer_.end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

 private:
  struct Open {
    std::uint32_t name;
    Clock::time_point start;
    double child_s;
  };

  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Totals> totals_;
  std::vector<Open> stack_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // human table only: base of a ratio, spread, ...
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
};

/// Human-readable metric table (name, value, unit, note) on stdout.
void print_table(const std::string& title, const std::vector<Metric>& metrics);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result_line(const Outcome& outcome);

}  // namespace perfbench
