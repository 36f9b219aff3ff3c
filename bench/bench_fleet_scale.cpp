// Fleet-scale event throughput — events/sec and peak RSS vs client count.
//
// Drives the DES engine + scheduler directly (no NN training) through a
// join/leave churn scenario: N clients poll for work, execute or silently
// drop their assignments, and whole cohorts leave and rejoin in bursts — the
// leave path cancels every pending client event, which is exactly the
// schedule/cancel churn that used to pile stale entries into the event heap,
// while dropped assignments ride to the deadline sweep that used to walk the
// whole in-flight table. With the indexed scheduler and the compacting engine
// both paths are O(log n), so events/sec should stay near-flat as the fleet
// grows 10x; before the fix a 100k fleet was quadratic and effectively hung.
//
// Default sweep: clients ∈ {1000, 10000, 100000}, each over the same virtual
// horizon with workunits scaled 2x clients. Writes BENCH_fleet.json
// (consumed by the README bench table).
//
// Overrides: horizon=600 poll=30 deadline=120 sweep=15 churn=60 seed=7
//            clients=1000,10000,100000 units_per_client=2 reps=3
//            out=BENCH_fleet.json
//
// Each row is the best of repeated identical runs: same seed → bit-identical
// event sequence, so the runs differ only in wall time and min-wall is the
// least-noise estimate. Rows repeat until at least `reps` runs AND
// `min_measure` seconds of cumulative measured wall (capped at 25 runs), so
// a 10k-client row that finishes in 70 ms gets a dozen samples — on a busy
// shared core one preempted run would otherwise swamp the events/sec ratio.
//
// smoke=1 shrinks the sweep to {500, 5000} over a short horizon and exits
// nonzero when events/sec degrades superlinearly (>3x drop for 10x clients —
// loose enough for sanitizer builds, far below the old quadratic cliff). Runs
// as a tier-1 ctest (ci/sanitize.sh) so a complexity regression fails CI.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "grid/scheduler.hpp"
#include "sim/engine.hpp"

namespace {

using namespace vcdl;

/// Process peak RSS in MiB (VmHWM; monotone over the process lifetime, so
/// run the sweep smallest-fleet-first and read each row's value as "peak so
/// far" — the last row is the 100k figure the acceptance criterion wants).
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream iss(line.substr(6));
      double kb = 0.0;
      iss >> kb;
      return kb / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // linux: kB
}

struct FleetParams {
  std::size_t clients = 0;
  std::size_t units = 0;
  SimTime horizon_s = 600.0;
  SimTime poll_s = 30.0;
  SimTime deadline_s = 120.0;
  SimTime sweep_s = 15.0;
  SimTime churn_s = 60.0;
  std::uint64_t seed = 7;
};

struct FleetResult {
  std::size_t clients = 0;
  std::size_t units = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t engine_compactions = 0;
  std::size_t final_heap = 0;
  std::size_t final_deadline_heap = 0;
  std::uint64_t results = 0;
  std::uint64_t timeouts = 0;
  double peak_rss_mib = 0.0;
};

/// One churn scenario: clients poll/execute/drop, cohorts leave and rejoin.
/// Everything is event-driven through the SimEngine; the wall clock around
/// run_until() is the measurement.
class FleetSim {
 public:
  explicit FleetSim(const FleetParams& p) : p_(p), rng_(p.seed) {}

  FleetResult run() {
    constexpr std::size_t kShardFiles = 64;
    states_.resize(p_.clients);
    // Capacity hints: the fleet size and job size are known up front, so
    // neither the unit table nor the event slab should rehash/reallocate
    // inside the measured window.
    sched_.reserve(p_.units, p_.clients);
    engine_.reserve_slots(3 * p_.clients + 64);
    for (ClientId c = 0; c < p_.clients; ++c) {
      sched_.register_client(c);
      // Two cached shard files per client — exercises the sticky-affinity
      // index on every poll.
      sched_.note_cached(c, shard_file(c % kShardFiles));
      sched_.note_cached(c, shard_file((c + 1) % kShardFiles));
    }
    // Stream the workunits in over the first half of the horizon, in 10
    // batches, one sticky shard input each.
    const std::size_t batches = 10;
    const SimTime arrival_gap = p_.horizon_s / 2.0 / batches;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t lo = p_.units * b / batches;
      const std::size_t hi = p_.units * (b + 1) / batches;
      engine_.schedule_at(arrival_gap * static_cast<double>(b), [=, this] {
        for (std::size_t u = lo; u < hi; ++u) {
          Workunit unit;
          unit.id = u + 1;
          unit.shard = u % kShardFiles;
          unit.inputs.push_back(FileRef{shard_file(unit.shard), true, 0});
          unit.deadline_s = p_.deadline_s;
          unit.replication = (u % 16 == 0) ? 2 : 1;  // some redundancy load
          sched_.add_unit(unit);
        }
      });
    }
    // First poll, staggered so 100k clients don't share one timestamp.
    for (ClientId c = 0; c < p_.clients; ++c) {
      schedule_poll(c, rng_.uniform(0.0, p_.poll_s));
    }
    // Deadline sweeps and churn ticks ride the whole horizon.
    schedule_sweep(p_.sweep_s);
    schedule_churn(p_.churn_s);

    const auto t0 = std::chrono::steady_clock::now();
    engine_.run_until(p_.horizon_s);
    const auto t1 = std::chrono::steady_clock::now();

    FleetResult r;
    r.clients = p_.clients;
    r.units = p_.units;
    r.events = engine_.executed();
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    r.events_per_sec = static_cast<double>(r.events) / r.wall_s;
    r.engine_compactions = engine_.compactions();
    r.final_heap = engine_.heap_size();
    r.final_deadline_heap = sched_.deadline_heap_size();
    r.results = sched_.stats().results;
    r.timeouts = sched_.stats().timeouts;
    return r;
  }

 private:
  // Exactly one cache line: states_ is touched randomly on every poll, and
  // at 100k clients it is one of the big per-event memory costs.
  struct alignas(64) ClientSim {
    bool up = true;
    std::uint8_t n = 0;
    // Inline ring of recent handles, cancellable on leave. Overwritten or
    // already-fired handles are stale EventIds, which cancel() rejects by
    // seq — no separate liveness bookkeeping needed. Three is the typical
    // live-event ceiling per client (a pending poll plus up to two
    // executing/failing assignments).
    std::array<EventId, 3> pending{};
  };
  static_assert(sizeof(ClientSim) == 64, "one cache line per client");

  static std::string shard_file(std::size_t shard) {
    return "shard-" + std::to_string(shard);
  }

  void track(ClientId c, EventId id) {
    ClientSim& s = states_[c];
    s.pending[s.n++ % s.pending.size()] = id;
  }

  void schedule_poll(ClientId c, SimTime delay) {
    track(c, engine_.schedule(delay, [this, c] { poll(c); }));
  }

  void poll(ClientId c) {
    if (!states_[c].up) return;
    const auto grants = sched_.request_work(c, 2, engine_.now());
    for (const Workunit& unit : grants) {
      const double draw = rng_.uniform();
      if (draw < 0.80) {
        // Executes and uploads after a lognormal-ish service time.
        const SimTime exec = rng_.uniform(5.0, 60.0);
        const WorkunitId id = unit.id;
        track(c, engine_.schedule(exec, [this, c, id] {
                if (!states_[c].up) return;  // left mid-exec: rides to deadline
                sched_.report_result(c, id, engine_.now());
              }));
      } else if (draw < 0.90) {
        // Fast-fail abandonment (unreachable file server).
        const WorkunitId id = unit.id;
        track(c, engine_.schedule(2.0, [this, c, id] {
                if (!states_[c].up) return;
                sched_.report_failure(c, id, engine_.now());
              }));
      }
      // else: silent drop — the deadline sweep reclaims it.
    }
    schedule_poll(c, p_.poll_s + rng_.uniform(0.0, 2.0));
  }

  void schedule_sweep(SimTime delay) {
    engine_.schedule(delay, [this] {
      sched_.expire_deadlines(engine_.now());
      schedule_sweep(p_.sweep_s);
    });
  }

  void schedule_churn(SimTime delay) {
    engine_.schedule(delay, [this] {
      // 2% of the fleet toggles per tick, in one burst: leavers cancel every
      // pending event (the stale-heap stressor), rejoiners resume polling.
      const std::size_t toggles = std::max<std::size_t>(1, p_.clients / 50);
      for (std::size_t i = 0; i < toggles; ++i) {
        const auto c = static_cast<ClientId>(rng_.uniform_index(p_.clients));
        ClientSim& s = states_[c];
        if (s.up) {
          s.up = false;
          for (const EventId id : s.pending) engine_.cancel(id);
          s.pending.fill(EventId{});
          s.n = 0;
        } else {
          s.up = true;
          schedule_poll(c, rng_.uniform(0.0, p_.poll_s));
        }
      }
      schedule_churn(p_.churn_s);
    });
  }

  FleetParams p_;
  Rng rng_;
  SimEngine engine_;
  Scheduler sched_;
  std::vector<ClientSim> states_;
};

std::vector<std::size_t> parse_counts(const std::string& csv) {
  std::vector<std::size_t> counts;
  std::istringstream iss(csv);
  std::string tok;
  while (std::getline(iss, tok, ',')) {
    if (!tok.empty()) counts.push_back(std::stoull(tok));
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  bench::print_header("Fleet scale — DES events/sec vs client count",
                      "simulator scalability (not a paper figure)");

  FleetParams base;
  base.horizon_s = cfg.get_double("horizon", smoke ? 120.0 : 600.0);
  base.poll_s = cfg.get_double("poll", 30.0);
  base.deadline_s = cfg.get_double("deadline", 120.0);
  base.sweep_s = cfg.get_double("sweep", 15.0);
  base.churn_s = cfg.get_double("churn", 60.0);
  base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  const auto upc =
      static_cast<std::size_t>(cfg.get_int("units_per_client", 2));
  const int reps = std::max<int>(1, cfg.get_int("reps", 3));
  const double min_measure_s = cfg.get_double("min_measure", 1.0);
  const std::vector<std::size_t> counts = parse_counts(
      cfg.get_string("clients", smoke ? "500,5000" : "1000,10000,100000"));
  const std::string json_path = cfg.get_string("out", "BENCH_fleet.json");
  const double tolerance = cfg.get_double("tolerance", 3.0);
  cfg.reject_unread();

  std::vector<FleetResult> rows;
  for (const std::size_t n : counts) {  // ascending → VmHWM ≈ per-row peak
    FleetParams p = base;
    p.clients = n;
    p.units = n * upc;
    FleetResult r;
    constexpr int kMaxReps = 25;
    double measured = 0.0;
    for (int rep = 0; rep < reps || (measured < min_measure_s &&
                                     rep < kMaxReps); ++rep) {
      FleetResult cur = FleetSim(p).run();
      measured += cur.wall_s;
      if (rep == 0 || cur.wall_s < r.wall_s) r = cur;
    }
    r.peak_rss_mib = peak_rss_mib();
    rows.push_back(r);
    std::cout << "  clients=" << r.clients << " events=" << r.events
              << " wall=" << Table::fmt(r.wall_s, 2)
              << "s events/sec=" << Table::fmt(r.events_per_sec, 0)
              << " results=" << r.results << " timeouts=" << r.timeouts
              << " compactions=" << r.engine_compactions
              << " peak_rss=" << Table::fmt(r.peak_rss_mib, 1) << "MiB\n";
  }

  Table table({"clients", "events", "events/sec", "vs prev", "peak RSS MiB"});
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FleetResult& r = rows[i];
    const double vs_prev =
        i == 0 ? 1.0 : r.events_per_sec / rows[i - 1].events_per_sec;
    table.add_row({Table::fmt(r.clients), Table::fmt(r.events),
                   Table::fmt(r.events_per_sec, 0), Table::fmt(vs_prev, 2),
                   Table::fmt(r.peak_rss_mib, 1)});
  }
  table.print(std::cout);

  std::ofstream out(json_path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"fleet\",\n"
      << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
      << "  \"horizon_s\": " << base.horizon_s << ",\n"
      << "  \"poll_s\": " << base.poll_s << ",\n"
      << "  \"units_per_client\": " << upc << ",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FleetResult& r = rows[i];
    out << "    {\"clients\": " << r.clients << ", \"units\": " << r.units
        << ", \"events\": " << r.events << ", \"wall_s\": " << r.wall_s
        << ", \"events_per_sec\": " << r.events_per_sec
        << ", \"engine_compactions\": " << r.engine_compactions
        << ", \"final_heap\": " << r.final_heap
        << ", \"final_deadline_heap\": " << r.final_deadline_heap
        << ", \"scheduler_results\": " << r.results
        << ", \"scheduler_timeouts\": " << r.timeouts
        << ", \"peak_rss_mib\": " << r.peak_rss_mib << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";

  // Complexity gate: events/sec must not fall off a superlinear cliff as the
  // fleet grows 10x. The old O(n²) paths fail this by orders of magnitude;
  // a healthy run stays within ~1.5x even under a sanitizer.
  bool ok = true;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    const double drop = rows[i - 1].events_per_sec / rows[i].events_per_sec;
    if (drop > tolerance) {
      std::cerr << "FLEET FAIL: events/sec dropped " << Table::fmt(drop, 2)
                << "x from " << rows[i - 1].clients << " to " << rows[i].clients
                << " clients (tolerance " << tolerance
                << "x) — superlinear scaling regression\n";
      ok = false;
    }
  }
  if (smoke && !ok) return 1;
  if (!ok) std::cerr << "(non-smoke run: reporting only, not failing)\n";
  return 0;
}
