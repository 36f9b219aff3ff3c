// fleet_churn: 100k clients poll, execute or drop their assignments, and
// cohorts leave and rejoin in bursts, on SimEngine + Scheduler with no
// training. The scenario is the one bench/bench_fleet_scale.cpp drives; here
// it runs at one fleet size for the run's seconds, and its traced pass wraps
// every engine and scheduler call in a span.
#include <algorithm>
#include <array>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "grid/scheduler.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace vcdl;

struct FleetParams {
  std::size_t clients = 100000;
  std::size_t units = 200000;
  SimTime horizon_s = 3000.0;
  SimTime poll_s = 30.0;
  SimTime deadline_s = 120.0;
  SimTime sweep_s = 15.0;
  SimTime churn_s = 60.0;
  std::uint64_t seed = 1;
};

struct FleetRun {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t events = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t results = 0;
  std::uint64_t timeouts = 0;
  std::size_t retired = 0;
  SimTime finish_s = 0.0;  // 99% of units have a result
};

class FleetSim {
 public:
  FleetSim(const FleetParams& p, Tracer* tracer) : p_(p), rng_(p.seed),
                                                    tracer_(tracer) {
    if (tracer_ != nullptr) {
      t_run_ = tracer_->id("sim.run");
      t_callback_ = tracer_->id("callback");
      t_schedule_ = tracer_->id("sim.schedule");
      t_request_ = tracer_->id("grid.request_work");
      t_report_ = tracer_->id("grid.report");
      t_expire_ = tracer_->id("grid.expire");
    }
  }

  /// Runs `fn` inside a span when tracing; returns what `fn` returns.
  template <typename F>
  decltype(auto) span(std::uint32_t name, F&& fn) {
    if (tracer_ == nullptr) return fn();
    Tracer::Scope scope(*tracer_, name);
    return fn();
  }

  FleetRun run() {
    FleetRun r;
    const auto t_setup = Clock::now();
    setup();
    r.setup_s = seconds_since(t_setup);
    const auto t0 = Clock::now();
    span(t_run_, [&] { engine_.run_until(p_.horizon_s); });
    r.wall_s = seconds_since(t0);
    r.events = engine_.executed();
    r.dispatched = sched_.stats().assignments;
    r.results = sched_.stats().results;
    r.timeouts = sched_.stats().timeouts;
    for (std::size_t u = 0; u < p_.units; ++u) {
      if (sched_.is_retired(u + 1)) ++r.retired;
    }
    r.finish_s = finish_s_;
    return r;
  }

 private:
  static constexpr std::size_t kShardFiles = 64;

  // One cache line per client, as in bench_fleet_scale.
  struct alignas(64) ClientSim {
    bool up = true;
    std::uint8_t n = 0;
    std::array<EventId, 3> pending{};
  };

  EventId schedule(SimTime delay, EventFn fn) {
    return span(t_schedule_,
                [&] { return engine_.schedule(delay, std::move(fn)); });
  }

  static std::string shard_file(std::size_t shard) {
    return "shard-" + std::to_string(shard);
  }

  void setup() {
    states_.resize(p_.clients);
    sched_.reserve(p_.units, p_.clients);
    engine_.reserve_slots(3 * p_.clients + 64);
    for (ClientId c = 0; c < p_.clients; ++c) {
      sched_.register_client(c);
      sched_.note_cached(c, shard_file(c % kShardFiles));
      sched_.note_cached(c, shard_file((c + 1) % kShardFiles));
    }
    // Workunits stream in over the first half of the horizon in 10 batches.
    const std::size_t batches = 10;
    const SimTime gap = p_.horizon_s / 2.0 / batches;
    for (std::size_t b = 0; b < batches; ++b) {
      const std::size_t lo = p_.units * b / batches;
      const std::size_t hi = p_.units * (b + 1) / batches;
      engine_.schedule_at(gap * static_cast<double>(b), [=, this] {
        span(t_callback_, [&] {
          for (std::size_t u = lo; u < hi; ++u) {
            Workunit unit;
            unit.id = u + 1;
            unit.shard = u % kShardFiles;
            unit.inputs.push_back(FileRef{shard_file(unit.shard), true, 0});
            unit.deadline_s = p_.deadline_s;
            unit.replication = (u % 16 == 0) ? 2 : 1;
            sched_.add_unit(unit);
          }
        });
      });
    }
    for (ClientId c = 0; c < p_.clients; ++c) {
      track(c, engine_.schedule(rng_.uniform(0.0, p_.poll_s),
                                [this, c] { poll(c); }));
    }
    engine_.schedule(p_.sweep_s, [this] { sweep(); });
    engine_.schedule(p_.churn_s, [this] { churn(); });
  }

  void track(ClientId c, EventId id) {
    ClientSim& s = states_[c];
    s.pending[s.n++ % s.pending.size()] = id;
  }

  void poll(ClientId c) {
    span(t_callback_, [&] {
      if (!states_[c].up) return;
      const auto grants = span(t_request_, [&] {
        return sched_.request_work(c, 2, engine_.now());
      });
      for (const Workunit& unit : grants) {
        const double draw = rng_.uniform();
        const WorkunitId id = unit.id;
        if (draw < 0.80) {
          track(c, schedule(rng_.uniform(5.0, 60.0), [this, c, id] {
                  span(t_callback_, [&] {
                    if (!states_[c].up) return;
                    const bool first_result = span(t_report_, [&] {
                      return sched_.report_result(c, id, engine_.now());
                    });
                    // Time to finish: when 99% of units have a result (the
                    // very last straggler is too noisy to bound).
                    if (first_result && ++finished_ == p_.units * 99 / 100) {
                      finish_s_ = engine_.now();
                    }
                  });
                }));
        } else if (draw < 0.90) {
          track(c, schedule(2.0, [this, c, id] {
                  span(t_callback_, [&] {
                    if (!states_[c].up) return;
                    span(t_report_, [&] {
                      sched_.report_failure(c, id, engine_.now());
                    });
                  });
                }));
        }
        // else: silent drop — the deadline sweep reclaims it.
      }
      track(c, schedule(p_.poll_s + rng_.uniform(0.0, 2.0),
                        [this, c] { poll(c); }));
    });
  }

  void sweep() {
    span(t_callback_, [&] {
      span(t_expire_, [&] { sched_.expire_deadlines(engine_.now()); });
      schedule(p_.sweep_s, [this] { sweep(); });
    });
  }

  void churn() {
    span(t_callback_, [&] {
      // 2% of the fleet toggles per tick: leavers cancel every pending
      // event, rejoiners resume polling.
      const std::size_t toggles = std::max<std::size_t>(1, p_.clients / 50);
      for (std::size_t i = 0; i < toggles; ++i) {
        const auto c = static_cast<ClientId>(rng_.uniform_index(p_.clients));
        ClientSim& s = states_[c];
        if (s.up) {
          s.up = false;
          span(t_schedule_, [&] {
            for (const EventId id : s.pending) engine_.cancel(id);
          });
          s.pending.fill(EventId{});
          s.n = 0;
        } else {
          s.up = true;
          track(c, schedule(rng_.uniform(0.0, p_.poll_s),
                            [this, c] { poll(c); }));
        }
      }
      schedule(p_.churn_s, [this] { churn(); });
    });
  }

  FleetParams p_;
  Rng rng_;
  Tracer* tracer_;
  std::uint32_t t_run_ = 0, t_callback_ = 0, t_schedule_ = 0, t_request_ = 0,
                t_report_ = 0, t_expire_ = 0;
  SimEngine engine_;
  Scheduler sched_;
  std::vector<ClientSim> states_;
  std::size_t finished_ = 0;
  SimTime finish_s_ = 0.0;
};

/// Empty when `r` reproduces the same-seed counts of `first`.
std::string check_run(const FleetRun& r, const FleetRun* first) {
  if (r.events == 0 || r.results == 0 || !(r.finish_s > 0.0)) {
    return "no events, or 99% of units never finished";
  }
  if (first != nullptr &&
      (r.events != first->events || r.results != first->results ||
       r.timeouts != first->timeouts || r.retired != first->retired ||
       r.finish_s != first->finish_s)) {
    return "same-seed mismatch: events " + std::to_string(r.events) + " vs " +
           std::to_string(first->events) + ", results " +
           std::to_string(r.results) + " vs " + std::to_string(first->results);
  }
  return {};
}

std::uint64_t observe_count() {
  std::uint64_t n = 0;
  for (const auto& [name, h] : obs::registry().snapshot().histograms) {
    n += h.count;
  }
  return n;
}

}  // namespace

Outcome run_fleet_workload(const Args& args) {
  FleetParams params;
  params.seed = args.seed;
  const Host host = host_info(1);
  std::cout << "perfbench workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "host: " << describe(host) << "\n"
            << "scenario: clients=" << params.clients
            << " units=" << params.units << " horizon=" << params.horizon_s
            << "s poll=" << params.poll_s << "s deadline="
            << params.deadline_s << "s churn=2%/" << params.churn_s << "s\n";
  const auto start = Clock::now();

  Outcome outcome;
  std::vector<double> setups, walls, rates;
  std::optional<FleetRun> first;
  std::size_t planned = 3;
  for (std::size_t run = 1;; ++run) {
    ++outcome.attempted;
    const auto t0 = Clock::now();
    const FleetRun r = FleetSim(params, nullptr).run();
    const std::string error = check_run(r, first ? &*first : nullptr);
    if (error.empty()) {
      setups.push_back(r.setup_s);
      walls.push_back(r.wall_s);
      rates.push_back(static_cast<double>(r.events) / r.wall_s);
      if (!first) first = r;
    } else {
      ++outcome.failed;
      outcome.errors.push_back("run " + std::to_string(run) + ": " + error);
    }
    const double typical = seconds_since(t0);
    planned = std::max<std::size_t>(
        run, std::max<std::size_t>(3, static_cast<std::size_t>(
                                          args.seconds / typical)));
    progress(args.workload, "churn", run, planned, seconds_since(start));
    if (run >= 3 && seconds_since(start) + typical > args.seconds) break;
  }

  const double events_per_s = median(rates);
  std::vector<Metric> e2e = {
      {"setup_s", median(setups), "s", describe(summarize(setups))},
      {"run_wall_s", median(walls), "s", describe(summarize(walls))},
      {"work_per_s", events_per_s, "1/s", "= events_per_s"},
      {"virtual_h", first ? first->finish_s / 3600.0 : 0.0, "h",
       "virtual time when 99% of units have a result"},
      {"peak_rss_mib", peak_rss_mib(), "MiB", "process peak"},
  };
  print_table("end-to-end (tracing off):", e2e);
  print_table(
      "also (output checks):",
      {{"events_per_s", events_per_s, "1/s",
        std::to_string(first ? first->events : 0) + " DES events per run"},
       {"results", first ? static_cast<double>(first->results) : 0.0, "count",
        "same in every run of this seed"},
       {"failed_runs_ratio", ratio(outcome.failed, outcome.attempted), "ratio",
        ratio_note(outcome.failed, outcome.attempted)}});

  if (!args.trace) {
    outcome.metrics = std::move(e2e);
  } else if (first) {
    progress(args.workload, "traced", 1, 1, seconds_since(start));
    Tracer tracer(true);
    const std::uint64_t observes_before = observe_count();
    const FleetRun r = FleetSim(params, &tracer).run();
    const std::uint64_t observes = observe_count() - observes_before;
    const std::string error = check_run(r, &*first);
    if (!error.empty()) outcome.errors.push_back("traced run: " + error);
    const double sim_s = tracer.totals("sim.run").self_s +
                         tracer.totals("sim.schedule").total_s;
    const double request_s = tracer.totals("grid.request_work").total_s;
    const double report_s = tracer.totals("grid.report").total_s;
    const double expire_s = tracer.totals("grid.expire").total_s;
    const double unattributed = r.wall_s - sim_s - request_s - report_s -
                                expire_s;
    const auto calls = [&](const char* name) {
      return std::to_string(tracer.totals(name).count) + " calls";
    };
    const std::string none = "not exercised (no training)";
    std::vector<Metric>& m = outcome.metrics;
    m = {{"tensor.gemm_calls", 0, "count", none},
         {"nn.sgd_steps", 0, "count", none},
         {"nn.forward_s", 0, "s", none},
         {"nn.backward_s", 0, "s", none},
         {"nn.optimizer_s", 0, "s", none},
         {"data.gather_s", 0, "s", none},
         {"core.results_assimilated", 0, "count", none},
         {"core.validate_s", 0, "s", none},
         {"core.epoch_eval_s", 0, "s", none},
         {"core.useful_result_ratio", ratio(r.results, r.dispatched), "ratio",
          ratio_note(r.results, r.dispatched) + " results / assignments"},
         {"common.encode_s", 0, "s", none},
         {"common.decode_s", 0, "s", none},
         {"common.upload_bytes", 0, "bytes", none},
         {"grid.publish_s", 0, "s", none},
         {"grid.pull_s", 0, "s", none},
         {"grid.cache_hit_ratio", 0, "ratio", none},
         {"grid.delta_pull_ratio", 0, "ratio", none},
         {"grid.request_work_s", request_s, "s", calls("grid.request_work")},
         {"grid.report_s", report_s, "s", calls("grid.report")},
         {"grid.expire_s", expire_s, "s", calls("grid.expire")},
         {"storage.reads", 0, "count", none},
         {"storage.writes", 0, "count", none},
         {"storage.op_s", 0, "s", none},
         {"storage.lost_update_ratio", 0, "ratio", none},
         {"sim.events", static_cast<double>(r.events), "count", ""},
         {"sim.dispatch_s", sim_s, "s",
          "engine self time + " + calls("sim.schedule") + " (schedule/cancel)"},
         {"obs.observe_calls", static_cast<double>(observes), "count", ""},
         {"obs.observe_s", 0, "s", "no histogram on this path"},
         {"unattributed_s", unattributed, "s",
          "traced run_wall_s " + std::to_string(r.wall_s) +
              " - layer busy; the scenario's own callback code"}};
    print_table("per-layer (spans around the real calls):", m);
    std::cout << "  tracing overhead " << r.wall_s - median(walls)
              << " s (traced " << r.wall_s << " s vs untraced median "
              << median(walls) << " s)\n";
    if (unattributed < 0.0) {
      outcome.errors.push_back("attribution: unattributed_s = " +
                               std::to_string(unattributed) + " < 0");
    }
  }
  outcome.correct =
      outcome.failed == 0 && outcome.errors.empty() && first.has_value();
  return outcome;
}

}  // namespace perfbench
