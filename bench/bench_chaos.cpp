// Chaos benchmark — time-to-accuracy degradation vs fault rate.
//
// Sweeps the transfer-fault rate (with proportional corruption) over the
// same training job and measures how far the recovery machinery lets the
// platform bend before it breaks: virtual hours to completion, slowdown vs
// the fault-free run, retries/abandonments/timeouts paid, and final
// accuracy. A second sweep isolates grid-server crash frequency with
// checkpoint replay. The robustness claim is the paper's (§II, §III-B):
// a VC-like platform keeps producing on unreliable infrastructure.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Chaos — fault rate vs time-to-accuracy",
                      "robustness of the §III grid stack under injected faults");
  ExperimentSpec base = bench::base_spec(cfg, /*default_epochs=*/4);
  base.parameter_servers = 3;
  base.clients = 4;
  base.tasks_per_client = 2;
  base.num_shards = static_cast<std::size_t>(cfg.get_int("num_shards", 16));
  const std::string obs_path = cfg.get_string("obs_out", "BENCH_obs.json");
  cfg.reject_unread();

  // Part 1: transfer-fault sweep.
  std::cout << "Transfer faults (drop rate swept; corruption = rate/5; "
               "P3C4T2):\n";
  Table sweep({"fault rate", "hours", "slowdown", "xfer fails", "abandoned",
               "invalid", "timeouts", "final acc"});
  double baseline_h = 0.0;
  double baseline_acc = 0.0;
  for (const double rate : {0.0, 0.05, 0.10, 0.20, 0.30}) {
    ExperimentSpec spec = base;
    spec.faults.download.drop_prob = rate;
    spec.faults.upload.drop_prob = rate;
    spec.faults.download.stall_prob = rate / 2.0;
    spec.faults.corruption_prob = rate / 5.0;
    spec.client_retry.base_backoff_s = 2.0;
    const TrainResult r = run_experiment(spec);
    const obs::MetricsSnapshot& m = r.metrics;
    const double hours = r.totals.duration_s / 3600.0;
    if (rate == 0.0) {
      baseline_h = hours;
      baseline_acc = r.final_epoch().mean_subtask_acc;
    }
    sweep.add_row({Table::fmt(rate, 2), Table::fmt(hours, 2),
                   Table::fmt(hours / baseline_h, 2) + "x",
                   // Each dropped transfer is either retried or abandoned.
                   Table::fmt(m.counter("client.transfer_retries") +
                              m.counter("client.transfer_abandoned")),
                   Table::fmt(m.counter("client.transfer_abandoned")),
                   Table::fmt(m.counter("scheduler.failure.invalid_result")),
                   Table::fmt(m.counter("scheduler.failure.timeout")),
                   Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  sweep.print(std::cout);
  std::cout << "(accuracy should stay near the fault-free "
            << Table::fmt(baseline_acc, 3)
            << " while hours climb with the fault rate — faults cost time, "
               "not convergence)\n\n";

  // Part 2: grid-server crash sweep with checkpoint replay. Crash times are
  // placed at even fractions of the measured fault-free duration so the sweep
  // stays meaningful at any epochs=/num_shards= override.
  std::cout << "Grid-server crashes (recovery 60 s, checkpoint every 120 s):\n";
  Table crashes({"crashes", "hours", "slowdown", "reissued units",
                 "ckpt restores", "final acc"});
  double crash_base_s = 0.0;
  obs::MetricsSnapshot last_metrics;
  for (const int n_crashes : {0, 1, 2, 4}) {
    ExperimentSpec spec = base;
    for (int i = 1; i <= n_crashes; ++i) {
      spec.faults.server_crashes.push_back(crash_base_s * i / (n_crashes + 1));
    }
    spec.faults.server_recovery_s = 60.0;
    spec.checkpoint_interval_s = 120.0;
    const TrainResult r = run_experiment(spec);
    last_metrics = r.metrics;
    if (n_crashes == 0) crash_base_s = r.totals.duration_s;
    const double hours = r.totals.duration_s / 3600.0;
    const obs::MetricsSnapshot& m = r.metrics;
    crashes.add_row({Table::fmt(m.counter("faults.server_crash")),
                     Table::fmt(hours, 2),
                     Table::fmt(hours / (crash_base_s / 3600.0), 2) + "x",
                     Table::fmt(m.counter("scheduler.failure.reissue_lost")),
                     Table::fmt(m.counter("checkpoint.restores")),
                     Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  crashes.print(std::cout);
  std::cout << "(each crash rewinds to the last checkpoint and re-runs lost "
               "units; the job completes every time)\n";

  // Telemetry export: the final (heaviest-crash) run's fault/recovery
  // counters and latency histograms — the chaos profile at the top of the
  // sweep.
  bench::write_obs_json("chaos", last_metrics, obs_path);
  return 0;
}
