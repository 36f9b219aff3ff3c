// Design-choice ablations (DESIGN.md §4) — not a paper figure.
//
// Quantifies the system features the paper asserts qualitatively:
//   1. shard policy: IID vs worst-case label-skew (client drift amplifier);
//   2. sticky-file caching: bytes over the wire with and without it;
//   3. workunit replication: redundancy cost vs timeout robustness;
//   4. the §V GPU-fleet extension: time and cost vs the CPU fleet;
//   5. wire codec: full blobs vs lossless deltas vs 8-bit quantized uploads
//      (docs/SIMULATION.md §4b).
#include <algorithm>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "sim/cost.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Ablations — shard policy, sticky cache, replication, GPU",
                      "DESIGN.md §4 (supporting, not a paper figure)");

  ExperimentSpec base = bench::base_spec(cfg, /*default_epochs=*/4);
  base.parameter_servers = 3;
  base.clients = 3;
  base.tasks_per_client = 4;
  base.alpha = "var";
  cfg.reject_unread();

  auto p3c3t4 = [&](auto&& mutate) {
    ExperimentSpec spec = base;
    mutate(spec);
    TrainResult r = run_experiment(spec);
    bench::print_run_summary(r);  // flushed, so a redirected run shows it
    return r;
  };

  // 1. Shard policy.
  std::cout << "1) Shard policy (label skew amplifies the §IV-C client-drift"
               " effect):\n";
  // The unmodified spec is section 1's default-policy row, section 2's run
  // and section 5's default-codec row: it runs once.
  const TrainResult base_run = p3c3t4([](ExperimentSpec&) {});
  Table shard_tbl({"policy", "final acc", "acc spread", "hours"});
  for (const ShardPolicy policy : {ShardPolicy::iid, ShardPolicy::label_skew}) {
    const TrainResult r =
        policy == base.shard_policy
            ? base_run
            : p3c3t4([&](ExperimentSpec& s) { s.shard_policy = policy; });
    const auto& e = r.final_epoch();
    shard_tbl.add_row({shard_policy_name(policy),
                       Table::fmt(e.mean_subtask_acc, 3),
                       Table::fmt(e.max_subtask_acc - e.min_subtask_acc, 3),
                       Table::fmt(r.totals.duration_s / 3600.0, 2)});
  }
  shard_tbl.print(std::cout);

  // 2. Sticky cache. Disabling = give every shard a poll-varying name is
  // invasive; instead compare wire bytes with caching (measured) against the
  // no-cache counterfactual (every download re-transferred).
  std::cout << "\n2) Sticky-file caching (BOINC feature, §III-B):\n";
  {
    const TrainResult& r = base_run;
    const auto hits = r.metrics.counter("file_server.cache_hits");
    const double measured_mb =
        static_cast<double>(r.metrics.counter("file_server.bytes_wire")) /
        (1024.0 * 1024.0);
    Table cache_tbl({"setting", "wire MB", "cache hits"});
    cache_tbl.add_row({"sticky cache on (measured)", Table::fmt(measured_mb, 1),
                       Table::fmt(hits)});
    // Counterfactual: each hit would have re-downloaded an average-sized
    // sticky artifact (shards dominate).
    const double avg_sticky_mb = measured_mb > 0 && hits > 0
                                     ? measured_mb * 0.5 / 50.0  // ~per-shard
                                     : 0.0;
    cache_tbl.add_row(
        {"cache off (counterfactual)",
         Table::fmt(measured_mb + avg_sticky_mb * static_cast<double>(hits), 1),
         "0"});
    cache_tbl.print(std::cout);
  }

  // 3. Replication.
  std::cout << "\n3) Workunit replication (BOINC redundancy, §II-C):\n";
  Table rep_tbl({"replication", "hours", "duplicates", "timeouts"});
  for (const std::size_t rep : {std::size_t{1}, std::size_t{2}}) {
    const TrainResult r = p3c3t4([&](ExperimentSpec& s) {
      s.replication = rep;
      s.preemptible = true;
      s.interruption_per_hour = 0.5;
    });
    rep_tbl.add_row({Table::fmt(rep), Table::fmt(r.totals.duration_s / 3600.0, 2),
                     Table::fmt(r.metrics.counter("server.results_duplicate")),
                     Table::fmt(
                         r.metrics.counter("scheduler.failure.timeout"))});
  }
  rep_tbl.print(std::cout);

  // 4. GPU fleet (cost model only — same catalogue machinery as Table I).
  std::cout << "\n4) GPU fleet (the paper's §V extension), 8 h of 5 clients:\n";
  Table gpu_tbl({"fleet", "$/hr std", "$/hr preempt", "per-subtask speedup"});
  for (const auto& [name, cat] :
       {std::pair{"CPU (Table I)", table1_catalog()},
        std::pair{"GPU", gpu_catalog()}}) {
    const auto fleet = make_client_fleet(cat, 5, true, 0.05);
    double speedup = 0.0;
    for (const auto& t : fleet) speedup += t.accel_factor;
    gpu_tbl.add_row({name,
                     Table::fmt(CostLedger::fleet_hourly_standard(fleet), 2),
                     Table::fmt(CostLedger::fleet_hourly_preemptible(fleet), 2),
                     Table::fmt(speedup / static_cast<double>(fleet.size()), 1) +
                         "x"});
  }
  gpu_tbl.print(std::cout);
  std::cout << "(preemptible GPU instances carry the same 70% discount — the "
               "paper's cost argument extends to GPUs, §V)\n";

  // 5. Wire codec. Uploads are the headline: q8 frames carry 8 bits per
  // weight instead of 32 (≥4x smaller); download pulls are billed as
  // version deltas in both delta modes. Accuracy must survive quantization.
  std::cout << "\n5) Wire codec (docs/SIMULATION.md §4b):\n";
  Table wire_tbl({"codec", "upload MB", "per-upload KB", "param pull MB",
                  "full-equiv MB", "final acc"});
  double full_upload_mb = 0.0;
  double full_acc = 0.0;
  for (const char* mode : {"full", "delta", "delta_q8"}) {
    const TrainResult r =
        mode == base.wire_codec
            ? base_run
            : p3c3t4([&](ExperimentSpec& s) { s.wire_codec = mode; });
    const double mb = 1024.0 * 1024.0;
    const auto megabytes = [&r, mb](const char* counter) {
      return static_cast<double>(r.metrics.counter(counter)) / mb;
    };
    const double upload_mb = megabytes("client.bytes_uploaded");
    const double uploads = std::max(
        1.0, static_cast<double>(r.metrics.counter("client.completed")));
    const bool has_split =
        r.metrics.counter("file_server.bytes_delta_full") > 0;
    if (std::string(mode) == "full") {
      full_upload_mb = upload_mb;
      full_acc = r.final_epoch().mean_subtask_acc;
    }
    wire_tbl.add_row(
        {mode, Table::fmt(upload_mb, 2),
         Table::fmt(upload_mb * 1024.0 / uploads, 1),
         has_split ? Table::fmt(megabytes("file_server.bytes_delta_wire"), 2)
                   : "-",
         has_split ? Table::fmt(megabytes("file_server.bytes_delta_full"), 2)
                   : "-",
         Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
    if (std::string(mode) == "delta_q8" && full_upload_mb > 0.0) {
      std::cout << "   q8 upload reduction vs full: "
                << Table::fmt(full_upload_mb / std::max(upload_mb, 1e-9), 1)
                << "x, accuracy delta vs full: "
                << Table::fmt(r.final_epoch().mean_subtask_acc - full_acc, 3)
                << "\n";
    }
  }
  wire_tbl.print(std::cout);
  return 0;
}
