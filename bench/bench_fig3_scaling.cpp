// Figure 3 — training time vs number of parameter servers (Pn) and number of
// simultaneous subtasks per client (Tn), at α = 0.95.
//
// Runs the paper's 3×3 grid {P1C3, P3C3, P5C5} × {T2, T4, T8} for a fixed
// number of epochs and reports the total training time of each cell plus the
// 40-epoch extrapolation (the paper's y-axis scale). Expected shape (§IV-B):
//   * P1C3: time improves T2→T4 (clients were underused), regresses T4→T8
//     (one parameter server cannot absorb the result bursts);
//   * P3C3T8 is markedly faster than P1C3T8 (more PS workers);
//   * P5C5: time grows monotonically T2→T8 (server-side imbalance).
#include <iostream>
#include <sstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 3 — Pn / Tn effect on training time",
                      "Fig. 3 ({P1C3,P3C3,P5C5} x {T2,T4,T8}; alpha = 0.95)");
  const ExperimentSpec base = bench::base_spec(cfg, /*default_epochs=*/6);
  cfg.reject_unread();

  struct Cluster {
    std::size_t p, c;
  };
  const Cluster clusters[] = {{1, 3}, {3, 3}, {5, 5}};
  const std::size_t tns[] = {2, 4, 8};

  Table table({"config", "T2 hours", "T4 hours", "T8 hours",
               "T2 (40-epoch est.)", "T4 (40-epoch est.)", "T8 (40-epoch est.)"});

  for (const Cluster& cl : clusters) {
    std::vector<double> hours, hours40;
    for (const std::size_t tn : tns) {
      ExperimentSpec spec = base;
      spec.parameter_servers = cl.p;
      spec.clients = cl.c;
      spec.tasks_per_client = tn;
      spec.alpha = "0.95";
      const TrainResult r = run_experiment(spec);
      bench::print_run_summary(r);
      const double h = r.totals.duration_s / 3600.0;
      hours.push_back(h);
      hours40.push_back(h / static_cast<double>(r.epochs.size()) * 40.0);
    }
    table.add_row({"P" + std::to_string(cl.p) + "C" + std::to_string(cl.c),
                   Table::fmt(hours[0], 2), Table::fmt(hours[1], 2),
                   Table::fmt(hours[2], 2), Table::fmt(hours40[0], 1),
                   Table::fmt(hours40[1], 1), Table::fmt(hours40[2], 1)});
  }
  std::cout << "\n";
  table.print(std::cout);

  // Sharded parameter plane (core/shard_plan.hpp): the paper's fastest cell
  // (P5C5T2) at param_shards ∈ {1, 2, 4, 8} under the delta codec. Merged
  // into BENCH_shard.json alongside bench_fig2's sweep.
  std::cout << "\nSharded parameter plane sweep (P5C5T2, delta codec):\n";
  Table shard_tbl({"shards", "hours", "40-epoch est.", "final acc"});
  std::ostringstream rows;
  rows << "[";
  for (const std::size_t shards : {1, 2, 4, 8}) {
    ExperimentSpec spec = base;
    spec.parameter_servers = 5;
    spec.clients = 5;
    spec.tasks_per_client = 2;
    spec.alpha = "0.95";
    spec.wire_codec = "delta";
    spec.param_shards = shards;
    const TrainResult r = run_experiment(spec);
    bench::print_run_summary(r);
    const double h = r.totals.duration_s / 3600.0;
    const double h40 = h / static_cast<double>(r.epochs.size()) * 40.0;
    shard_tbl.add_row({Table::fmt(shards), Table::fmt(h, 2),
                       Table::fmt(h40, 1),
                       Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
    if (shards != 1) rows << ", ";
    rows << "{\"param_shards\": " << shards << ", \"label\": \""
         << spec.label() << "\", \"wire_codec\": \"delta\", \"hours\": "
         << Table::fmt(h, 4) << ", \"hours_40epoch\": " << Table::fmt(h40, 4)
         << ", \"final_mean_acc\": "
         << Table::fmt(r.final_epoch().mean_subtask_acc, 4) << "}";
  }
  rows << "]";
  shard_tbl.print(std::cout);
  bench::write_shard_json("fig3", rows.str());
  return 0;
}
