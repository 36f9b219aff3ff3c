// Figure 2 — effect of distributed training at fixed α = 0.95.
//
// Runs the paper's four configurations (P1C3T2, P1C3T8, P3C3T8, P5C5T2) and
// prints the accuracy-vs-cumulative-time series of each. Expected shape
// (§IV-B): all configurations converge toward the same accuracy; they differ
// in training time; P5C5T2 is the fastest of the four.
#include <algorithm>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 2 — accuracy vs cumulative training time",
                      "Fig. 2 (P1C3T2, P1C3T8, P3C3T8, P5C5T2; alpha = 0.95)");
  const ExperimentSpec base = bench::base_spec(cfg);
  cfg.reject_unread();

  struct Shape {
    std::size_t p, c, t;
  };
  const Shape shapes[] = {{1, 3, 2}, {1, 3, 8}, {3, 3, 8}, {5, 5, 2}};

  Table table = bench::epoch_series_table();
  std::vector<TrainResult> results;
  for (const Shape& s : shapes) {
    ExperimentSpec spec = base;
    spec.parameter_servers = s.p;
    spec.clients = s.c;
    spec.tasks_per_client = s.t;
    spec.alpha = "0.95";
    const TrainResult r = run_experiment(spec);
    bench::print_run_summary(r);
    bench::add_epoch_rows(table, spec.label(), r);
    results.push_back(r);
  }
  std::cout << "\n";
  table.print(std::cout);

  // Shape check: time-to-final-epoch ordering, equal accuracy band.
  std::cout << "\nTime to " << results[0].epochs.size() << " epochs:\n";
  for (const auto& r : results) {
    std::cout << "  " << r.spec.label() << ": "
              << Table::fmt(r.totals.duration_s / 3600.0, 2) << " h (final acc "
              << Table::fmt(r.final_epoch().mean_subtask_acc, 3) << ")\n";
  }

  // Wire codec (docs/SIMULATION.md §4b): the same P3C3T8 run with the
  // lossless delta codec — parameter pulls billed as version deltas instead
  // of full blobs. The `full` row is the P3C3T8 run above, whose spec it
  // repeats exactly.
  std::cout << "\nParameter-pull traffic, full blobs vs lossless deltas"
               " (P3C3T8):\n";
  Table codec_tbl({"codec", "total wire MB", "param pull MB", "full-equiv MB",
                   "pull savings", "delta pulls", "final acc"});
  const auto p3c3t8_delta = [&base](std::size_t shards) {
    ExperimentSpec spec = base;
    spec.parameter_servers = 3;
    spec.clients = 3;
    spec.tasks_per_client = 8;
    spec.alpha = "0.95";
    spec.wire_codec = "delta";
    spec.param_shards = shards;
    return spec;
  };
  const TrainResult& full_codec = results[2];  // shapes[2]
  const TrainResult delta = run_experiment(p3c3t8_delta(1));
  for (const TrainResult* r : {&full_codec, &delta}) {
    const double mb = 1024.0 * 1024.0;
    const obs::MetricsSnapshot& m = r->metrics;
    const auto bytes = [&m](const char* counter) {
      return static_cast<double>(m.counter(counter));
    };
    const bool has_split = m.counter("file_server.bytes_delta_full") > 0;
    const double wire = bytes("file_server.bytes_delta_wire");
    const double full = bytes("file_server.bytes_delta_full");
    codec_tbl.add_row(
        {r->spec.wire_codec,
         Table::fmt(bytes("file_server.bytes_wire") / mb, 2),
         has_split ? Table::fmt(wire / mb, 2) : "-",
         has_split ? Table::fmt(full / mb, 2) : "-",
         has_split ? Table::fmt(full / std::max(wire, 1.0), 1) + "x" : "-",
         Table::fmt(m.counter("file_server.delta_pulls")),
         Table::fmt(r->final_epoch().mean_subtask_acc, 3)});
  }
  codec_tbl.print(std::cout);

  // Sharded parameter plane (core/shard_plan.hpp): the same P3C3T8 delta run
  // with the parameter vector sliced over {1, 2, 4, 8} per-shard planes —
  // shard files pulled in parallel, uploads as per-shard frame bundles. One
  // shard is the delta run above. Results land in BENCH_shard.json alongside
  // bench_fig3's sweep.
  std::cout << "\nSharded parameter plane sweep (P3C3T8, delta codec):\n";
  Table shard_tbl({"shards", "hours", "final acc", "param pull MB",
                   "full-equiv MB", "delta pulls"});
  std::ostringstream rows;
  rows << "[";
  for (const std::size_t shards : {1, 2, 4, 8}) {
    const ExperimentSpec spec = p3c3t8_delta(shards);
    const TrainResult r = shards == 1 ? delta : run_experiment(spec);
    const double mb = 1024.0 * 1024.0;
    const std::uint64_t param_wire =
        r.metrics.counter("file_server.bytes_delta_wire");
    const std::uint64_t param_full =
        r.metrics.counter("file_server.bytes_delta_full");
    const std::uint64_t delta_pulls =
        r.metrics.counter("file_server.delta_pulls");
    shard_tbl.add_row(
        {Table::fmt(shards), Table::fmt(r.totals.duration_s / 3600.0, 2),
         Table::fmt(r.final_epoch().mean_subtask_acc, 3),
         Table::fmt(static_cast<double>(param_wire) / mb, 2),
         Table::fmt(static_cast<double>(param_full) / mb, 2),
         Table::fmt(delta_pulls)});
    if (shards != 1) rows << ", ";
    rows << "{\"param_shards\": " << shards << ", \"label\": \""
         << spec.label() << "\", \"wire_codec\": \"delta\", \"hours\": "
         << Table::fmt(r.totals.duration_s / 3600.0, 4)
         << ", \"final_mean_acc\": "
         << Table::fmt(r.final_epoch().mean_subtask_acc, 4)
         << ", \"param_bytes_wire\": " << param_wire
         << ", \"param_bytes_full\": " << param_full
         << ", \"delta_pulls\": " << delta_pulls << "}";
  }
  rows << "]";
  shard_tbl.print(std::cout);
  bench::write_shard_json("fig2", rows.str());
  return 0;
}
