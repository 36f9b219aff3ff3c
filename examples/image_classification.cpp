// Full image-classification walkthrough on the volunteer grid.
//
// The domain scenario from the paper's introduction: a small team needs to
// train an image classifier but cannot afford a dedicated cluster, so the
// job runs on a fleet of cheap preemptible instances. This example shows the
// whole system end to end with fault injection on:
//   * job setup (dataset synthesis, 50-way sharding, model + work generator),
//   * a preemptible P5C5T2 fleet with a Var α schedule,
//   * live trace of preemptions / timeout reassignments,
//   * the final accuracy/time/cost report.
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);

  ExperimentSpec spec;
  spec.parameter_servers = 5;
  spec.clients = 5;
  spec.tasks_per_client = 2;
  spec.alpha = "var";
  spec.max_epochs = static_cast<std::size_t>(cfg.get_int("max_epochs", 8));
  spec.target_accuracy = cfg.get_double("target_accuracy", 1.01);
  spec.preemptible = cfg.get_bool("preemptible", true);
  spec.interruption_per_hour = cfg.get_double("interruption_per_hour", 1.0);
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  cfg.reject_unread();
  spec.trace = true;

  std::cout << "Training a 10-class image classifier on a "
            << (spec.preemptible ? "preemptible" : "standard") << " "
            << spec.label() << " fleet (alpha schedule: " << spec.alpha
            << ", " << spec.num_shards << " subtasks/epoch)\n\n";

  VcTrainer trainer(spec);
  const TrainResult result = trainer.run();

  Table table({"epoch", "alpha", "hours", "mean_acc", "band", "val", "test"});
  for (const auto& e : result.epochs) {
    table.add_row({Table::fmt(e.epoch), Table::fmt(e.alpha, 3),
                   Table::fmt(e.end_time / 3600.0, 2),
                   Table::fmt(e.mean_subtask_acc, 3),
                   Table::fmt_band(e.min_subtask_acc, e.max_subtask_acc, 3),
                   Table::fmt(e.val_acc, 3), Table::fmt(e.test_acc, 3)});
  }
  table.print(std::cout);

  // Fault-tolerance events observed during the run.
  const TraceLog& trace = trainer.trace();
  std::cout << "\nFault-tolerance log:\n";
  for (const auto& kind :
       {TraceKind::preempted, TraceKind::instance_up, TraceKind::timeout_reassign}) {
    for (const auto& ev : trace.filter(kind)) {
      std::cout << "  t=" << Table::fmt(ev.time / 3600.0, 2) << "h  "
                << trace_kind_name(ev.kind) << "  " << ev.actor
                << (ev.detail.empty() ? "" : "  (" + ev.detail + ")") << "\n";
    }
  }

  const auto& t = result.totals;
  const auto& m = result.metrics;
  std::cout << "\nSummary\n"
            << "  duration        : " << Table::fmt(t.duration_s / 3600.0, 2)
            << " virtual hours\n"
            << "  final val acc   : "
            << Table::fmt(result.final_epoch().val_acc, 3) << "\n"
            << "  preemptions     : " << m.counter("client.preemptions") << "\n"
            << "  timeouts        : " << m.counter("scheduler.failure.timeout")
            << "\n"
            << "  duplicates      : " << m.counter("server.results_duplicate")
            << "\n"
            << "  lost updates    : " << m.counter("store.lost_updates") << "\n"
            << "  wire traffic    : "
            << m.counter("file_server.bytes_wire") / 1024 << " KiB ("
            << m.counter("file_server.cache_hits") << " sticky-cache hits)\n"
            << "  cost            : $" << Table::fmt(t.cost_preemptible_usd, 2)
            << " preemptible vs $" << Table::fmt(t.cost_standard_usd, 2)
            << " standard\n";
  return 0;
}
