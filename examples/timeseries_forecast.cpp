// Time-series regime classification on the volunteer grid (§V).
//
// The paper's future-work scenario: forecasting-style workloads have small
// training data (no compression/caching pressure) and are "less amenable to
// data parallel training ... hence require more vertical scaling". This
// example trains an MLP on the synthetic regime-classification task with a
// small shard count, and sweeps Tn on a two-client fleet to show vertical
// scaling doing the work that horizontal scaling does for the image job.
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t epochs = static_cast<std::size_t>(cfg.get_int("max_epochs", 6));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  cfg.reject_unread();

  std::cout << "Time-series regime classification (MLP, " << epochs
            << " epochs), vertical-scaling sweep on 2 clients:\n\n";

  Table table({"Tn", "hours", "final acc", "wire KiB", "cache hits"});
  for (const std::size_t tn : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    ExperimentSpec spec;
    spec.workload = ExperimentSpec::Workload::timeseries;
    spec.model_kind = ExperimentSpec::ModelKind::mlp;
    spec.mlp.hidden = {64, 32};
    spec.parameter_servers = 2;
    spec.clients = 2;               // small fleet: vertical scaling territory
    spec.tasks_per_client = tn;
    spec.alpha = "var";
    spec.num_shards = 20;           // small data ⇒ fewer subtasks per epoch
    spec.max_epochs = epochs;
    spec.local_epochs = 2;
    spec.work_per_subtask = 180.0;  // far lighter than an image subtask
    spec.seed = seed;
    const TrainResult r = run_experiment(spec);
    std::string tn_label = "T";
    tn_label += std::to_string(tn);
    table.add_row({tn_label,
                   Table::fmt(r.totals.duration_s / 3600.0, 2),
                   Table::fmt(r.final_epoch().mean_subtask_acc, 3),
                   Table::fmt(
                       r.metrics.counter("file_server.bytes_wire") / 1024),
                   Table::fmt(r.metrics.counter("file_server.cache_hits"))});
    std::cout << "  T" << tn << " done ("
              << Table::fmt(r.totals.duration_s / 3600.0, 2) << " h)\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nReading: with only 2 clients, raising Tn (vertical scaling) "
               "is what cuts training time; the data volume is tiny, so the "
               "sticky cache and compression barely matter — both §V claims.\n";
  return 0;
}
