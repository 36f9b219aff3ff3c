// Quickstart: train a model with VC-ASGD on a volunteer-computing-like fleet.
//
// Builds the default P3C3T4 experiment from the paper (§IV-C), runs it in
// simulated time, and prints the per-epoch accuracy/time series. Any
// ExperimentSpec field with a key below can be overridden on the command
// line, e.g.:
//   quickstart clients=5 parameter_servers=5 tasks_per_client=2 alpha=var
#include <fstream>
#include <iostream>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/table.hpp"
#include "core/report.hpp"
#include "core/trainer.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);

  ExperimentSpec spec;
  spec.parameter_servers =
      static_cast<std::size_t>(cfg.get_int("parameter_servers", 3));
  spec.clients = static_cast<std::size_t>(cfg.get_int("clients", 3));
  spec.tasks_per_client =
      static_cast<std::size_t>(cfg.get_int("tasks_per_client", 4));
  spec.alpha = cfg.get_string("alpha", "0.95");
  spec.num_shards = static_cast<std::size_t>(cfg.get_int("num_shards", 50));
  spec.max_epochs = static_cast<std::size_t>(cfg.get_int("max_epochs", 8));
  spec.store = cfg.get_string("store", "eventual");
  spec.local_epochs = static_cast<std::size_t>(
      cfg.get_int("local_epochs", static_cast<std::int64_t>(spec.local_epochs)));
  spec.batch_size = static_cast<std::size_t>(
      cfg.get_int("batch_size", static_cast<std::int64_t>(spec.batch_size)));
  spec.learning_rate = cfg.get_double("learning_rate", spec.learning_rate);
  spec.data.difficulty = cfg.get_double("difficulty", spec.data.difficulty);
  if (cfg.get_string("shard_policy", "iid") == "label_skew") {
    spec.shard_policy = ShardPolicy::label_skew;
  }
  spec.preemptible = cfg.get_bool("preemptible", false);
  spec.interruption_per_hour = cfg.get_double("interruption_per_hour", 0.0);
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  if (cfg.get_bool("verbose", false)) set_log_level(LogLevel::info);
  const std::string json_path = cfg.get_string("json", "");
  const std::string csv_path = cfg.get_string("csv", "");
  cfg.reject_unread();

  std::cout << "VC-ASGD quickstart: " << spec.label() << " alpha=" << spec.alpha
            << " store=" << spec.store << "\n";
  const TrainResult result = run_experiment(spec);

  Table table({"epoch", "alpha", "hours", "mean_acc", "min", "max", "val_acc",
               "test_acc"});
  for (const auto& e : result.epochs) {
    table.add_row({Table::fmt(e.epoch), Table::fmt(e.alpha, 3),
                   Table::fmt(e.end_time / 3600.0, 2),
                   Table::fmt(e.mean_subtask_acc), Table::fmt(e.min_subtask_acc),
                   Table::fmt(e.max_subtask_acc), Table::fmt(e.val_acc),
                   Table::fmt(e.test_acc)});
  }
  table.print(std::cout);

  const auto& t = result.totals;
  const auto& m = result.metrics;
  std::cout << "\nmodel parameters : " << t.parameter_count
            << "\nvirtual duration : " << t.duration_s / 3600.0 << " h"
            << "\nfleet cost       : $" << t.cost_standard_usd << " standard, $"
            << t.cost_preemptible_usd << " preemptible"
            << "\ntimeouts         : " << m.counter("scheduler.failure.timeout")
            << "\npreemptions      : " << m.counter("client.preemptions")
            << "\nlost updates     : " << m.counter("store.lost_updates")
            << " (of " << m.counter("store.writes") << " store writes)"
            << "\nsticky cache hits: " << m.counter("file_server.cache_hits")
            << "\n";

  // Optional machine-readable exports for replotting.
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << to_json(result) << "\n";
    std::cout << "wrote " << json_path << "\n";
  }
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    write_epochs_csv(out, result, spec.label());
    std::cout << "wrote " << csv_path << "\n";
  }
  return 0;
}
