// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench accepts `key=value` overrides (epochs=20 seed=3 ...) so the
// default fast preset can be scaled up toward the paper's full 40-epoch runs.
#pragma once

#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/job.hpp"
#include "core/trainer.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"

namespace vcdl::bench {

/// The repo-wide experiment preset: paper topology (50 shards, Table I
/// fleet), substitution-scale data/model, fast default epoch budget.
inline ExperimentSpec base_spec(const Config& cfg,
                                std::size_t default_epochs = 10) {
  ExperimentSpec spec;
  spec.max_epochs = static_cast<std::size_t>(
      cfg.get_int("epochs", static_cast<std::int64_t>(default_epochs)));
  spec.num_shards = static_cast<std::size_t>(cfg.get_int("num_shards", 50));
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  spec.learning_rate = cfg.get_double("learning_rate", spec.learning_rate);
  spec.data.difficulty = cfg.get_double("difficulty", spec.data.difficulty);
  spec.store = cfg.get_string("store", spec.store);
  return spec;
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "================================================================\n"
            << title << "\n"
            << "reproduces: " << paper_ref << "\n"
            << "================================================================\n";
}

/// Epoch-series table in the layout the paper's figures plot.
inline Table epoch_series_table() {
  return Table({"series", "epoch", "alpha", "hours", "mean_acc", "min_acc",
                "max_acc", "std_acc", "val_acc", "test_acc"});
}

inline void add_epoch_rows(Table& table, const std::string& series,
                           const TrainResult& result) {
  for (const auto& e : result.epochs) {
    table.add_row({series, Table::fmt(e.epoch), Table::fmt(e.alpha, 3),
                   Table::fmt(e.end_time / 3600.0, 3),
                   Table::fmt(e.mean_subtask_acc), Table::fmt(e.min_subtask_acc),
                   Table::fmt(e.max_subtask_acc), Table::fmt(e.std_subtask_acc),
                   Table::fmt(e.val_acc), Table::fmt(e.test_acc)});
  }
}

/// Exports `snapshot` as BENCH_obs.json (or `path`): its JSON wrapped with
/// bench identity. The training benches pass a run's TrainResult::metrics,
/// the snapshot of the run's own registry (obs/metrics.hpp).
inline void write_obs_json(const std::string& bench_name,
                           const obs::MetricsSnapshot& snapshot,
                           const std::string& path) {
  std::string metrics = snapshot.to_json();
  while (!metrics.empty() && metrics.back() == '\n') metrics.pop_back();
  std::ofstream out(path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"" << bench_name << "\",\n"
      << "  \"metrics\": " << metrics << "\n}\n";
  std::cout << "wrote " << path << "\n";
}

/// Merges one bench's shard-sweep results into BENCH_shard.json (or `path`)
/// under `section`, preserving the sections other bench binaries already
/// wrote — bench_fig2 and bench_fig3 both sweep param_shards ∈ {1,2,4,8} and
/// contribute to the same artifact in either order. `rows_json` is a complete
/// JSON array. The format contract that makes the merge possible without a
/// JSON parser: every section lives on exactly one line of the file
/// (`    "name": [...]`), so re-reading the sections back is a line scan.
inline void write_shard_json(const std::string& section,
                             const std::string& rows_json,
                             const std::string& path = "BENCH_shard.json") {
  std::map<std::string, std::string> sections;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("    \"", 0) != 0) continue;
      const auto key_end = line.find('"', 5);
      if (key_end == std::string::npos || line.size() < key_end + 3) continue;
      std::string value = line.substr(key_end + 3);
      if (!value.empty() && value.back() == ',') value.pop_back();
      sections[line.substr(5, key_end - 5)] = value;
    }
  }
  sections[section] = rows_json;
  std::ofstream out(path);
  out << "{\n  \"schema_version\": 1,\n  \"sections\": {\n";
  std::size_t i = 0;
  for (const auto& [name, value] : sections) {
    out << "    \"" << name << "\": " << value
        << (++i == sections.size() ? "\n" : ",\n");
  }
  out << "  }\n}\n";
  std::cout << "wrote " << path << " (section \"" << section << "\")\n";
}

inline void print_run_summary(const TrainResult& r) {
  std::cout << "  " << r.spec.label() << " alpha=" << r.spec.alpha
            << " store=" << r.spec.store << ": " << r.epochs.size()
            << " epochs in " << Table::fmt(r.totals.duration_s / 3600.0, 2)
            << " virtual hours, final mean_acc "
            << Table::fmt(r.final_epoch().mean_subtask_acc) << ", lost updates "
            << r.metrics.counter("store.lost_updates") << "/"
            << r.metrics.counter("store.writes") << ", timeouts "
            << r.metrics.counter("scheduler.failure.timeout") << "\n"
            << std::flush;  // redirected stdout shows each run as it ends
}

}  // namespace vcdl::bench
