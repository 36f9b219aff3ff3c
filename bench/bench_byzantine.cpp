// Byzantine benchmark — accuracy under attack, with and without consensus.
//
// Sweeps the byzantine fraction of the fleet (sign-flipping adversaries whose
// payloads are checksum-valid, sim/faults.hpp) over the same training job
// under two acceptance policies:
//
//   * first-valid   — the grid's default first-checksum-valid-wins with
//                     replication 3: redundancy without voting. An adversary
//                     that uploads first poisons the blend.
//   * quorum m=2/k=3 — BOINC majority validation (grid/consensus.hpp) plus
//                     the assimilator's blend outlier guard: replicas are
//                     held until 2-of-3 agree, outvoted replicas dent the
//                     liar's integrity reputation, and a wrong winner that
//                     slips through is rejected at the blend.
//
// The claim under test: with quorum the accuracy curve stays within noise of
// the no-adversary baseline up to fraction 1/3, while first-valid degrades
// monotonically. Writes BENCH_byzantine.json.
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_common.hpp"

namespace {

struct RunRow {
  std::string policy;
  double fraction = 0.0;
  double final_acc = 0.0;
  double val_acc = 0.0;
  double hours = 0.0;
  vcdl::obs::MetricsSnapshot metrics;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Byzantine — accuracy vs adversary fraction",
                      "BOINC majority validation vs first-valid-wins under "
                      "checksum-valid wrong results");

  const std::size_t epochs =
      static_cast<std::size_t>(cfg.get_int("epochs", 6));
  const std::size_t shards =
      static_cast<std::size_t>(cfg.get_int("num_shards", 12));
  // The paper's variable-α schedule trusts clients more as training
  // stabilizes — which also means a poisoned blend late in the run moves the
  // server visibly, so the attack shows up in the accuracy column.
  const std::string alpha = cfg.get_string("alpha", "var");
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  const double difficulty = cfg.get_double("difficulty", 0.35);
  const std::string json_path = cfg.get_string("out", "BENCH_byzantine.json");
  const std::string obs_path = cfg.get_string("obs_out", "BENCH_obs.json");
  cfg.reject_unread();

  const auto make_spec = [&](double fraction, bool quorum) {
    ExperimentSpec spec;
    spec.parameter_servers = 2;
    spec.clients = 6;
    spec.tasks_per_client = 2;
    spec.num_shards = shards;
    spec.max_epochs = epochs;
    spec.alpha = alpha;
    spec.seed = seed;
    spec.local_epochs = 2;
    spec.batch_size = 8;
    spec.validation_subsample = 64;
    // 12×12 data (the dims the difficulty knob is calibrated for) over a
    // slimmed model, scaled down and eased so the honest run converges well
    // clear of chance within a sweep that finishes in about a minute — the
    // bench needs an accuracy gap for the attack to destroy.
    spec.data.train = 60 * shards;
    spec.data.validation = 128;
    spec.data.test = 128;
    spec.data.difficulty = difficulty;
    spec.model.base_filters = 4;
    spec.model.blocks = 1;
    spec.replication = 3;
    spec.adversary.fraction = fraction;
    spec.adversary.mode = AttackMode::sign_flip;
    if (quorum) {
      spec.consensus.enabled = true;
      spec.consensus.quorum = 2;
      // Honest replicas of one unit start from different published versions,
      // so they agree only under a tolerance; a sign-flipped copy sits at
      // relative-L2 deviation ≈ 2, far outside it.
      spec.consensus.tolerance = 0.25;
      spec.blend_outlier_threshold = 1.0;
    }
    return spec;
  };

  std::vector<RunRow> rows;
  Table table({"policy", "fraction", "final acc", "val acc", "hours",
               "attacks", "quorums", "fallbacks", "outvoted", "blend rej"});
  double baseline_acc[2] = {0.0, 0.0};
  for (const bool quorum : {false, true}) {
    for (const double fraction : {0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5}) {
      const TrainResult r = run_experiment(make_spec(fraction, quorum));
      RunRow row;
      row.policy = quorum ? "quorum m=2/k=3" : "first-valid";
      row.fraction = fraction;
      row.final_acc = r.final_epoch().mean_subtask_acc;
      row.val_acc = r.final_epoch().val_acc;
      row.hours = r.totals.duration_s / 3600.0;
      row.metrics = r.metrics;
      if (fraction == 0.0) baseline_acc[quorum ? 1 : 0] = row.final_acc;
      rows.push_back(row);
      table.add_row({row.policy, Table::fmt(fraction, 3),
                     Table::fmt(row.final_acc, 3), Table::fmt(row.val_acc, 3),
                     Table::fmt(row.hours, 2),
                     Table::fmt(r.metrics.counter("faults.byzantine_result")),
                     Table::fmt(r.metrics.counter("consensus.quorum_promoted")),
                     Table::fmt(
                         r.metrics.counter("consensus.fallback_promoted")),
                     Table::fmt(
                         r.metrics.counter("consensus.results_outvoted")),
                     Table::fmt(
                         r.metrics.counter("consensus.blend_rejected"))});
    }
  }
  table.print(std::cout);
  std::cout << "(first-valid baseline " << Table::fmt(baseline_acc[0], 3)
            << ", quorum baseline " << Table::fmt(baseline_acc[1], 3)
            << " — the quorum curve should hug its baseline through fraction "
               "1/3 while first-valid falls away; at 1/2 the byzantine half "
               "can out-vote honest pairs and only the blend guard is left)\n";

  // Stable schema: schema_version bumps on any key change.
  std::ofstream out(json_path);
  out << "{\n"
      << "  \"schema_version\": 1,\n"
      << "  \"bench\": \"byzantine\",\n"
      << "  \"attack\": \"sign_flip\",\n"
      << "  \"replication\": 3,\n"
      << "  \"quorum\": 2,\n"
      << "  \"epochs\": " << epochs << ",\n"
      << "  \"num_shards\": " << shards << ",\n"
      << "  \"alpha\": \"" << alpha << "\",\n"
      << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RunRow& r = rows[i];
    out << "    {\"policy\": \"" << r.policy << "\""
        << ", \"fraction\": " << r.fraction
        << ", \"final_acc\": " << r.final_acc
        << ", \"val_acc\": " << r.val_acc << ", \"hours\": " << r.hours
        << ", \"byzantine_attacks\": "
        << r.metrics.counter("faults.byzantine_result")
        << ", \"consensus_quorums\": "
        << r.metrics.counter("consensus.quorum_promoted")
        << ", \"consensus_fallbacks\": "
        << r.metrics.counter("consensus.fallback_promoted")
        << ", \"results_outvoted\": "
        << r.metrics.counter("consensus.results_outvoted")
        << ", \"blend_rejections\": "
        << r.metrics.counter("consensus.blend_rejected") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << json_path << "\n";

  // Telemetry of the last (heaviest-attack, full-defense) run: consensus.*
  // counters alongside the usual grid/fault taxonomies.
  bench::write_obs_json("byzantine", rows.back().metrics, obs_path);
  return 0;
}
