// Byzantine demo: a third of the fleet lies, the job converges anyway.
//
// Two of six volunteers are sign-flipping adversaries: their uploads pass
// every checksum — only the parameter values are wrong. The defense stack
// catches them end to end: each workunit is replicated to three clients,
// the consensus buffer holds uploads until two replicas agree (tolerance
// equivalence — honest replicas are never bit-identical), outvoted replicas
// dent the liar's integrity reputation, adaptive replication keeps trusted
// clients on cheap solo grants (with spot-check audits) while the
// now-distrusted adversaries always face a voting quorum, and the blend
// outlier guard backstops anything that still slips through.
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t epochs =
      static_cast<std::size_t>(cfg.get_int("max_epochs", 4));

  std::cout << "Byzantine fleet demo (P2C6T2, " << epochs << " epochs)\n"
            << "adversaries: 2 of 6 clients sign-flip every result\n"
            << "defense: replication 3, consensus 2-of-3, adaptive "
               "replication, blend guard\n\n";

  ExperimentSpec spec;
  spec.parameter_servers = 2;
  spec.clients = 6;
  spec.tasks_per_client = 2;
  spec.num_shards = 12;
  spec.max_epochs = epochs;
  spec.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  cfg.reject_unread();
  spec.alpha = "var";
  spec.trace = true;

  // Scaled-down substitute workload (seconds per epoch; same preset as
  // bench_byzantine so the demo's accuracy is comparable to its curves).
  spec.local_epochs = 2;
  spec.batch_size = 8;
  spec.validation_subsample = 64;
  spec.data.train = 60 * spec.num_shards;
  spec.data.validation = 128;
  spec.data.test = 128;
  spec.data.difficulty = 0.35;
  spec.model.base_filters = 4;
  spec.model.blocks = 1;

  // The attack and the whole defense stack.
  spec.adversary.fraction = 1.0 / 3.0;
  spec.adversary.mode = AttackMode::sign_flip;
  spec.replication = 3;
  spec.consensus.enabled = true;
  spec.consensus.quorum = 2;
  spec.consensus.tolerance = 0.25;
  spec.adaptive_replication = true;
  spec.adaptive_trust_threshold = 0.7;
  spec.adaptive_untrusted_replication = 3;
  spec.adaptive_spot_check_prob = 0.25;
  spec.blend_outlier_threshold = 1.0;

  VcTrainer trainer(spec);
  const TrainResult r = trainer.run();

  Table epochs_table({"epoch", "hours", "mean_acc", "val_acc"});
  for (const auto& e : r.epochs) {
    epochs_table.add_row({Table::fmt(e.epoch),
                          Table::fmt(e.end_time / 3600.0, 2),
                          Table::fmt(e.mean_subtask_acc, 3),
                          Table::fmt(e.val_acc, 3)});
  }
  epochs_table.print(std::cout);

  const TraceLog& trace = trainer.trace();
  std::cout << "\nAttack / defense ledger:\n";
  Table ledger({"event", "count"});
  ledger.add_row({"byzantine payloads sent",
                  Table::fmt(r.metrics.counter("faults.byzantine_result"))});
  ledger.add_row({"replicas held for voting",
                  Table::fmt(trace.count(TraceKind::consensus_held))});
  ledger.add_row({"quorum promotions (2-of-3 agreed)",
                  Table::fmt(r.metrics.counter("consensus.quorum_promoted"))});
  ledger.add_row({"plurality fallbacks (deadline)",
                  Table::fmt(
                      r.metrics.counter("consensus.fallback_promoted"))});
  ledger.add_row({"replicas outvoted",
                  Table::fmt(r.metrics.counter("consensus.results_outvoted"))});
  ledger.add_row({"blend outliers rejected",
                  Table::fmt(r.metrics.counter("consensus.blend_rejected"))});
  ledger.add_row({"adaptive solo grants (trusted)",
                  Table::fmt(r.metrics.counters.at("consensus.solo_grants"))});
  ledger.add_row({"adaptive spot-check audits",
                  Table::fmt(r.metrics.counter("consensus.spot_checks"))});
  ledger.print(std::cout);

  std::cout << "\nReading: the lying replicas were outvoted by their honest "
               "peers (and the blend guard mopped up the few that won a "
               "colluding quorum) — the liars' integrity reputation collapsed "
               "while honest clients earned solo grants, and accuracy kept "
               "climbing. Computational redundancy plus majority validation "
               "is exactly BOINC's answer to untrusted volunteers.\n";
  return 0;
}
