// Comparing VC-ASGD against the cluster-paradigm schemes it replaces.
//
// §II-B/§III-C argue that Downpour SGD and EASGD assume clients that never
// disappear. This example trains the same model with all three schemes,
// then repeats Downpour and EASGD with a worker that dies mid-run — the
// situation a volunteer-computing fleet produces constantly — and shows that
// only VC-ASGD is indifferent to it (the scheduler reassigns the lost work).
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/baselines/downpour.hpp"
#include "core/baselines/easgd.hpp"
#include "core/trainer.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t epochs = static_cast<std::size_t>(cfg.get_int("max_epochs", 6));
  const std::uint64_t seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  cfg.reject_unread();

  Table table({"scheme", "faults", "final val acc", "notes"});

  // VC-ASGD, healthy and with aggressive preemptions.
  for (const bool faulty : {false, true}) {
    ExperimentSpec spec;
    spec.parameter_servers = 3;
    spec.clients = 4;
    spec.tasks_per_client = 2;
    spec.alpha = "var";
    spec.max_epochs = epochs;
    spec.seed = seed;
    spec.preemptible = faulty;
    spec.interruption_per_hour = faulty ? 1.0 : 0.0;
    const TrainResult r = run_experiment(spec);
    table.add_row({"VC-ASGD", faulty ? "preemptions" : "none",
                   Table::fmt(r.final_epoch().val_acc, 3),
                   faulty ? Table::fmt(
                                r.metrics.counter("client.preemptions")) +
                                " preemptions, work reassigned"
                          : "-"});
    std::cout << "  VC-ASGD" << (faulty ? " (faulty)" : "") << " done\n";
  }

  // Downpour, healthy and with a dead worker.
  for (const bool faulty : {false, true}) {
    DownpourSpec spec;
    spec.workers = 4;
    spec.max_epochs = epochs;
    spec.batch_size = 10;
    spec.learning_rate = 3e-3;
    spec.seed = seed;
    if (faulty) {
      spec.fail_worker = 0;
      spec.fail_after_epoch = 1;
    }
    const DownpourResult r = run_downpour_baseline(spec);
    table.add_row({"Downpour SGD", faulty ? "worker 0 dies" : "none",
                   Table::fmt(r.epochs.back().val_acc, 3),
                   faulty ? "its data share silently stops training" : "-"});
    std::cout << "  Downpour" << (faulty ? " (faulty)" : "") << " done\n";
  }

  // EASGD, healthy and with a dead worker.
  for (const bool faulty : {false, true}) {
    EasgdSpec spec;
    spec.workers = 4;
    spec.max_epochs = epochs;
    spec.batch_size = 10;
    spec.tau = 2;
    spec.moving_rate = 0.3;
    spec.learning_rate = 3e-3;
    spec.seed = seed;
    if (faulty) {
      spec.fail_worker = 0;
      spec.fail_after_epoch = 1;
    }
    const EasgdResult r = run_easgd_baseline(spec);
    table.add_row({"EASGD", faulty ? "worker 0 dies" : "none",
                   Table::fmt(r.epochs.back().val_acc, 3),
                   faulty ? "elastic average loses a participant" : "-"});
    std::cout << "  EASGD" << (faulty ? " (faulty)" : "") << " done\n";
  }

  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\n(The cluster schemes run at nominal epoch granularity; the "
               "VC-ASGD rows come from the full grid simulation. The point is "
               "the *faults* column: only VC-ASGD recovers lost work.)\n";
  return 0;
}
