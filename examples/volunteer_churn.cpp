// True volunteer computing: training on machines that come and go (§II).
//
// The paper replaces untrusted volunteer devices with preemptible cloud
// instances, but the middleware was designed for the original setting:
// "volunteer computers may join or leave projects at will, and users may
// start or shutdown their devices any time" (§II-C). This example trains the
// same job on three fleets —
//   * a reliable cloud fleet,
//   * a preemptible cloud fleet (the paper's setting), and
//   * a volunteer fleet with home-desktop / laptop duty cycles —
// and compares time, disruption and delivered accuracy. The deadline-driven
// scheduler recovers lost work in all three; only the time-to-finish differs.
#include <iostream>

#include "common/config.hpp"
#include "common/table.hpp"
#include "core/trainer.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  const std::size_t epochs = static_cast<std::size_t>(cfg.get_int("max_epochs", 4));
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 7));
  cfg.reject_unread();

  struct FleetKind {
    const char* name;
    bool preemptible;
    double interruption_per_hour;
    AvailabilityModel availability;
  };
  const FleetKind fleets[] = {
      {"reliable cloud", false, 0.0, AvailabilityModel::always_on()},
      {"preemptible cloud", true, 0.5, AvailabilityModel::always_on()},
      {"volunteer desktops", false, 0.0, AvailabilityModel::home_desktop()},
      {"volunteer laptops", false, 0.0, AvailabilityModel::laptop()},
  };

  std::cout << "Same job (" << epochs << " epochs, P3C4T2, var alpha) on four"
            << " fleets:\n\n";
  Table table({"fleet", "duty cycle", "hours", "final acc", "churn events",
               "timeouts"});
  for (const auto& fleet : fleets) {
    ExperimentSpec spec;
    spec.parameter_servers = 3;
    spec.clients = 4;
    spec.tasks_per_client = 2;
    spec.alpha = "var";
    spec.max_epochs = epochs;
    spec.preemptible = fleet.preemptible;
    spec.interruption_per_hour = fleet.interruption_per_hour;
    spec.availability = fleet.availability;
    spec.subtask_timeout_s = 300.0;
    spec.seed = seed;
    spec.trace = true;
    VcTrainer trainer(spec);
    const TrainResult r = trainer.run();
    const std::size_t churn = trainer.trace().count(TraceKind::preempted);
    table.add_row({fleet.name,
                   Table::fmt(fleet.availability.duty_cycle() * 100.0, 0) + "%",
                   Table::fmt(r.totals.duration_s / 3600.0, 2),
                   Table::fmt(r.final_epoch().mean_subtask_acc, 3),
                   Table::fmt(churn),
                   Table::fmt(r.metrics.counter("scheduler.failure.timeout"))});
    std::cout << "  " << fleet.name << " done\n";
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nReading: churn slows training (each lost subtask costs up to"
               " one timeout period) but never blocks it — the scheduler"
               " reassigns lost work, exactly the fault-tolerance design of"
               " §III-B. Volunteer fleets also keep their sticky caches across"
               " sessions, unlike replaced preemptible instances.\n";
  return 0;
}
