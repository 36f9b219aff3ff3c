// §IV-E — impact of preemptible instances.
//
// Three parts:
//   1. Cost: the P5C5T2 fleet priced standard vs preemptible for an 8 h run
//      (paper: $13.4 vs $4, 70 % saved).
//   2. The paper's binomial timeout model: expected training-time increase
//      n·p·t_o for p ∈ {0.05, 0.10, 0.15, 0.20} (paper: +50 min at p=0.05,
//      +200 min at p=0.20).
//   3. Fault injection: the same training job run on a reliable fleet and on
//      preemptible fleets with increasing interruption rates — measured
//      slowdown vs the analytic expectation.
#include <iostream>

#include "bench_common.hpp"
#include "sim/cost.hpp"
#include "sim/preemption.hpp"

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Section IV-E — preemptible instances",
                      "§IV-E (cost savings + binomial delay model + injection)");
  const ExperimentSpec base = bench::base_spec(cfg, /*default_epochs=*/6);
  cfg.reject_unread();

  // 1. Fleet cost.
  const FleetCatalog cat = table1_catalog();
  const auto fleet = make_client_fleet(cat, 5, true, 0.05);
  CostLedger ledger;
  for (const auto& t : fleet) ledger.add_usage(t, sim_hours(8.0));
  Table cost({"fleet", "hourly", "8-hour run"});
  cost.add_row({"standard",
                "$" + Table::fmt(CostLedger::fleet_hourly_standard(fleet), 2),
                "$" + Table::fmt(ledger.standard_cost_usd(), 1)});
  cost.add_row({"preemptible",
                "$" + Table::fmt(CostLedger::fleet_hourly_preemptible(fleet), 2),
                "$" + Table::fmt(ledger.preemptible_cost_usd(), 1)});
  cost.print(std::cout);
  std::cout << "savings: " << Table::fmt(ledger.savings_fraction() * 100.0, 0)
            << "% (paper: $1.67 vs $0.50/hr, $13.4 vs $4, 70%)\n\n";

  // 2. Binomial delay model.
  Table model({"p (termination)", "expected timeouts n*p",
               "expected increase n*p*t_o"});
  for (const double p : {0.05, 0.10, 0.15, 0.20}) {
    BinomialDelayModel m;  // paper defaults: n_s=2000, n_c=5, n_tc=2, t_o=5min
    m.termination_probability = p;
    model.add_row({Table::fmt(p, 2), Table::fmt(m.expected_timeouts(), 1),
                   Table::fmt(m.expected_increase() / 60.0, 0) + " min"});
  }
  model.print(std::cout);
  std::cout << "(paper: +50 min at p=0.05, +200 min at p=0.20)\n\n";

  // 3. Fault injection on the real system.
  std::cout << "Fault injection (P5C5T2, var alpha), measured in the DES:\n";
  Table inject({"fleet", "interruptions/h", "hours", "slowdown", "preemptions",
                "timeouts", "final acc"});
  double baseline_h = 0.0;
  for (const double rate : {0.0, 0.05, 0.25, 1.0}) {
    ExperimentSpec spec = base;
    spec.parameter_servers = 5;
    spec.clients = 5;
    spec.tasks_per_client = 2;
    spec.alpha = "var";
    spec.preemptible = rate > 0.0;
    spec.interruption_per_hour = rate;
    const TrainResult r = run_experiment(spec);
    bench::print_run_summary(r);
    const double hours = r.totals.duration_s / 3600.0;
    if (rate == 0.0) baseline_h = hours;
    inject.add_row({rate == 0.0 ? "standard" : "preemptible",
                    Table::fmt(rate, 2), Table::fmt(hours, 2),
                    Table::fmt(hours / baseline_h, 2) + "x",
                    Table::fmt(r.metrics.counter("client.preemptions")),
                    Table::fmt(r.metrics.counter("scheduler.failure.timeout")),
                    Table::fmt(r.final_epoch().mean_subtask_acc, 3)});
  }
  std::cout << "\n";
  inject.print(std::cout);
  std::cout << "(the paper saw no interruptions during its 8 h run at <5% "
               "monthly rates; higher rates cost n*p*t_o-style delay but the "
               "job still completes — that is the fault-tolerance claim)\n";
  return 0;
}
