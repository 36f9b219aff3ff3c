// Figure 6 — validation and test accuracy: distributed vs single instance.
//
// Left panel: validation accuracy of distributed P5C5T2 (Var α) against the
// serial synchronous single-instance baseline; right panel: test accuracy.
// Expected shape (§IV-C, Fig. 6):
//   * the serial curve sits above the distributed curve at equal time;
//   * the gap narrows as training proceeds;
//   * test accuracy evolves like validation accuracy for both;
//   * the distributed curve is smoother (less epoch-to-epoch fluctuation).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/baselines/serial.hpp"

namespace {

// Mean |Δacc| between consecutive epochs — the paper's smoothness argument.
double fluctuation(const std::vector<vcdl::EpochStats>& epochs) {
  double total = 0.0;
  for (std::size_t i = 1; i < epochs.size(); ++i) {
    total += std::abs(epochs[i].val_acc - epochs[i - 1].val_acc);
  }
  return epochs.size() > 1 ? total / static_cast<double>(epochs.size() - 1) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header(
      "Figure 6 — distributed (P5C5T2, var alpha) vs single-instance serial",
      "Fig. 6 (validation left, test right)");

  ExperimentSpec dist_spec = bench::base_spec(cfg, /*default_epochs=*/12);
  cfg.reject_unread();
  dist_spec.parameter_servers = 5;
  dist_spec.clients = 5;
  dist_spec.tasks_per_client = 2;
  dist_spec.alpha = "var";
  const TrainResult dist = run_experiment(dist_spec);
  bench::print_run_summary(dist);

  SerialSpec serial_spec;
  serial_spec.data = dist_spec.data;
  serial_spec.model = dist_spec.model;
  serial_spec.batch_size = dist_spec.batch_size;
  serial_spec.learning_rate = dist_spec.learning_rate;
  serial_spec.seed = dist_spec.seed;
  serial_spec.work_per_epoch =
      static_cast<double>(dist_spec.num_shards) * dist_spec.work_per_subtask /
      static_cast<double>(dist_spec.local_epochs);
  // Run serial for the same virtual time budget as the distributed job.
  const SerialResult probe = run_serial_baseline(
      [&] {
        SerialSpec s = serial_spec;
        s.max_epochs = 1;
        return s;
      }());
  const double serial_epoch_s = probe.duration_s;
  serial_spec.max_epochs = std::max<std::size_t>(
      2, static_cast<std::size_t>(dist.totals.duration_s / serial_epoch_s));
  const SerialResult serial = run_serial_baseline(serial_spec);
  std::cout << "  serial single-instance: " << serial.epochs.size()
            << " epochs in " << Table::fmt(serial.duration_s / 3600.0, 2)
            << " virtual hours, final val acc "
            << Table::fmt(serial.epochs.back().val_acc, 3) << "\n\n";

  Table table({"series", "epoch", "hours", "val_acc", "test_acc"});
  for (const auto& e : dist.epochs) {
    table.add_row({"distributed", Table::fmt(e.epoch),
                   Table::fmt(e.end_time / 3600.0, 2), Table::fmt(e.val_acc),
                   Table::fmt(e.test_acc)});
  }
  for (const auto& e : serial.epochs) {
    table.add_row({"single-instance", Table::fmt(e.epoch),
                   Table::fmt(e.end_time / 3600.0, 2), Table::fmt(e.val_acc),
                   Table::fmt(e.test_acc)});
  }
  table.print(std::cout);

  // The paper's three observations, quantified.
  const auto& dl = dist.epochs.back();
  const auto& sl = serial.epochs.back();
  std::cout << "\nAt end of run (" << Table::fmt(dist.totals.duration_s / 3600.0, 2)
            << " h): distributed val " << Table::fmt(dl.val_acc, 3)
            << " vs serial val " << Table::fmt(sl.val_acc, 3)
            << " (paper at 8.4 h: 0.73 vs 0.82)\n";
  const std::size_t mid = dist.epochs.size() / 2;
  const double gap_mid = serial.epochs[std::min(mid, serial.epochs.size() - 1)]
                             .val_acc - dist.epochs[mid].val_acc;
  const double gap_end = sl.val_acc - dl.val_acc;
  std::cout << "Accuracy gap mid-run " << Table::fmt(gap_mid, 3)
            << " -> end-of-run " << Table::fmt(gap_end, 3)
            << (gap_end < gap_mid ? " (narrowing, as in the paper)"
                                  : " (not narrowing)")
            << "\n";
  std::cout << "Epoch-to-epoch fluctuation: distributed "
            << Table::fmt(fluctuation(dist.epochs), 4) << " vs serial "
            << Table::fmt(fluctuation(serial.epochs), 4)
            << " (distributed smoother in the paper)\n";
  std::cout << "Validation-test gap at end: distributed "
            << Table::fmt(std::abs(dl.val_acc - dl.test_acc), 3) << ", serial "
            << Table::fmt(std::abs(sl.val_acc - sl.test_acc), 3) << "\n";
  return 0;
}
