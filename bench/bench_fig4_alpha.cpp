// Figures 4 and 5 — effect of the VC-ASGD hyperparameter α at P3C3T4.
//
// Runs α ∈ {0.7, 0.95, 0.999, Var} and prints each series with the min/max
// accuracy band across the 50 subtasks of every epoch (the paper's error
// bars). Expected shape (§IV-C):
//   * α = 0.7 rises fastest early but plateaus; α = 0.95 overtakes it in
//     later epochs;
//   * α = 0.999 (the EASGD-with-moving-rate-0.001 analogue) barely trains;
//   * accuracy spread ordering: 0.7 > 0.95 > Var > 0.999;
//   * Var (α_e = e/(e+1)) trains faster than constant 0.95 with a smaller
//     spread than either constant.
//
// Then prints Fig. 5's zoomed views of the same four runs: a mid-training
// window, where Var α overtakes the constants, and the end-of-training
// window, which shows the spread ordering.
#include <algorithm>
#include <iostream>

#include "bench_common.hpp"

namespace {

// Prints every epoch whose end lies within [lo_frac, hi_frac] of the longest
// run's virtual hours, series by series.
void print_window(const std::vector<vcdl::TrainResult>& results,
                  double lo_frac, double hi_frac, const char* label) {
  double max_h = 0.0;
  for (const auto& r : results) {
    for (const auto& e : r.epochs) max_h = std::max(max_h, e.end_time / 3600.0);
  }
  const double lo = lo_frac * max_h, hi = hi_frac * max_h;
  std::cout << "\n--- " << label << " (" << vcdl::Table::fmt(lo, 2) << "–"
            << vcdl::Table::fmt(hi, 2) << " h) ---\n";
  vcdl::Table table({"series", "epoch", "hours", "mean_acc", "band"});
  for (const auto& r : results) {
    for (const auto& e : r.epochs) {
      const double hours = e.end_time / 3600.0;
      if (hours < lo || hours > hi) continue;
      table.add_row({"alpha=" + r.spec.alpha, vcdl::Table::fmt(e.epoch),
                     vcdl::Table::fmt(hours, 2),
                     vcdl::Table::fmt(e.mean_subtask_acc, 4),
                     vcdl::Table::fmt_band(e.min_subtask_acc,
                                           e.max_subtask_acc, 3)});
    }
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 4 — VC-ASGD alpha sweep at P3C3T4",
                      "Fig. 4 (alpha in {0.7, 0.95, 0.999, var})");
  const ExperimentSpec base = bench::base_spec(cfg, /*default_epochs=*/16);
  cfg.reject_unread();

  const char* alphas[] = {"0.7", "0.95", "0.999", "var"};
  Table table = bench::epoch_series_table();
  std::vector<TrainResult> results;
  for (const char* alpha : alphas) {
    ExperimentSpec spec = base;
    spec.parameter_servers = 3;
    spec.clients = 3;
    spec.tasks_per_client = 4;
    spec.alpha = alpha;
    const TrainResult r = run_experiment(spec);
    bench::print_run_summary(r);
    bench::add_epoch_rows(table, std::string("alpha=") + alpha, r);
    results.push_back(r);
  }
  std::cout << "\n";
  table.print(std::cout);

  // Spread summary (the paper's error-bar comparison).
  std::cout << "\nMean accuracy spread (max-min across subtasks, averaged over"
               " the last half of training):\n";
  for (const auto& r : results) {
    double spread = 0.0;
    std::size_t n = 0;
    for (std::size_t i = r.epochs.size() / 2; i < r.epochs.size(); ++i) {
      spread += r.epochs[i].max_subtask_acc - r.epochs[i].min_subtask_acc;
      ++n;
    }
    std::cout << "  alpha=" << r.spec.alpha << ": "
              << Table::fmt(spread / static_cast<double>(n), 3) << "\n";
  }

  // Fig. 5(a): mid-training window; Fig. 5(b): end of training.
  print_window(results, 0.45, 0.70, "Fig. 5(a) mid-training window");
  print_window(results, 0.80, 1.00, "Fig. 5(b) end of training");
  return 0;
}
