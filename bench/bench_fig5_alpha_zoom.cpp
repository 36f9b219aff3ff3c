// Figure 5 — zoomed views of the Figure 4 α comparison.
//
// The paper zooms into a mid-training window and the end-of-training window
// to show (a) Var α overtaking the constants and (b) the spread ordering.
// This bench reads the series cached by bench_fig4_alpha (vcdl_fig4_series.csv)
// when available; otherwise it re-runs a reduced two-series comparison.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"

namespace {

struct Row {
  std::string series;
  std::size_t epoch;
  double hours, mean, min, max;
};

std::vector<Row> read_csv(const std::string& path) {
  std::vector<Row> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(ls, cell, ',')) cells.push_back(cell);
    if (cells.size() < 10) continue;
    rows.push_back(Row{cells[0], std::stoul(cells[1]), std::stod(cells[3]),
                       std::stod(cells[4]), std::stod(cells[5]),
                       std::stod(cells[6])});
  }
  return rows;
}

void print_window(const std::vector<Row>& rows, double lo_frac, double hi_frac,
                  const char* label) {
  double max_h = 0.0;
  for (const auto& r : rows) max_h = std::max(max_h, r.hours);
  const double lo = lo_frac * max_h, hi = hi_frac * max_h;
  std::cout << "\n--- " << label << " (" << vcdl::Table::fmt(lo, 2) << "–"
            << vcdl::Table::fmt(hi, 2) << " h) ---\n";
  vcdl::Table table({"series", "epoch", "hours", "mean_acc", "band"});
  for (const auto& r : rows) {
    if (r.hours < lo || r.hours > hi) continue;
    table.add_row({r.series, vcdl::Table::fmt(r.epoch),
                   vcdl::Table::fmt(r.hours, 2), vcdl::Table::fmt(r.mean, 4),
                   vcdl::Table::fmt_band(r.min, r.max, 3)});
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vcdl;
  const Config cfg = Config::from_args(argc, argv);
  bench::print_header("Figure 5 — zoomed views of the alpha comparison",
                      "Fig. 5 (mid-window and end-window of Fig. 4)");

  const std::string csv_path = cfg.get_string("csv", "vcdl_fig4_series.csv");
  std::vector<Row> rows = read_csv(csv_path);
  if (rows.empty()) {
    std::cout << "(no " << csv_path
              << " from bench_fig4_alpha; running reduced var-vs-0.95 sweep)\n";
    for (const char* alpha : {"0.95", "var"}) {
      ExperimentSpec spec = bench::base_spec(cfg, /*default_epochs=*/12);
      spec.parameter_servers = 3;
      spec.clients = 3;
      spec.tasks_per_client = 4;
      spec.alpha = alpha;
      const TrainResult r = run_experiment(spec);
      bench::print_run_summary(r);
      for (const auto& e : r.epochs) {
        rows.push_back(Row{std::string("alpha=") + alpha, e.epoch,
                           e.end_time / 3600.0, e.mean_subtask_acc,
                           e.min_subtask_acc, e.max_subtask_acc});
      }
    }
  }
  // Fig. 5a: mid-training window; Fig. 5b: end of training.
  print_window(rows, 0.45, 0.70, "Fig. 5(a) mid-training window");
  print_window(rows, 0.80, 1.00, "Fig. 5(b) end of training");
  return 0;
}
