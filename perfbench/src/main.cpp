// vcdl_perfbench — the repository benchmark binary.
//
//   vcdl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: image_p3c3t4, ts_p5c5t2_delta, fleet_churn (METRICS.md says
// why each was chosen and which layer metric should move which end-to-end
// metric). With --trace 0 it prints the end-to-end metrics, with --trace 1
// the per-layer table of a separate traced pass. The last stdout line is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "vcdl_perfbench: " << why
            << "\nusage: vcdl_perfbench --workload <image_p3c3t4|"
               "ts_p5c5t2_delta|fleet_churn> --seed <n> --seconds <s> "
               "--trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + key);
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else {
        return usage("unknown argument " + key);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + key + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(args.seconds > 0.0)) return usage("--seconds must be positive");

  perfbench::Outcome outcome;
  if (perfbench::is_training_workload(args.workload)) {
    outcome = perfbench::run_training_workload(args);
  } else if (args.workload == "fleet_churn") {
    outcome = perfbench::run_fleet_workload(args);
  } else {
    return usage("unknown workload " + args.workload);
  }
  for (const std::string& e : outcome.errors) {
    std::cout << "ERROR " << e << "\n";
    std::cerr << "[perfbench] ERROR " << e << "\n";
  }
  perfbench::print_result_line(outcome);
  return 0;
}
