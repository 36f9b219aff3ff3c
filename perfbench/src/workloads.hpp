// The benchmark's workloads. Each returns the run's Outcome: end-to-end
// metrics (args.trace == false) or the traced per-layer table (true).
#pragma once

#include <string>

#include "harness.hpp"

namespace perfbench {

/// image_p3c3t4 and ts_p5c5t2_delta: fixed-work VC-ASGD training runs
/// through vcdl::run_experiment, traced by replaying each layer's public
/// entry points at the run's shapes.
bool is_training_workload(const std::string& name);
Outcome run_training_workload(const Args& args);

/// fleet_churn: a 100k-client join/leave churn scenario on SimEngine +
/// Scheduler with no training; the traced pass wraps the real calls.
Outcome run_fleet_workload(const Args& args);

}  // namespace perfbench
