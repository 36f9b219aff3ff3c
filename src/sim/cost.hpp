// Fleet cost accounting (§IV-E).
//
// Tracks instance-hours per instance type and prices a run under standard
// vs preemptible billing, producing the paper's "fleet costs $1.67/hr
// standard, $0.50/hr preemptible; $13.4 vs $4 for an 8 h run; 70 % saved"
// style rows.
#pragma once

#include <string>
#include <vector>

#include "sim/instance.hpp"

namespace vcdl {

class CostLedger {
 public:
  /// Registers usage of `instance` for `seconds` of simulated time.
  void add_usage(const InstanceType& instance, SimTime seconds);

  /// Fleet cost at standard (on-demand) prices.
  double standard_cost_usd() const;
  /// Fleet cost at preemptible prices (per-type discounts applied).
  double preemptible_cost_usd() const;
  /// 1 − preemptible/standard, in [0, 1].
  double savings_fraction() const;

  /// Hourly burn rates for a set of instances, independent of a run.
  static double fleet_hourly_standard(const std::vector<InstanceType>& fleet);
  static double fleet_hourly_preemptible(const std::vector<InstanceType>& fleet);

 private:
  struct Usage {
    InstanceType type;
    SimTime seconds = 0.0;
  };
  std::vector<Usage> usage_;
};

}  // namespace vcdl
