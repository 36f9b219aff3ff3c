#include "sim/cost.hpp"

namespace vcdl {

void CostLedger::add_usage(const InstanceType& instance, SimTime seconds) {
  VCDL_CHECK(seconds >= 0.0, "CostLedger: negative usage");
  for (auto& u : usage_) {
    if (u.type.name == instance.name) {
      u.seconds += seconds;
      return;
    }
  }
  usage_.push_back(Usage{instance, seconds});
}

double CostLedger::standard_cost_usd() const {
  double usd = 0.0;
  for (const auto& u : usage_) usd += u.type.hourly_usd * u.seconds / 3600.0;
  return usd;
}

double CostLedger::preemptible_cost_usd() const {
  double usd = 0.0;
  for (const auto& u : usage_) {
    usd += u.type.preemptible_hourly_usd() * u.seconds / 3600.0;
  }
  return usd;
}

double CostLedger::savings_fraction() const {
  const double std_cost = standard_cost_usd();
  if (std_cost <= 0.0) return 0.0;
  return 1.0 - preemptible_cost_usd() / std_cost;
}

double CostLedger::fleet_hourly_standard(const std::vector<InstanceType>& fleet) {
  double usd = 0.0;
  for (const auto& t : fleet) usd += t.hourly_usd;
  return usd;
}

double CostLedger::fleet_hourly_preemptible(
    const std::vector<InstanceType>& fleet) {
  double usd = 0.0;
  for (const auto& t : fleet) usd += t.preemptible_hourly_usd();
  return usd;
}

}  // namespace vcdl
