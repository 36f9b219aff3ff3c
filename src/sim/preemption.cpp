#include "sim/preemption.hpp"

#include <limits>

namespace vcdl {

SimTime PreemptionProcess::sample_next(Rng& rng) const {
  if (interruptions_per_hour <= 0.0) {
    return std::numeric_limits<SimTime>::infinity();
  }
  return rng.exponential(interruptions_per_hour / 3600.0);
}

double BinomialDelayModel::slots() const {
  VCDL_CHECK(clients > 0 && subtasks_per_client > 0,
             "BinomialDelayModel: zero clients or slots");
  return static_cast<double>(total_subtasks) /
         (static_cast<double>(clients) *
          static_cast<double>(subtasks_per_client));
}

double BinomialDelayModel::expected_timeouts() const {
  return slots() * termination_probability;
}

SimTime BinomialDelayModel::expected_increase() const {
  return expected_timeouts() * timeout_s;
}

}  // namespace vcdl
