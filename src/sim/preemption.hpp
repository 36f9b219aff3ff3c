// Preemptible-instance interruption model (§IV-E).
//
// Two complementary views:
//  * `PreemptionProcess` — a Poisson interruption process per instance used
//    by the DES to actually kill clients mid-run (fault injection);
//  * `BinomialDelayModel` — the paper's closed-form expectation: subtask
//    slots are Bernoulli trials with termination probability p, a timed-out
//    subtask costs an extra t_o, so the expected training-time increase is
//    n·p·t_o with n = n_s / (n_c · n_tc).
#pragma once

#include "common/rng.hpp"
#include "sim/engine.hpp"

namespace vcdl {

struct PreemptionProcess {
  double interruptions_per_hour = 0.0;  // Poisson rate λ
  SimTime downtime_s = 120.0;           // replacement lead time

  /// Time until the next interruption (exponential), or +inf when rate == 0.
  SimTime sample_next(Rng& rng) const;
};

/// The paper's §IV-E analytic model.
struct BinomialDelayModel {
  std::size_t total_subtasks = 2000;       // n_s = epochs × subtasks/epoch
  std::size_t clients = 5;                 // n_c
  std::size_t subtasks_per_client = 2;     // n_tc
  double termination_probability = 0.05;   // p
  SimTime timeout_s = 300.0;               // t_o (5 min in the paper)

  /// n = n_s / (n_c × n_tc): the number of slots that can accrue a timeout.
  double slots() const;
  /// Expected number of timed-out slots, n·p.
  double expected_timeouts() const;
  /// Expected increase in training time, n·p·t_o.
  SimTime expected_increase() const;
};

}  // namespace vcdl
