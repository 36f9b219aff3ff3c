// Equivalence oracles: metamorphic properties of the whole system.
//
// Each oracle states that two different execution paths must compute the
// same thing, so neither path needs hand-maintained expected values:
//
//   * serial vs pooled — one training step with an N-thread ExecContext
//     gives the serial path's forward outputs and gradients bit for bit (see
//     tensor/exec_context.hpp for the contract);
//   * VC-ASGD vs SGD — a P1C1T1 run with α = 0 publishes exactly the last
//     client's parameters (server·0 + client·1), so replaying its subtasks
//     as plain serial SGD reproduces the run's final parameters exactly;
//   * checkpoint save/restore vs uninterrupted run — covered in
//     tests/test_equivalence.cpp: a run's checkpoint rewinds its subtask
//     counter with the params.
//
// Also hosts the miniature-job helpers the threading / integration /
// equivalence suites previously duplicated per file.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/job.hpp"
#include "nn/model.hpp"
#include "sim/trace.hpp"
#include "tensor/exec_context.hpp"

namespace vcdl::testing {

/// The miniature end-to-end job shared by the threading, integration and
/// equivalence suites: P2C2T2, 8 shards of a 160-image 8x8 dataset, 2
/// epochs. The golden serial values in test_exec_threading.cpp are pinned to
/// THIS spec — changing any field invalidates them.
ExperimentSpec tiny_image_spec(bool trace = false);

/// The matching miniature ResNet (3x8x8 input, 4 base filters, 1 block).
Model tiny_resnet(std::uint64_t seed);

/// Replays a completed P1C1T1 α=0 run as plain serial SGD and returns the
/// final parameter vector, which must equal the run's
/// TrainResult::final_params exactly (no tolerance). `trace` is the run's
/// trace (spec.trace must have been true); the replay consumes its
/// exec_start events in order, reproducing the trainer's RNG stream
/// discipline draw for draw.
std::vector<float> serial_vcasgd_reference(const ExperimentSpec& spec,
                                           const TraceLog& trace);

}  // namespace vcdl::testing
