// Model evaluation helpers over datasets.
//
// Each helper takes an ExecContext, so a caller that owns a worker pool —
// a training run, for its epoch-end evaluation and the assimilator's
// validations — threads it through the model's forward passes;
// serial_exec_context() runs without one.
#pragma once

#include <cstddef>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"

namespace vcdl {

/// Classification accuracy of `model` on the whole dataset (batched).
double evaluate_accuracy(Model& model, const Dataset& ds, ExecContext& ctx,
                         std::size_t batch_size = 64);

/// Accuracy on a fixed-size random subsample (used by parameter servers to
/// keep per-assimilation validation cheap; 0 or >= ds.size() = full set).
double evaluate_accuracy_subsample(Model& model, const Dataset& ds,
                                   std::size_t subsample, Rng& rng,
                                   ExecContext& ctx,
                                   std::size_t batch_size = 64);

}  // namespace vcdl
