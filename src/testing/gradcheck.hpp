// Universal finite-difference gradient checking.
//
// One checker covers every registered layer kind: it evaluates the scalar
// objective J(θ, x) = Σ w ⊙ layer(x) for a fixed random direction w, and
// compares the analytic dJ/dθ and dJ/dx from backward() against central
// differences. Every evaluation runs on a FRESH clone of the layer under
// test, which verifies clone fidelity for free: if clone() forgot a
// parameter or hyperparameter, the FD evaluations differentiate a different
// function than the analytic pass and the check fails.
//
// Piecewise-linear layers (ReLU, MaxPool2D) are checked on "separated"
// inputs (generators.hpp) whose entries keep all FD perturbations on one
// side of every kink and argmax tie.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/layer.hpp"
#include "tensor/tensor.hpp"

namespace vcdl::testing {

struct GradCheckConfig {
  /// Central-difference step. Large for float params: truncation error grows
  /// as ε², but float cancellation noise grows as 1/ε, and at 1e-2 both sit
  /// around 1e-4 on O(1) values.
  float epsilon = 1e-2f;
  /// Max allowed |analytic − fd| / max(1, |analytic|, |fd|).
  float tolerance = 2e-2f;
};

struct GradCheckResult {
  bool passed = true;
  double max_rel_err = 0.0;
  std::size_t checked = 0;  // scalar derivatives compared
  std::string detail;       // worst offender, human-readable
};

/// Checks every parameter gradient and the input gradient of `proto` at
/// input `x` (training-mode forward). `rng` draws the probe direction.
GradCheckResult check_layer_gradients(const Layer& proto, const Tensor& x,
                                      Rng& rng,
                                      const GradCheckConfig& config = {});

/// Checks softmax_cross_entropy's dLoss/dLogits against central differences
/// of the scalar loss.
GradCheckResult check_softmax_xent_gradients(std::size_t batch,
                                             std::size_t classes, Rng& rng,
                                             const GradCheckConfig& config = {});

/// One gradient-check case: how to build the layer and its input.
struct LayerCase {
  std::string kind;  // must equal Layer::kind() of the built layer
  std::function<std::unique_ptr<Layer>(Rng&)> make;
  std::function<Tensor(Rng&)> make_input;
};

/// The config grid: at least one case per kind in registered_layer_kinds().
/// tests/test_properties.cpp asserts that coverage, so a new layer cannot be
/// registered without a gradient check.
std::vector<LayerCase> all_layer_cases();

}  // namespace vcdl::testing
