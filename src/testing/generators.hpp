// Seeded random-case generators for the property suites.
//
// Everything here derives from the Rng + size the prop harness supplies, so
// a (seed, size) pair reproduces any generated case exactly (prop.hpp). The
// generators cover the repo's main value domains: tensor shapes and
// contents, class labels, opaque blobs, whole models, and miniature
// ExperimentSpecs the trainer oracles and chaos-determinism properties run
// end to end.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "common/rng.hpp"
#include "core/job.hpp"
#include "nn/model.hpp"
#include "tensor/tensor.hpp"

namespace vcdl::testing {

/// Random shape with `rank` in [min_rank, max_rank]; every dim in [1, size].
Shape gen_shape(Rng& rng, int size, std::size_t min_rank = 1,
                std::size_t max_rank = 4);

/// I.i.d. N(0, scale) entries.
Tensor gen_tensor(Rng& rng, const Shape& shape, float scale = 1.0f);

/// Tensor whose entries are pairwise at least 3*step/4 apart and at least
/// 3*step/8 away from zero: a sign-flipped, jittered arithmetic grid in
/// shuffled order. Finite differencing with perturbation < 3*step/8 cannot
/// cross a ReLU kink or flip a MaxPool argmax on such data, which is what
/// makes piecewise-linear layers gradient-checkable (gradcheck.hpp).
Tensor gen_separated_tensor(Rng& rng, const Shape& shape, float step);

/// `batch` labels uniform in [0, classes).
std::vector<std::uint16_t> gen_labels(Rng& rng, std::size_t batch,
                                      std::size_t classes);

/// Opaque byte blob, length uniform in [0, max_bytes].
Blob gen_blob(Rng& rng, std::size_t max_bytes);

/// A random model plus the input that feeds it. `size` scales width/depth.
struct ModelCase {
  Model model;
  Tensor input;                       // batch included
  std::vector<std::uint16_t> labels;  // batch entries in [0, classes)
  std::size_t classes = 0;
  std::string desc;  // human-readable architecture summary
};

/// Random dense or convolutional stack ending in `classes` logits, built
/// from the registered layer kinds; ReLU is the only activation, as in the
/// model zoo.
ModelCase gen_model_case(Rng& rng, int size);

/// Miniature end-to-end experiment: random PnCnTn in [1,3], 3-6 shards,
/// 1-2 epochs, random α / store / optimizer / model kind, optionally
/// preemptible clients and a transfer/corruption fault plan. Small enough
/// that a full run_experiment finishes in well under a second.
ExperimentSpec gen_experiment_spec(Rng& rng, int size, bool chaos);

}  // namespace vcdl::testing
