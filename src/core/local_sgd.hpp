// Client-side local SGD: the compute half of a VC-ASGD subtask (§III-C).
//
// A subtask trains the published W on one shard for a few passes and then
// uploads the result. Every training minibatch in the vcdl library takes
// the one path below: the trainer's subtasks and the serial baseline run
// whole passes through train_local, and the Downpour and EASGD worker
// steps, which interleave single steps across workers, call
// compute_gradients. Only the test oracles (testing/oracles.hpp) keep a
// loop of their own, as the independent reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "nn/optimizer.hpp"

namespace vcdl {

/// One minibatch's gradients: a training forward of `x`, softmax
/// cross-entropy against `labels`, zero_grads, backward. Leaves the
/// gradients in `model` for the caller's optimizer step and returns the
/// logits.
Tensor compute_gradients(Model& model, const Tensor& x,
                         std::span<const std::uint16_t> labels,
                         ExecContext& exec);
/// The same for rows `idx` of `data`, gathered into one batch.
Tensor compute_gradients(Model& model, const Dataset& data,
                         std::span<const std::size_t> idx, ExecContext& exec);

/// `passes` passes of minibatch SGD over `data`. Each pass shuffles `order`
/// (indices into `data`) with `rng`, then walks it `batch_size` rows at a
/// time: compute_gradients, then optimizer.step. The permutation carries
/// over from pass to pass, and from call to call for a caller that trains
/// one pass at a time.
void train_local(Model& model, Optimizer& optimizer, const Dataset& data,
                 std::span<std::size_t> order, std::size_t passes,
                 std::size_t batch_size, Rng& rng, ExecContext& exec);

/// 0, 1, ..., n-1: the starting permutation for train_local.
std::vector<std::size_t> identity_order(std::size_t n);

}  // namespace vcdl
