// Layer interface for the sequential training stack.
//
// Layers own their parameters and gradient buffers and cache whatever they
// need from forward() for the subsequent backward(). A model instance is
// therefore single-threaded by design — every simulated client trains on its
// own clone, which matches the paper's data-parallel scheme (n clients ⇒ n
// independent model copies, §II-B). Intra-model parallelism comes from the
// ExecContext threaded through forward/backward: its worker pool splits the
// GEMM/conv work of ONE model, it never shares a model between drivers.
//
// Activation caches (Dense::last_x_, Conv2D's im2col buffers, ReLU's
// output, …) are transient: they exist only between a training-mode forward
// and its backward. Inference-mode forwards skip them (and drop stale ones),
// and clone() excludes them, so cloned replicas and eval models don't haul
// dead buffers around.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/blob.hpp"
#include "tensor/exec_context.hpp"
#include "tensor/tensor.hpp"

namespace vcdl {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `training` toggles train-only behaviour
  /// (activation caching for backward). `ctx` supplies the worker pool and
  /// scratch arena; it must outlive the call. Input batch layout is
  /// documented per layer.
  virtual Tensor forward(const Tensor& x, ExecContext& ctx, bool training) = 0;

  /// Given dLoss/dOutput, accumulates parameter gradients and returns
  /// dLoss/dInput. Must be called after a training-mode forward() on the
  /// same input (an inference forward drops the caches backward needs).
  virtual Tensor backward(const Tensor& grad_out, ExecContext& ctx) = 0;

  /// backward() without dLoss/dInput: accumulates the parameter gradients
  /// only. Model::backward calls it on its first layer with parameters,
  /// whose input gradient nothing reads. The default runs backward() and
  /// drops the result; layers with an input-gradient GEMM skip it.
  virtual void backward_params(const Tensor& grad_out, ExecContext& ctx) {
    (void)backward(grad_out, ctx);
  }

  /// Trainable parameter tensors (may be empty). Order is stable and is the
  /// order used by the flat parameter vector.
  virtual std::vector<Tensor*> params() { return {}; }
  /// Gradient tensors, parallel to params().
  virtual std::vector<Tensor*> grads() { return {}; }

  /// Zeroes all gradient buffers.
  void zero_grads() {
    for (Tensor* g : grads()) g->fill(0.0f);
  }

  /// Bytes currently held by transient activation caches. Zero after an
  /// inference-mode forward or on a fresh clone; tests and memory telemetry
  /// use it to assert caches don't leak into eval or cloned replicas.
  virtual std::size_t cache_bytes() const { return 0; }

  /// Stable kind tag used by model (de)serialization.
  virtual std::string kind() const = 0;

  /// Writes the layer's hyperparameters (not weights) so that
  /// model_io can rebuild an identical architecture.
  virtual void write_spec(BinaryWriter& w) const = 0;

  /// Deep copy of parameters and hyperparameters. Transient activation
  /// caches are NOT copied — a clone is ready for a fresh forward.
  virtual std::unique_ptr<Layer> clone() const = 0;
};

}  // namespace vcdl
