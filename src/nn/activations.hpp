// The activation layer: ReLU, the only one the paper's models use (§IV-A).
//
// It caches its output only on training-mode passes; inference passes free
// the cache, and copies made for clone() never carry it.
#pragma once

#include "nn/layer.hpp"

namespace vcdl {

/// max(0, x). A NaN input passes through in both modes, so a diverging run
/// stays visible; its gradient is 0 there.
class ReLU : public Layer {
 public:
  ReLU() = default;
  ReLU(const ReLU&) : Layer() {}

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::size_t cache_bytes() const override {
    return last_y_.numel() * sizeof(float);
  }
  std::string kind() const override { return "relu"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor last_y_;  // the training-mode output; y > 0 exactly where x > 0
};

}  // namespace vcdl
