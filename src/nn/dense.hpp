// Fully connected layer: y = x W + b.
#pragma once

#include "nn/init.hpp"
#include "nn/layer.hpp"

namespace vcdl {

class Rng;

class Dense : public Layer {
 public:
  /// W is [in, out]; b is [out]. Weights drawn per `scheme`, bias zeroed.
  Dense(std::size_t in, std::size_t out, Init scheme, Rng& rng);
  /// Copies parameters/gradients but not the activation cache.
  Dense(const Dense& other);


  /// x: [batch, in] → [batch, out].
  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  void backward_params(const Tensor& grad_out, ExecContext& ctx) override;

  std::vector<Tensor*> params() override { return {&w_, &b_}; }
  std::vector<Tensor*> grads() override { return {&dw_, &db_}; }
  std::size_t cache_bytes() const override {
    return last_x_.numel() * sizeof(float);
  }
  std::string kind() const override { return "dense"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t in_, out_;
  Init scheme_;
  Tensor w_, b_, dw_, db_;
  Tensor last_x_;  // cached by training-mode forward for backward
};

}  // namespace vcdl
