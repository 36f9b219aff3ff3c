// Structural layers: Flatten and the Residual wrapper.
#pragma once

#include "nn/layer.hpp"

namespace vcdl {

/// [B, d1, d2, ...] → [B, d1*d2*...].
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::string kind() const override { return "flatten"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape in_shape_;
};

/// y = x + F(x) where F is an inner layer stack whose output shape equals its
/// input shape. This is the ResNet-style identity-shortcut block.
class Residual : public Layer {
 public:
  explicit Residual(std::vector<std::unique_ptr<Layer>> inner);
  Residual(const Residual& other);

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::vector<Tensor*> params() override;
  std::vector<Tensor*> grads() override;
  std::size_t cache_bytes() const override;
  std::string kind() const override { return "residual"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

  const std::vector<std::unique_ptr<Layer>>& inner() const { return inner_; }

 private:
  std::vector<std::unique_ptr<Layer>> inner_;
};

}  // namespace vcdl
