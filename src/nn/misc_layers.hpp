// Structural layers: Flatten, Dropout, and the Residual wrapper.
#pragma once

#include "common/rng.hpp"
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

/// Inverted dropout: active only in training mode. The paper's experiments
/// disable dropout (§IV-A); VCDL ships it so users can enable regularization.
class Dropout : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);
  /// Copies the rate and RNG state (persistent), not the mask (transient).
  Dropout(const Dropout& other);

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::size_t cache_bytes() const override {
    return mask_.numel() * sizeof(float);
  }
  std::string kind() const override { return "dropout"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

  double rate() const { return rate_; }

 private:
  double rate_;
  std::uint64_t seed_;
  Rng rng_;
  Tensor mask_;
  bool used_mask_ = false;
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
