// Parameter-free activation layers.
//
// Each caches what its backward needs (a mask or the forward output) only on
// training-mode passes; inference passes free the cache, and copies made for
// clone() never carry it.
#pragma once

#include "nn/layer.hpp"

namespace vcdl {

/// max(0, x)
class ReLU : public Layer {
 public:
  ReLU() = default;
  ReLU(const ReLU&) : Layer() {}

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::size_t cache_bytes() const override {
    return mask_.numel() * sizeof(float);
  }
  std::string kind() const override { return "relu"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor mask_;  // 1 where x > 0
};

class Tanh : public Layer {
 public:
  Tanh() = default;
  Tanh(const Tanh&) : Layer() {}

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::size_t cache_bytes() const override {
    return last_y_.numel() * sizeof(float);
  }
  std::string kind() const override { return "tanh"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor last_y_;
};

class Sigmoid : public Layer {
 public:
  Sigmoid() = default;
  Sigmoid(const Sigmoid&) : Layer() {}

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::size_t cache_bytes() const override {
    return last_y_.numel() * sizeof(float);
  }
  std::string kind() const override { return "sigmoid"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor last_y_;
};

}  // namespace vcdl
