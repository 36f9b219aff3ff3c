// 2-D pooling layers (NCHW).
#pragma once

#include "nn/layer.hpp"

namespace vcdl {

/// Non-overlapping (stride == window) max pooling.
class MaxPool2D : public Layer {
 public:
  explicit MaxPool2D(std::size_t window);
  /// Copies the window, not the argmax cache.
  MaxPool2D(const MaxPool2D& other) : Layer(), window_(other.window_) {}

  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::size_t cache_bytes() const override {
    return argmax_.size() * sizeof(std::size_t);
  }
  std::string kind() const override { return "maxpool2d"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::size_t window_;
  Shape in_shape_;
  std::vector<std::size_t> argmax_;  // flat input index of each output element
};

/// Global average pooling: [B, C, H, W] → [B, C].
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, ExecContext& ctx, bool training) override;
  Tensor backward(const Tensor& grad_out, ExecContext& ctx) override;
  std::string kind() const override { return "gavgpool"; }
  void write_spec(BinaryWriter& w) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape in_shape_;
};

}  // namespace vcdl
