#include "nn/misc_layers.hpp"

namespace vcdl {

Tensor Flatten::forward(const Tensor& x, ExecContext& /*ctx*/,
                        bool /*training*/) {
  VCDL_CHECK(x.shape().rank() >= 2, "Flatten expects rank >= 2");
  in_shape_ = x.shape();
  const std::size_t batch = x.shape()[0];
  return x.reshaped(Shape{batch, x.numel() / batch});
}

Tensor Flatten::backward(const Tensor& grad_out, ExecContext& /*ctx*/) {
  VCDL_CHECK(grad_out.numel() == in_shape_.numel(),
             "Flatten::backward: gradient size mismatch");
  return grad_out.reshaped(in_shape_);
}

void Flatten::write_spec(BinaryWriter& /*w*/) const {}
std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(*this);
}

Residual::Residual(std::vector<std::unique_ptr<Layer>> inner)
    : inner_(std::move(inner)) {
  VCDL_CHECK(!inner_.empty(), "Residual: empty inner stack");
}

Residual::Residual(const Residual& other) {
  inner_.reserve(other.inner_.size());
  for (const auto& layer : other.inner_) inner_.push_back(layer->clone());
}

Tensor Residual::forward(const Tensor& x, ExecContext& ctx, bool training) {
  Tensor y = x;
  for (auto& layer : inner_) y = layer->forward(y, ctx, training);
  VCDL_CHECK(y.shape() == x.shape(),
             "Residual: inner stack changed shape " + x.shape().to_string() +
                 " -> " + y.shape().to_string());
  auto yf = y.flat();
  auto xf = x.flat();
  for (std::size_t i = 0; i < yf.size(); ++i) yf[i] += xf[i];
  return y;
}

Tensor Residual::backward(const Tensor& grad_out, ExecContext& ctx) {
  Tensor g = grad_out;
  for (auto it = inner_.rbegin(); it != inner_.rend(); ++it) {
    g = (*it)->backward(g, ctx);
  }
  // Shortcut path: dL/dx += dL/dy.
  auto gf = g.flat();
  auto of = grad_out.flat();
  VCDL_CHECK(gf.size() == of.size(), "Residual::backward: size mismatch");
  for (std::size_t i = 0; i < gf.size(); ++i) gf[i] += of[i];
  return g;
}

std::vector<Tensor*> Residual::params() {
  std::vector<Tensor*> out;
  for (auto& layer : inner_) {
    for (Tensor* p : layer->params()) out.push_back(p);
  }
  return out;
}

std::vector<Tensor*> Residual::grads() {
  std::vector<Tensor*> out;
  for (auto& layer : inner_) {
    for (Tensor* g : layer->grads()) out.push_back(g);
  }
  return out;
}

std::size_t Residual::cache_bytes() const {
  std::size_t n = 0;
  for (const auto& layer : inner_) n += layer->cache_bytes();
  return n;
}

// Inner layers are serialized recursively by model_io (which knows the layer
// factory); the spec itself carries nothing.
void Residual::write_spec(BinaryWriter& /*w*/) const {}

std::unique_ptr<Layer> Residual::clone() const {
  return std::make_unique<Residual>(*this);
}

}  // namespace vcdl
