#include "nn/activations.hpp"

namespace vcdl {

Tensor ReLU::forward(const Tensor& x, ExecContext& /*ctx*/, bool training) {
  Tensor y = x;
  // `v <= 0` is false for NaN, which therefore passes through. A select,
  // not a branch: the sign of an activation is a coin flip.
  for (auto& v : y.flat()) v = v <= 0.0f ? 0.0f : v;
  if (training) {
    last_y_ = y;  // reuses the cached buffer once the shape settles
  } else {
    last_y_ = Tensor();
  }
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out, ExecContext& /*ctx*/) {
  VCDL_CHECK(grad_out.shape() == last_y_.shape(),
             "ReLU::backward before training-mode forward or shape mismatch");
  Tensor dx = grad_out;
  auto df = dx.flat();
  auto yf = last_y_.flat();
  for (std::size_t i = 0; i < df.size(); ++i) {
    df[i] *= yf[i] > 0.0f ? 1.0f : 0.0f;
  }
  return dx;
}

void ReLU::write_spec(BinaryWriter& /*w*/) const {}
std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(*this); }

}  // namespace vcdl
