#include "nn/dense.hpp"

#include "common/rng.hpp"
#include "nn/test_hooks.hpp"
#include "tensor/ops.hpp"

namespace vcdl {

Dense::Dense(std::size_t in, std::size_t out, Init scheme, Rng& rng)
    : in_(in), out_(out), scheme_(scheme),
      w_(Shape{in, out}), b_(Shape{out}),
      dw_(Shape{in, out}), db_(Shape{out}) {
  VCDL_CHECK(in > 0 && out > 0, "Dense: zero-sized layer");
  initialize(w_, scheme, in, out, rng);
}

Dense::Dense(const Dense& other)
    : in_(other.in_), out_(other.out_), scheme_(other.scheme_),
      w_(other.w_), b_(other.b_), dw_(other.dw_), db_(other.db_) {}

Tensor Dense::forward(const Tensor& x, ExecContext& ctx, bool training) {
  VCDL_CHECK(x.shape().rank() == 2 && x.shape()[1] == in_,
             "Dense::forward: expected [batch, " + std::to_string(in_) +
                 "], got " + x.shape().to_string());
  if (training) {
    last_x_ = x;
  } else {
    last_x_ = Tensor();  // drop any stale cache held from a training pass
  }
  Tensor y;
  ops::matmul(x, w_, y, /*accumulate=*/false, ctx.pool);
  ops::add_bias(y.flat(), b_.flat(), x.shape()[0]);
  return y;
}

Tensor Dense::backward(const Tensor& grad_out, ExecContext& ctx) {
  backward_params(grad_out, ctx);
  // dX = dY · W^T
  Tensor dx;
  ops::matmul_a_bt(grad_out, w_, dx, /*accumulate=*/false, ctx.pool);
  return dx;
}

void Dense::backward_params(const Tensor& grad_out, ExecContext& ctx) {
  VCDL_CHECK(grad_out.shape().rank() == 2 && grad_out.shape()[1] == out_,
             "Dense::backward: gradient shape mismatch");
  VCDL_CHECK(last_x_.shape().rank() == 2, "Dense::backward before forward");
  // dW += x^T · dY — row-split over dW rows, so parallel runs stay
  // bit-identical to serial ones.
  ops::matmul_at_b(last_x_, grad_out, dw_, /*accumulate=*/true, ctx.pool);
  if (nn_hooks::wrong_dense_gradient) {
    // Test-only sabotage (see nn/test_hooks.hpp): a gradient checker that
    // does not flag this is broken.
    for (auto& g : dw_.flat()) g *= 1.5f;
  }
  // db += column sums of dY
  const std::size_t batch = grad_out.shape()[0];
  for (std::size_t b = 0; b < batch; ++b) {
    ops::axpy(1.0f, grad_out.flat().subspan(b * out_, out_), db_.flat());
  }
}

void Dense::write_spec(BinaryWriter& w) const {
  w.write_varint(in_);
  w.write_varint(out_);
  w.write_string(init_name(scheme_));
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace vcdl
