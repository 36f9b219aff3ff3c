#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "obs/span.hpp"
#include "tensor/gemm_kernels.hpp"

namespace vcdl::ops {
namespace {

// A hot-path span on the process registry's wall clock, so it records real
// kernel times wherever a GEMM runs, simulated runs included; a run's own
// registry and its fingerprint never see it. Resolved once —
// obs::registry() never invalidates references.
obs::Histogram& gemm_metric() {
  static obs::Histogram& h =
      obs::registry().histogram("exec.gemm_s", {0.0, 0.05, 50});
  return h;
}

void check_same_size(std::span<const float> a, std::span<const float> b,
                     const char* what) {
  VCDL_CHECK(a.size() == b.size(), std::string(what) + ": size mismatch");
}

void check_view(MatView v, const char* what) {
  VCDL_CHECK(v.data != nullptr || v.rows * v.cols == 0,
             std::string(what) + ": null matrix view");
}

}  // namespace

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  check_same_size(x, y, "axpy");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void add_bias(std::span<float> y, std::span<const float> bias,
              std::size_t rows) {
  VCDL_CHECK(bias.size() * rows == y.size(), "add_bias: size mismatch");
  const std::size_t cols = bias.size();
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = y.data() + r * cols;
    for (std::size_t j = 0; j < cols; ++j) row[j] += bias[j];
  }
}

void blend(float alpha, std::span<const float> y_prev, std::span<const float> x,
           std::span<float> y) {
  check_same_size(y_prev, x, "blend");
  check_same_size(y_prev, y, "blend");
  const float beta = 1.0f - alpha;
  for (std::size_t i = 0; i < y.size(); ++i) {
    y[i] = alpha * y_prev[i] + beta * x[i];
  }
}

float sum(std::span<const float> x) {
  double acc = 0.0;
  for (const float v : x) acc += v;
  return static_cast<float>(acc);
}

float max_abs_diff(std::span<const float> a, std::span<const float> b) {
  check_same_size(a, b, "max_abs_diff");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

std::size_t argmax(std::span<const float> x) {
  VCDL_CHECK(!x.empty(), "argmax of empty span");
  return static_cast<std::size_t>(
      std::max_element(x.begin(), x.end()) - x.begin());
}

MatView view(const Tensor& t) {
  VCDL_CHECK(t.shape().rank() == 2, "ops::view expects a rank-2 tensor");
  return MatView{t.data(), t.shape()[0], t.shape()[1]};
}

void matmul(MatView a, MatView b, Tensor& c, bool accumulate) {
  check_view(a, "matmul");
  check_view(b, "matmul");
  const std::size_t m = a.rows, k = a.cols;
  VCDL_CHECK(b.rows == k, "matmul: inner dimension mismatch");
  const std::size_t n = b.cols;
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (!accumulate) c.fill(0.0f);
  obs::SpanTimer span(gemm_metric());
  // Broadcast-A kernel: row-major B already is the panel it reads, so
  // nothing is repacked.
  detail::kernels_for(active_simd_tier())
      .broadcast_rows(a.data, /*a_row_stride=*/k, /*a_col_stride=*/1, b.data,
                      c.data(), m, k, n);
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate) {
  VCDL_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
             "matmul expects rank-2 tensors");
  matmul(view(a), view(b), c, accumulate);
}

void matmul_at_b(MatView a, MatView b, Tensor& c, bool accumulate) {
  // a is stored K x M; logical op is (M x K) * (K x N).
  check_view(a, "matmul_at_b");
  check_view(b, "matmul_at_b");
  const std::size_t k = a.rows, m = a.cols;
  VCDL_CHECK(b.rows == k, "matmul_at_b: inner dimension mismatch");
  const std::size_t n = b.cols;
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (!accumulate) c.fill(0.0f);
  obs::SpanTimer span(gemm_metric());
  // Same broadcast kernel as matmul with transposed A strides: A(i,k) =
  // a[k*m + i]. Per C element the k-terms still accumulate in ascending
  // order, so hoisting i outside k (the old loop nested k outermost) is
  // bit-identical.
  detail::kernels_for(active_simd_tier())
      .broadcast_rows(a.data, /*a_row_stride=*/1, /*a_col_stride=*/m, b.data,
                      c.data(), m, k, n);
}

void matmul_at_b(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate) {
  VCDL_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
             "matmul_at_b expects rank-2 tensors");
  matmul_at_b(view(a), view(b), c, accumulate);
}

void matmul_a_bt(MatView a, MatView b, Tensor& c, bool accumulate) {
  // b is stored N x K; logical op is (M x K) * (K x N).
  check_view(a, "matmul_a_bt");
  check_view(b, "matmul_a_bt");
  const std::size_t m = a.rows, k = a.cols;
  VCDL_CHECK(b.cols == k, "matmul_a_bt: inner dimension mismatch");
  const std::size_t n = b.rows;
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (!accumulate) c.fill(0.0f);
  obs::SpanTimer span(gemm_metric());
  const detail::GemmKernels& kn = detail::kernels_for(active_simd_tier());
  // Vector tiers read B^T through a width-4 packed panel, packed once per
  // call into this thread's scratch.
  const float* packed = nullptr;
  if (kn.wants_bt_panel) {
    float* buf = detail::pack_scratch(detail::packed_bt_floats(n, k));
    detail::pack_bt_tiles(b.data, n, k, buf);
    packed = buf;
  }
  kn.a_bt_rows(a.data, b.data, packed, c.data(), m, k, n);
}

void matmul_a_bt(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate) {
  VCDL_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
             "matmul_a_bt expects rank-2 tensors");
  matmul_a_bt(view(a), view(b), c, accumulate);
}

}  // namespace vcdl::ops
