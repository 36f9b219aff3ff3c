#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "obs/span.hpp"
#include "tensor/gemm_kernels.hpp"

namespace vcdl::ops {
namespace {

// Hot-path spans on the process registry's wall clock, so they record real
// kernel-time distributions wherever they run, simulated runs included; a
// run's own registry and its fingerprint never see them. Handles are
// resolved once — obs::registry() never invalidates references.
struct ExecMetrics {
  obs::Histogram& gemm_s =
      obs::registry().histogram("exec.gemm_s", {0.0, 0.05, 50});
  obs::Histogram& pool_wait_s =
      obs::registry().histogram("exec.pool_wait_s", {0.0, 0.01, 40});
};

ExecMetrics& exec_metrics() {
  static ExecMetrics m;
  return m;
}

void check_same_size(std::span<const float> a, std::span<const float> b,
                     const char* what) {
  VCDL_CHECK(a.size() == b.size(), std::string(what) + ": size mismatch");
}

void run_rowwise(std::size_t m, ThreadPool* pool,
                 const std::function<void(std::size_t, std::size_t)>& body) {
  // Parallelism only pays off for reasonably tall outputs.
  if (pool != nullptr && pool->size() > 1 && m >= 4 * pool->size()) {
    const double dispatched = obs::registry().now();
    pool->parallel_for_indexed(
        0, m, [&](std::size_t chunk, std::size_t r0, std::size_t r1) {
          // One dispatch-latency sample per region, not per chunk. Chunks
          // are claimed in index order, so chunk 1 starts when a second
          // participant joins the region, or when the first one finishes
          // its chunk and takes the next. Per-chunk sampling put two clock
          // reads on every chunk of every GEMM — the obs layer must stay
          // off the hot path it exists to diagnose.
          if (chunk == 1) {
            exec_metrics().pool_wait_s.observe(obs::registry().now() -
                                               dispatched);
          }
          body(r0, r1);
        });
  } else {
    body(0, m);
  }
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

void scale(std::span<float> x, float alpha) {
  for (auto& v : x) v *= alpha;
}

void add(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  check_same_size(a, b, "add");
  check_same_size(a, out, "add");
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
}

void sub(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  check_same_size(a, b, "sub");
  check_same_size(a, out, "sub");
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
}

void mul(std::span<const float> a, std::span<const float> b, std::span<float> out) {
  check_same_size(a, b, "mul");
  check_same_size(a, out, "mul");
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
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

float dot(std::span<const float> a, std::span<const float> b) {
  check_same_size(a, b, "dot");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return static_cast<float>(acc);
}

float norm2(std::span<const float> x) {
  double acc = 0.0;
  for (const float v : x) acc += static_cast<double>(v) * v;
  return static_cast<float>(std::sqrt(acc));
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

void matmul(MatView a, MatView b, Tensor& c, bool accumulate,
            ThreadPool* pool) {
  check_view(a, "matmul");
  check_view(b, "matmul");
  const std::size_t m = a.rows, k = a.cols;
  VCDL_CHECK(b.rows == k, "matmul: inner dimension mismatch");
  const std::size_t n = b.cols;
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (!accumulate) c.fill(0.0f);
  obs::SpanTimer span(exec_metrics().gemm_s);
  // Broadcast-A kernel: row-major B already is the shared read-only panel
  // every worker reads — no per-worker repacking inside the parallel loop.
  const detail::GemmKernels& kn = detail::kernels_for(active_simd_tier());
  const float* ap = a.data;
  const float* bp = b.data;
  float* cp = c.data();
  run_rowwise(m, pool, [&, ap, bp, cp](std::size_t r0, std::size_t r1) {
    kn.broadcast_rows(ap, /*a_row_stride=*/k, /*a_col_stride=*/1, bp, cp, r0,
                      r1, k, n);
  });
}

void matmul(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
            ThreadPool* pool) {
  VCDL_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
             "matmul expects rank-2 tensors");
  matmul(view(a), view(b), c, accumulate, pool);
}

void matmul_at_b(MatView a, MatView b, Tensor& c, bool accumulate,
                 ThreadPool* pool) {
  // a is stored K x M; logical op is (M x K) * (K x N).
  check_view(a, "matmul_at_b");
  check_view(b, "matmul_at_b");
  const std::size_t k = a.rows, m = a.cols;
  VCDL_CHECK(b.rows == k, "matmul_at_b: inner dimension mismatch");
  const std::size_t n = b.cols;
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (!accumulate) c.fill(0.0f);
  obs::SpanTimer span(exec_metrics().gemm_s);
  const float* ap = a.data;
  const float* bp = b.data;
  float* cp = c.data();
  // Same broadcast kernel as matmul with transposed A strides: A(i,k) =
  // ap[k*m + i]. Per C element the k-terms still accumulate in ascending
  // order, so hoisting i outside k (the old loop nested k outermost) is
  // bit-identical.
  const detail::GemmKernels& kn = detail::kernels_for(active_simd_tier());
  run_rowwise(m, pool, [&, ap, bp, cp](std::size_t r0, std::size_t r1) {
    kn.broadcast_rows(ap, /*a_row_stride=*/1, /*a_col_stride=*/m, bp, cp, r0,
                      r1, k, n);
  });
}

void matmul_at_b(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
                 ThreadPool* pool) {
  VCDL_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
             "matmul_at_b expects rank-2 tensors");
  matmul_at_b(view(a), view(b), c, accumulate, pool);
}

void matmul_a_bt(MatView a, MatView b, Tensor& c, bool accumulate,
                 ThreadPool* pool) {
  // b is stored N x K; logical op is (M x K) * (K x N).
  check_view(a, "matmul_a_bt");
  check_view(b, "matmul_a_bt");
  const std::size_t m = a.rows, k = a.cols;
  VCDL_CHECK(b.cols == k, "matmul_a_bt: inner dimension mismatch");
  const std::size_t n = b.rows;
  if (!(c.shape() == Shape{m, n})) c = Tensor(Shape{m, n});
  if (!accumulate) c.fill(0.0f);
  obs::SpanTimer span(exec_metrics().gemm_s);
  const float* ap = a.data;
  const float* bp = b.data;
  float* cp = c.data();
  const detail::GemmKernels& kn = detail::kernels_for(active_simd_tier());
  // Vector tiers read B^T through a width-4 packed panel. It is built ONCE
  // here, on the dispatching thread, and shared read-only across the
  // row-parallel workers — packing inside the loop would repeat the O(K·N)
  // transpose per worker.
  const float* packed = nullptr;
  if (kn.wants_bt_panel) {
    float* buf = detail::pack_scratch(detail::packed_bt_floats(n, k));
    detail::pack_bt_tiles(bp, n, k, buf);
    packed = buf;
  }
  run_rowwise(m, pool, [&, ap, bp, cp, packed](std::size_t r0, std::size_t r1) {
    kn.a_bt_rows(ap, bp, packed, cp, r0, r1, k, n);
  });
}

void matmul_a_bt(const Tensor& a, const Tensor& b, Tensor& c, bool accumulate,
                 ThreadPool* pool) {
  VCDL_CHECK(a.shape().rank() == 2 && b.shape().rank() == 2,
             "matmul_a_bt expects rank-2 tensors");
  matmul_a_bt(view(a), view(b), c, accumulate, pool);
}

}  // namespace vcdl::ops
