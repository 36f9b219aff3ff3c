#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/ops.hpp"

namespace vcdl {
namespace {

TEST(Shape, NumelAndRank) {
  const Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, EmptyShapeHasOneElement) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1u);
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{3, 3});
  for (const float v : t.flat()) EXPECT_EQ(v, 0.0f);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full(Shape{4}, 2.5f);
  for (const float v : t.flat()) EXPECT_EQ(v, 2.5f);
  t.fill(-1.0f);
  for (const float v : t.flat()) EXPECT_EQ(v, -1.0f);
}

TEST(Tensor, ConstructFromDataChecksSize) {
  EXPECT_THROW(Tensor(Shape{2, 2}, {1.0f, 2.0f}), Error);
  const Tensor t(Shape{2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(1, 0), 3.0f);
}

TEST(Tensor, RandnDeterministic) {
  Rng a(5), b(5);
  const Tensor x = Tensor::randn(Shape{100}, a);
  const Tensor y = Tensor::randn(Shape{100}, b);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_EQ(x[i], y[i]);
}

TEST(Tensor, ReshapedPreservesData) {
  const Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped(Shape{4, 2}), Error);
}

TEST(Ops, AxpyScaleAddSubMul) {
  std::vector<float> x = {1, 2, 3};
  std::vector<float> y = {10, 20, 30};
  ops::axpy(2.0f, x, y);
  EXPECT_EQ(y, (std::vector<float>{12, 24, 36}));
  ops::scale(y, 0.5f);
  EXPECT_EQ(y, (std::vector<float>{6, 12, 18}));
  std::vector<float> out(3);
  ops::add(x, y, out);
  EXPECT_EQ(out, (std::vector<float>{7, 14, 21}));
  ops::sub(y, x, out);
  EXPECT_EQ(out, (std::vector<float>{5, 10, 15}));
  ops::mul(x, x, out);
  EXPECT_EQ(out, (std::vector<float>{1, 4, 9}));
}

TEST(Ops, BlendIsConvexCombination) {
  const std::vector<float> server = {1.0f, 0.0f};
  const std::vector<float> client = {0.0f, 1.0f};
  std::vector<float> out(2);
  ops::blend(0.75f, server, client, out);
  EXPECT_FLOAT_EQ(out[0], 0.75f);
  EXPECT_FLOAT_EQ(out[1], 0.25f);
}

TEST(Ops, BlendInPlaceOnServer) {
  std::vector<float> server = {2.0f};
  const std::vector<float> client = {4.0f};
  ops::blend(0.5f, server, client, server);
  EXPECT_FLOAT_EQ(server[0], 3.0f);
}

TEST(Ops, Reductions) {
  const std::vector<float> v = {3, -4, 0};
  EXPECT_FLOAT_EQ(ops::sum(v), -1.0f);
  EXPECT_FLOAT_EQ(ops::dot(v, v), 25.0f);
  EXPECT_FLOAT_EQ(ops::norm2(v), 5.0f);
  EXPECT_EQ(ops::argmax(v), 0u);
  const std::vector<float> w = {3, 4, 0};
  EXPECT_FLOAT_EQ(ops::max_abs_diff(v, w), 8.0f);
}

TEST(Ops, ArgmaxFirstOnTie) {
  const std::vector<float> v = {1, 5, 5, 2};
  EXPECT_EQ(ops::argmax(v), 1u);
}

TEST(Ops, SizeMismatchThrows) {
  std::vector<float> a = {1, 2}, b = {1};
  EXPECT_THROW(ops::axpy(1.0f, a, b), Error);
  EXPECT_THROW(ops::dot(a, b), Error);
}

// Reference GEMM for cross-checking.
Tensor naive_matmul(const Tensor& a, const Tensor& b) {
  const std::size_t m = a.shape()[0], k = a.shape()[1], n = b.shape()[1];
  Tensor c(Shape{m, n});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

Tensor transpose(const Tensor& t) {
  const std::size_t r = t.shape()[0], c = t.shape()[1];
  Tensor out(Shape{c, r});
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) out.at(j, i) = t.at(i, j);
  }
  return out;
}

class MatmulSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(MatmulSweep, MatchesNaive) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 131 + k * 17 + n);
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  Tensor c;
  ops::matmul(a, b, c);
  const Tensor ref = naive_matmul(a, b);
  EXPECT_LT(ops::max_abs_diff(c.flat(), ref.flat()), 1e-4f);
}

TEST_P(MatmulSweep, TransposedVariantsMatch) {
  const auto [m, k, n] = GetParam();
  Rng rng(m + k + n + 99);
  const Tensor a = Tensor::randn(Shape{m, k}, rng);
  const Tensor b = Tensor::randn(Shape{k, n}, rng);
  const Tensor ref = naive_matmul(a, b);

  // A^T stored as (k x m): matmul_at_b(a_t, b) == a * b.
  Tensor c1;
  ops::matmul_at_b(transpose(a), b, c1);
  EXPECT_LT(ops::max_abs_diff(c1.flat(), ref.flat()), 1e-4f);

  // B^T stored as (n x k): matmul_a_bt(a, b_t) == a * b.
  Tensor c2;
  ops::matmul_a_bt(a, transpose(b), c2);
  EXPECT_LT(ops::max_abs_diff(c2.flat(), ref.flat()), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Dims, MatmulSweep,
    ::testing::Values(std::make_tuple(1u, 1u, 1u), std::make_tuple(2u, 3u, 4u),
                      std::make_tuple(7u, 5u, 3u), std::make_tuple(16u, 64u, 8u),
                      std::make_tuple(33u, 65u, 17u),
                      std::make_tuple(1u, 100u, 1u)));

TEST(Ops, MatmulAccumulate) {
  Rng rng(1);
  const Tensor a = Tensor::randn(Shape{3, 4}, rng);
  const Tensor b = Tensor::randn(Shape{4, 5}, rng);
  Tensor c = Tensor::full(Shape{3, 5}, 1.0f);
  ops::matmul(a, b, c, /*accumulate=*/true);
  Tensor expect = naive_matmul(a, b);
  for (auto& v : expect.flat()) v += 1.0f;
  EXPECT_LT(ops::max_abs_diff(c.flat(), expect.flat()), 1e-4f);
}

TEST(Ops, MatmulWithThreadPoolMatches) {
  Rng rng(2);
  const Tensor a = Tensor::randn(Shape{64, 32}, rng);
  const Tensor b = Tensor::randn(Shape{32, 48}, rng);
  Tensor serial, parallel;
  ops::matmul(a, b, serial);
  ThreadPool pool(4);
  ops::matmul(a, b, parallel, false, &pool);
  EXPECT_LT(ops::max_abs_diff(serial.flat(), parallel.flat()), 1e-5f);
}

TEST(Ops, MatmulDimensionMismatchThrows) {
  const Tensor a(Shape{2, 3});
  const Tensor b(Shape{4, 5});
  Tensor c;
  EXPECT_THROW(ops::matmul(a, b, c), Error);
}

// A zero A element facing a NaN in B must give NaN (0 * NaN is NaN), not 0:
// the kernels multiply a zero like any other element.
TEST(Ops, MatmulZeroTimesNaNPropagates) {
  Tensor a = Tensor::full(Shape{2, 3}, 1.0f);
  a.at(0, 1) = 0.0f;  // aligned against the poisoned B row below
  Tensor b = Tensor::full(Shape{3, 4}, 1.0f);
  b.at(1, 2) = std::numeric_limits<float>::quiet_NaN();
  Tensor c;
  ops::matmul(a, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 2)));
  EXPECT_TRUE(std::isnan(c.at(1, 2)));
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.0f);  // unpoisoned columns unaffected
  EXPECT_FLOAT_EQ(c.at(1, 0), 3.0f);
}

TEST(Ops, MatmulZeroTimesInfIsNaN) {
  Tensor a = Tensor::full(Shape{1, 2}, 0.0f);
  Tensor b = Tensor::full(Shape{2, 1}, 1.0f);
  b.at(0, 0) = std::numeric_limits<float>::infinity();
  Tensor c;
  ops::matmul(a, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 0)));  // 0 * inf = NaN, not 0
}

TEST(Ops, MatmulAtBZeroTimesNaNPropagates) {
  Tensor a_t = Tensor::full(Shape{3, 2}, 1.0f);  // A^T, so A is 2x3
  a_t.at(1, 0) = 0.0f;                           // A(0,1) = 0
  Tensor b = Tensor::full(Shape{3, 2}, 1.0f);
  b.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  Tensor c;
  ops::matmul_at_b(a_t, b, c);
  EXPECT_TRUE(std::isnan(c.at(0, 1)));
  EXPECT_FLOAT_EQ(c.at(0, 0), 2.0f);
}

TEST(Ops, MatmulSparseAMatchesNaive) {
  // Sparse A against finite B: the zeros are multiplied like any other
  // element, and the result matches the naive triple loop.
  Rng rng(7);
  Tensor a = Tensor::randn(Shape{9, 13}, rng);
  for (std::size_t i = 0; i < a.numel(); i += 3) a.flat()[i] = 0.0f;
  const Tensor b = Tensor::randn(Shape{13, 6}, rng);
  Tensor c;
  ops::matmul(a, b, c);
  const Tensor ref = naive_matmul(a, b);
  EXPECT_LT(ops::max_abs_diff(c.flat(), ref.flat()), 1e-4f);
}

void expect_bits_equal(std::span<const float> a, std::span<const float> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "element " << i;
  }
}

TEST(Ops, MatViewMatmulMatchesTensorMatmul) {
  Rng rng(11);
  const Tensor a = Tensor::randn(Shape{5, 7}, rng);
  const Tensor b = Tensor::randn(Shape{7, 4}, rng);
  Tensor c_tensor, c_view;
  ops::matmul(a, b, c_tensor);
  ops::matmul(ops::view(a), ops::view(b), c_view);
  expect_bits_equal(c_tensor.flat(), c_view.flat());

  // A view over a sub-range of a larger buffer (no copy) works the same.
  Tensor big(Shape{2, a.numel()});
  std::copy(a.flat().begin(), a.flat().end(),
            big.flat().begin() + static_cast<std::ptrdiff_t>(a.numel()));
  const ops::MatView sub{big.data() + a.numel(), 5, 7};
  Tensor c_sub;
  ops::matmul(sub, ops::view(b), c_sub);
  expect_bits_equal(c_tensor.flat(), c_sub.flat());
}

TEST(Ops, MatViewTransposedVariantsMatchTensorOverloads) {
  Rng rng(13);
  const Tensor a = Tensor::randn(Shape{6, 5}, rng);
  const Tensor b = Tensor::randn(Shape{6, 3}, rng);  // for A^T * B
  Tensor r1, r2;
  ops::matmul_at_b(a, b, r1);
  ops::matmul_at_b(ops::view(a), ops::view(b), r2);
  expect_bits_equal(r1.flat(), r2.flat());

  const Tensor bt = Tensor::randn(Shape{4, 5}, rng);  // for A * B^T
  Tensor r3, r4;
  ops::matmul_a_bt(a, bt, r3);
  ops::matmul_a_bt(ops::view(a), ops::view(bt), r4);
  expect_bits_equal(r3.flat(), r4.flat());
}

}  // namespace
}  // namespace vcdl
