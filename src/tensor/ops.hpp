// Tensor kernels: elementwise operations, reductions, and blocked GEMM.
//
// GEMM is the dominant cost of training. The entry points here validate
// shapes, pack any operand the kernel wants packed, and run the kernel over
// every row on the calling thread; the inner loops live in the tiered
// micro-kernels of tensor/gemm_kernels.hpp (portable scalar / AVX2 behind
// runtime dispatch, every tier bit-identical to the scalar reference). The
// pool splits work one level up, in Conv2D's batch loop. A zero A element is
// multiplied like any other, so NaN and Inf propagate by IEEE arithmetic.
// Everything else is straightforward span-based loops — on the problem
// sizes VCDL trains, they are memory-bound anyway.
#pragma once

#include <span>

#include "tensor/gemm_kernels.hpp"
#include "tensor/tensor.hpp"

namespace vcdl::ops {

// --- elementwise on flat spans (sizes must match) -------------------------

/// y += alpha * x
void axpy(float alpha, std::span<const float> x, std::span<float> y);
/// y[r][j] += bias[j] for every row of the row-major [rows x bias.size()]
/// matrix y — the layer bias add, fused over the batch.
void add_bias(std::span<float> y, std::span<const float> bias,
              std::size_t rows);
/// y = alpha * x + (1 - alpha) * y   — the VC-ASGD Eq. (1) blend primitive.
void blend(float alpha, std::span<const float> y_prev, std::span<const float> x,
           std::span<float> y);

// --- reductions ------------------------------------------------------------

float sum(std::span<const float> x);
/// max_i |a_i - b_i|
float max_abs_diff(std::span<const float> a, std::span<const float> b);
/// Index of the maximum element (first on ties). Requires non-empty x.
std::size_t argmax(std::span<const float> x);

// --- GEMM ------------------------------------------------------------------

/// Non-owning row-major matrix view over borrowed storage. The GEMM entry
/// points accept views so hot loops can multiply a slice of a larger tensor
/// (e.g. one batch item of a rank-4 gradient) without copying it out first.
/// The storage must stay alive and unmodified for the duration of the call.
struct MatView {
  const float* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// Views a rank-2 tensor.
MatView view(const Tensor& t);

/// C = A(MxK) * B(KxN); accumulate adds into C instead of overwriting.
void matmul(const Tensor& a, const Tensor& b, Tensor& c,
            bool accumulate = false);
void matmul(MatView a, MatView b, Tensor& c, bool accumulate = false);

/// C = A^T(K x M -> M x K seen transposed) * B. a is stored KxM.
void matmul_at_b(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate = false);
void matmul_at_b(MatView a, MatView b, Tensor& c, bool accumulate = false);

/// C = A * B^T. b is stored NxK.
void matmul_a_bt(const Tensor& a, const Tensor& b, Tensor& c,
                 bool accumulate = false);
void matmul_a_bt(MatView a, MatView b, Tensor& c, bool accumulate = false);

}  // namespace vcdl::ops
