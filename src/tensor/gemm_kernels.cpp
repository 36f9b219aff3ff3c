// Scalar GEMM micro-kernels, B^T tile packing, and tier dispatch.
//
// The scalar kernels are the bit-exact reference every vector tier must
// reproduce (see gemm_kernels.hpp). This TU is compiled with
// -ffp-contract=off like the vector TUs, so the reference itself can never
// drift under a toolchain that fuses mul/add by default.

#include "tensor/gemm_kernels.hpp"

#include <new>

namespace vcdl::ops {
namespace detail {
namespace {

void broadcast_rows_scalar(const float* a, std::size_t a_row_stride,
                           std::size_t a_col_stride, const float* b, float* c,
                           std::size_t m, std::size_t k_dim,
                           std::size_t n_dim) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_i = a + i * a_row_stride;
    float* c_row = c + i * n_dim;
    for (std::size_t k = 0; k < k_dim; ++k) {
      const float a_ik = a_i[k * a_col_stride];
      const float* b_row = b + k * n_dim;
      // Unit stride in both operands and no cross-lane reduction: compilers
      // may vectorize this legally without reassociating, so even the scalar
      // tier keeps its bit-exact contract under auto-vectorization.
      for (std::size_t j = 0; j < n_dim; ++j) c_row[j] += a_ik * b_row[j];
    }
  }
}

void a_bt_rows_scalar(const float* a, const float* b, const float* /*packed*/,
                      float* c, std::size_t m, std::size_t k_dim,
                      std::size_t n_dim) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k_dim;
    float* c_row = c + i * n_dim;
    for (std::size_t j = 0; j < n_dim; ++j) {
      const float* b_row = b + j * k_dim;
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k_dim; ++kk) {
        acc += static_cast<double>(a_row[kk]) * b_row[kk];
      }
      c_row[j] += static_cast<float>(acc);
    }
  }
}

constexpr GemmKernels kScalarKernels{&broadcast_rows_scalar, &a_bt_rows_scalar,
                                     /*wants_bt_panel=*/false};

std::optional<SimdTier>& tier_override() {
  static std::optional<SimdTier> o;
  return o;
}

bool tier_available(SimdTier tier) {
  switch (tier) {
    case SimdTier::scalar:
      return true;
    case SimdTier::avx2:
#if defined(VCDL_GEMM_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

SimdTier best_tier() {
  if (tier_available(SimdTier::avx2)) return SimdTier::avx2;
  return SimdTier::scalar;
}

struct PackScratch {
  float* data = nullptr;
  std::size_t cap = 0;
  ~PackScratch() {
    ::operator delete(static_cast<void*>(data), std::align_val_t{64});
  }
};

thread_local PackScratch t_pack_scratch;

}  // namespace

void pack_bt_tiles(const float* b, std::size_t n, std::size_t k,
                   float* packed) {
  const std::size_t tiles = n / 4;
  for (std::size_t t = 0; t < tiles; ++t) {
    float* tile = packed + t * k * 4;
    const float* b0 = b + (t * 4 + 0) * k;
    const float* b1 = b + (t * 4 + 1) * k;
    const float* b2 = b + (t * 4 + 2) * k;
    const float* b3 = b + (t * 4 + 3) * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      tile[kk * 4 + 0] = b0[kk];
      tile[kk * 4 + 1] = b1[kk];
      tile[kk * 4 + 2] = b2[kk];
      tile[kk * 4 + 3] = b3[kk];
    }
  }
  if (n % 4 == 0) return;
  float* tile = packed + tiles * k * 4;
  for (std::size_t kk = 0; kk < k; ++kk) {
    for (std::size_t jj = 0; jj < 4; ++jj) {
      const std::size_t j = tiles * 4 + jj;
      tile[kk * 4 + jj] = j < n ? b[j * k + kk] : 0.0f;
    }
  }
}

std::size_t packed_bt_floats(std::size_t n, std::size_t k) {
  return (n + 3) / 4 * 4 * k;
}

float* pack_scratch(std::size_t floats) {
  // Shrink hysteresis: a capacity more than 4x the request (above a 64 KiB
  // floor) is released rather than retained, so the high-water mark of one
  // large layer does not pin memory for the rest of the thread's lifetime.
  constexpr std::size_t kShrinkFloorFloats = 16 * 1024;
  PackScratch& s = t_pack_scratch;
  const bool grow = s.cap < floats;
  const bool oversized = s.cap > 4 * floats && s.cap > kShrinkFloorFloats;
  if (grow || oversized) {
    ::operator delete(static_cast<void*>(s.data), std::align_val_t{64});
    s.data = nullptr;
    s.cap = 0;
    s.data = static_cast<float*>(
        ::operator new(floats * sizeof(float), std::align_val_t{64}));
    s.cap = floats;
  }
  return s.data;
}

std::size_t pack_scratch_capacity_for_testing() { return t_pack_scratch.cap; }

#if defined(VCDL_GEMM_AVX2)
const GemmKernels& avx2_kernels();  // gemm_kernels_avx2.cpp
#endif

const GemmKernels& kernels_for(SimdTier tier) {
  switch (tier) {
#if defined(VCDL_GEMM_AVX2)
    case SimdTier::avx2:
      return avx2_kernels();
#endif
    default:
      return kScalarKernels;
  }
}

}  // namespace detail

const char* simd_tier_name(SimdTier tier) {
  switch (tier) {
    case SimdTier::avx2:
      return "avx2";
    default:
      return "scalar";
  }
}

std::vector<SimdTier> available_simd_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::scalar};
  if (detail::tier_available(SimdTier::avx2)) tiers.push_back(SimdTier::avx2);
  return tiers;
}

SimdTier active_simd_tier() {
  if (detail::tier_override().has_value()) return *detail::tier_override();
  static const SimdTier t = detail::best_tier();
  return t;
}

void set_simd_tier_override(std::optional<SimdTier> tier) {
  if (tier.has_value() && !detail::tier_available(*tier)) return;
  detail::tier_override() = tier;
}

}  // namespace vcdl::ops
