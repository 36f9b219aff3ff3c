// AVX2 GEMM micro-kernels. Compiled with -mavx2 -ffp-contract=off (see
// src/tensor/CMakeLists.txt); selected at runtime only when cpuid reports
// AVX2, so the rest of the binary stays runnable on older x86-64.
//
// Bit-exactness contract (gemm_kernels.hpp): every vector lane is one
// independent C column accumulating its k-terms in ascending order with an
// explicit mul-then-add pair — the same float (or double, for a_bt) rounding
// sequence as the scalar reference. No FMA, no horizontal reduction, no
// reordering. tests/test_kernels.cpp property-checks this against the scalar
// tier; the serial-path goldens in test_exec_threading pin it end-to-end.
//
// A register block of R rows × T vectors keeps R·T accumulators in flight
// (gemm_kernels.hpp). The block loops carry `#pragma GCC unroll`: without
// it GCC 12 leaves the acc[R][T] arrays in memory, at -O3 as at -O2.

#include "tensor/gemm_kernels.hpp"

#if defined(VCDL_GEMM_AVX2)

#include <immintrin.h>

namespace vcdl::ops::detail {
namespace {

// Lane masks: kLanes + 8 - w starts with w set lanes, then clear ones.
constexpr int kLanes[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                            0,  0,  0,  0,  0,  0,  0,  0};

__m256i mask8(std::size_t w) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kLanes + 8 - w));
}

__m128i mask4(std::size_t w) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(kLanes + 8 - w));
}

// C rows [0,R) × one column tile, A and C pre-offset to the block's first
// row and B and C to its first column. A tile is two full 8-lane vectors
// (16 columns), or with kMasked one vector whose `mask` lanes are the real
// columns; masked-off lanes are neither read nor written. Every row is
// updated at every k, a zero A element included, as in the scalar loop.
template <int R, bool kMasked>
void broadcast_block(const float* a, std::size_t a_row_stride,
                     std::size_t a_col_stride, const float* b, float* c,
                     std::size_t k_dim, std::size_t n_dim, __m256i mask) {
  constexpr int T = kMasked ? 1 : 2;
  const auto load = [mask](const float* p) {
    if constexpr (kMasked) {
      return _mm256_maskload_ps(p, mask);
    } else {
      return _mm256_loadu_ps(p);
    }
  };
  __m256 acc[R][T];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int t = 0; t < T; ++t) acc[r][t] = load(c + r * n_dim + 8 * t);
  }
  for (std::size_t k = 0; k < k_dim; ++k) {
    const float* a_k = a + k * a_col_stride;
    const float* b_row = b + k * n_dim;
    __m256 vb[T];
#pragma GCC unroll 2
    for (int t = 0; t < T; ++t) vb[t] = load(b_row + 8 * t);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256 va = _mm256_set1_ps(a_k[r * a_row_stride]);
#pragma GCC unroll 2
      for (int t = 0; t < T; ++t) {
        acc[r][t] = _mm256_add_ps(acc[r][t], _mm256_mul_ps(va, vb[t]));
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 2
    for (int t = 0; t < T; ++t) {
      float* p = c + r * n_dim + 8 * t;
      if constexpr (kMasked) {
        _mm256_maskstore_ps(p, mask, acc[r][t]);
      } else {
        _mm256_storeu_ps(p, acc[r][t]);
      }
    }
  }
}

// One column tile over rows [r0,r1): blocks of 4 rows, then single rows.
template <bool kMasked>
void broadcast_tile(const float* a, std::size_t a_row_stride,
                    std::size_t a_col_stride, const float* b, float* c,
                    std::size_t r0, std::size_t r1, std::size_t k_dim,
                    std::size_t n_dim, __m256i mask) {
  std::size_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    broadcast_block<4, kMasked>(a + i * a_row_stride, a_row_stride,
                                a_col_stride, b, c + i * n_dim, k_dim, n_dim,
                                mask);
  }
  for (; i < r1; ++i) {
    broadcast_block<1, kMasked>(a + i * a_row_stride, a_row_stride,
                                a_col_stride, b, c + i * n_dim, k_dim, n_dim,
                                mask);
  }
}

// j-tile outer, row block inner: the (k_dim x 16)-float B strip a tile
// touches stays L1-resident across every row block.
void broadcast_rows_avx2(const float* a, std::size_t a_row_stride,
                         std::size_t a_col_stride, const float* b, float* c,
                         std::size_t r0, std::size_t r1, std::size_t k_dim,
                         std::size_t n_dim) {
  std::size_t j0 = 0;
  for (; j0 + 16 <= n_dim; j0 += 16) {
    broadcast_tile<false>(a, a_row_stride, a_col_stride, b + j0, c + j0, r0,
                          r1, k_dim, n_dim, __m256i{});
  }
  // The 1-15 columns left: one or two 8-lane tiles, the last one masked.
  for (; j0 < n_dim; j0 += 8) {
    const std::size_t w = n_dim - j0 < 8 ? n_dim - j0 : 8;
    broadcast_tile<true>(a, a_row_stride, a_col_stride, b + j0, c + j0, r0,
                         r1, k_dim, n_dim, mask8(w));
  }
}

// C rows [0,R) × T packed width-4 tiles starting at column j0: R·T double
// chains, each the scalar per-element sequence. Only the real lanes of the
// zero-padded last tile are stored.
template <int R, int T>
void a_bt_block(const float* a, const float* tiles, float* c,
                std::size_t k_dim, std::size_t n_dim, std::size_t j0) {
  __m256d acc[R][T];
#pragma GCC unroll 2
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < T; ++t) acc[r][t] = _mm256_setzero_pd();
  }
  for (std::size_t kk = 0; kk < k_dim; ++kk) {
    __m256d vb[T];
#pragma GCC unroll 4
    for (int t = 0; t < T; ++t) {
      vb[t] = _mm256_cvtps_pd(_mm_loadu_ps(tiles + (t * k_dim + kk) * 4));
    }
#pragma GCC unroll 2
    for (int r = 0; r < R; ++r) {
      const __m256d va = _mm256_set1_pd(static_cast<double>(a[r * k_dim + kk]));
#pragma GCC unroll 4
      for (int t = 0; t < T; ++t) {
        acc[r][t] = _mm256_add_pd(acc[r][t], _mm256_mul_pd(va, vb[t]));
      }
    }
  }
#pragma GCC unroll 2
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (int t = 0; t < T; ++t) {
      const std::size_t j = j0 + 4 * t;
      float* p = c + r * n_dim + j;
      // Same rounding as the scalar double->float cast.
      const __m128 accf = _mm256_cvtpd_ps(acc[r][t]);
      if (j + 4 <= n_dim) {
        _mm_storeu_ps(p, _mm_add_ps(_mm_loadu_ps(p), accf));
      } else {
        const __m128i m = mask4(n_dim - j);
        _mm_maskstore_ps(p, m, _mm_add_ps(_mm_maskload_ps(p, m), accf));
      }
    }
  }
}

template <int R>
void a_bt_row_block(const float* a, const float* packed, float* c,
                    std::size_t k_dim, std::size_t n_dim) {
  const std::size_t tiles = (n_dim + 3) / 4;
  std::size_t t = 0;
  for (; t + 4 <= tiles; t += 4) {
    a_bt_block<R, 4>(a, packed + t * k_dim * 4, c, k_dim, n_dim, 4 * t);
  }
  for (; t < tiles; ++t) {
    a_bt_block<R, 1>(a, packed + t * k_dim * 4, c, k_dim, n_dim, 4 * t);
  }
}

// Reads every column, the n%4 remainder included, from the padded panel.
void a_bt_rows_avx2(const float* a, const float* /*b*/, const float* packed,
                    float* c, std::size_t r0, std::size_t r1,
                    std::size_t k_dim, std::size_t n_dim) {
  std::size_t i = r0;
  for (; i + 2 <= r1; i += 2) {
    a_bt_row_block<2>(a + i * k_dim, packed, c + i * n_dim, k_dim, n_dim);
  }
  if (i < r1) {
    a_bt_row_block<1>(a + i * k_dim, packed, c + i * n_dim, k_dim, n_dim);
  }
}

constexpr GemmKernels kAvx2Kernels{&broadcast_rows_avx2, &a_bt_rows_avx2,
                                   /*wants_bt_panel=*/true};

}  // namespace

const GemmKernels& avx2_kernels() { return kAvx2Kernels; }

}  // namespace vcdl::ops::detail

#endif  // VCDL_GEMM_AVX2
