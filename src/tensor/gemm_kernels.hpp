// GEMM micro-kernel dispatch (vcdl::ops).
//
// The three matmul entry points in ops.cpp share two inner-loop shapes:
//
//   * broadcast_rows — the "broadcast-A" form: for each output row i and each
//     reduction index k, a single A element fans out across a unit-stride run
//     of B row k into a unit-stride run of C row i. Both matmul (A row-major)
//     and matmul_at_b (A stored K x M) are this kernel with different A
//     strides. Because every C element still accumulates its k-terms in
//     strictly ascending order — and the vector lanes are independent C
//     columns — a lane-wise mul-then-add vector kernel produces *bit-identical*
//     results to the scalar loop. That identity is the whole design: the
//     serial-path goldens and the TraceDigest replay oracle hold under every
//     tier, and B needs no repacking at all (row-major B already is the
//     panel the kernel reads).
//   * a_bt_rows — the dot-product form with a double accumulator
//     (c[i][j] += float(Σ_k double(a[i][k])·double(b[j][k]))). Here the
//     k-runs of B are rows of a transposed operand, so the vector tiers read
//     a width-4 packed B^T panel, built once per call (pack_bt_tiles) before
//     the kernel runs. Per lane the arithmetic is the same double mul/add
//     sequence in the same order, so this tier is bit-identical too.
//
// Register blocks: a vector kernel keeps a block of C in registers — AVX2
// 4 rows × 16 columns for broadcast_rows (8 float chains sharing each B
// load; 8-lane tiles, the last one masked, for the n%16 columns) and
// 2 rows × 4 packed tiles for a_bt_rows (8 double chains) — so many elements
// are in flight while each one's arithmetic stays the scalar sequence.
// A zero A element is multiplied like any other, so NaN and Inf in B
// propagate by IEEE arithmetic (0·NaN and 0·Inf are NaN) on every tier.
// The block loops carry `#pragma GCC unroll`, without which GCC 12 keeps the
// accumulator arrays in memory, at -O3 as at -O2.
//
// Tiers: portable scalar (always available, the reference; other CPUs,
// aarch64 included, run it) and AVX2 (x86-64, compiled in when the toolchain
// supports -mavx2, selected at runtime via cpuid). The kernel translation
// units are built with -ffp-contract=off so no compiler can fuse the mul/add
// pairs into FMAs and silently change rounding.
//
// Selection: set_simd_tier_override (tests) > best tier the CPU supports.
// tests/test_kernels.cpp holds the scalar-vs-vector equivalence properties.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace vcdl::ops {

enum class SimdTier { scalar = 0, avx2 = 1 };

const char* simd_tier_name(SimdTier tier);

/// Tiers usable in this process: scalar always, plus any vector tier both
/// compiled into the binary and supported by the running CPU.
std::vector<SimdTier> available_simd_tiers();

/// The tier the matmul entry points dispatch to (override > best).
SimdTier active_simd_tier();

/// Test hook: forces a tier (std::nullopt restores normal selection). Not
/// thread-safe — call only while no GEMMs are in flight. Forcing an
/// unavailable tier is ignored.
void set_simd_tier_override(std::optional<SimdTier> tier);

namespace detail {

struct GemmKernels {
  /// C rows [0,m): c[i][j] += Σ_k A(i,k)·B[k][j], one mul-then-add per
  /// k-term, k strictly ascending per element, where
  /// A(i,k) = a[i·a_row_stride + k·a_col_stride]. A zero A element is
  /// multiplied like any other.
  void (*broadcast_rows)(const float* a, std::size_t a_row_stride,
                         std::size_t a_col_stride, const float* b, float* c,
                         std::size_t m, std::size_t k_dim, std::size_t n_dim);
  /// C rows [0,m): c[i][j] += float(Σ_k double(a[i·K+k])·double(b[j·K+k])),
  /// k ascending. `packed` is the pack_bt_tiles panel when wants_bt_panel,
  /// else nullptr. AVX2 reads every column from it, the zero-padded last
  /// tile included.
  void (*a_bt_rows)(const float* a, const float* b, const float* packed,
                    float* c, std::size_t m, std::size_t k_dim,
                    std::size_t n_dim);
  /// Whether a_bt_rows reads the packed B^T panel. The scalar tier walks
  /// row-major b directly (its k-runs are already unit-stride).
  bool wants_bt_panel = false;
};

/// Packs b (stored n x k, row-major) into width-4 column tiles,
/// packed[(j/4)·k·4 + kk·4 + (j%4)] = b[j·k + kk]. When n%4 != 0 the last
/// tile holds the remainder columns and zeros for j >= n. Writes exactly
/// packed_bt_floats(n, k) = ceil(n/4)·4·k floats.
void pack_bt_tiles(const float* b, std::size_t n, std::size_t k, float* packed);
std::size_t packed_bt_floats(std::size_t n, std::size_t k);

/// Per-thread packing scratch, sized to the call: grows on demand and
/// reallocates down once the held capacity exceeds 4x the need (above a small
/// floor), so one huge layer's panel is not retained for the thread's
/// lifetime. Storage is 64-byte aligned and never value-initialized.
float* pack_scratch(std::size_t floats);
std::size_t pack_scratch_capacity_for_testing();

const GemmKernels& kernels_for(SimdTier tier);

}  // namespace detail
}  // namespace vcdl::ops
