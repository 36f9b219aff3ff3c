// GEMM micro-kernel equivalence & dispatch suite.
//
// The SIMD tiers (tensor/gemm_kernels.hpp) promise BITWISE equality with the
// portable scalar reference — that identity is what lets the serial-path
// goldens and the TraceDigest replay oracle hold no matter which tier the
// host dispatches to. This suite enforces the promise empirically:
//   * seeded properties run every available tier against the scalar kernel
//     on random shapes/values for all three matmul entry points and demand
//     bit equality (failure messages report the max ULP distance so a
//     near-miss — e.g. an FMA contraction sneaking back in — is obvious);
//   * a property seeds C with -0.0 beside rows of signed-zero A elements, so
//     a vector tier that skips a zero A element instead of adding 0·b shows;
//   * NaN and Inf in B reach C through a zero A element on every tier;
//   * unit tests pin the dispatch ladder (override > best), the packed
//     B^T tile layout, and the pack-scratch shrink hysteresis.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "tensor/ops.hpp"
#include "testing/prop.hpp"

namespace vcdl {
namespace {

using ops::SimdTier;
using testing::prop_assert;
using testing::PropConfig;
using testing::PropResult;
using testing::run_property;

// RAII: force a tier for one scope, always restore normal selection.
struct TierGuard {
  explicit TierGuard(SimdTier t) { ops::set_simd_tier_override(t); }
  ~TierGuard() { ops::set_simd_tier_override(std::nullopt); }
};

bool tier_available(SimdTier t) {
  for (SimdTier a : ops::available_simd_tiers()) {
    if (a == t) return true;
  }
  return false;
}

std::vector<SimdTier> vector_tiers() {
  std::vector<SimdTier> out;
  for (SimdTier t : ops::available_simd_tiers()) {
    if (t != SimdTier::scalar) out.push_back(t);
  }
  return out;
}

// ULP distance between two finite floats (monotone int reinterpretation).
std::int64_t ulp_distance(float a, float b) {
  std::int32_t ia, ib;
  std::memcpy(&ia, &a, 4);
  std::memcpy(&ib, &b, 4);
  if (ia < 0) ia = std::numeric_limits<std::int32_t>::min() - ia;
  if (ib < 0) ib = std::numeric_limits<std::int32_t>::min() - ib;
  return std::abs(static_cast<std::int64_t>(ia) - ib);
}

// Bitwise comparison with a diagnostic that names the worst element.
void assert_bitwise_equal(const Tensor& ref, const Tensor& got,
                          const std::string& what) {
  prop_assert(ref.numel() == got.numel(), what + ": size mismatch");
  std::int64_t worst = 0;
  std::size_t worst_i = 0;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < ref.numel(); ++i) {
    if (std::memcmp(&ref.flat()[i], &got.flat()[i], 4) != 0) {
      ++mismatches;
      const std::int64_t d = ulp_distance(ref[i], got[i]);
      if (d >= worst) {
        worst = d;
        worst_i = i;
      }
    }
  }
  prop_assert(mismatches == 0,
              what + ": " + std::to_string(mismatches) +
                  " elements differ from scalar; worst at [" +
                  std::to_string(worst_i) + "] " +
                  std::to_string(ref[worst_i]) + " vs " +
                  std::to_string(got[worst_i]) + " (" + std::to_string(worst) +
                  " ULP)");
}

// Random matrix with exact zeros sprinkled in, so every tier multiplies
// zero A elements as well as dense runs.
Tensor random_mat(Rng& rng, std::size_t r, std::size_t c) {
  Tensor t(Shape{r, c});
  for (auto& v : t.flat()) {
    v = rng.uniform_index(8) == 0 ? 0.0f
                                  : static_cast<float>(rng.normal(0.0, 1.0));
  }
  return t;
}

struct GemmCase {
  std::size_t m, k, n;
  Tensor a, b, c0;  // c0: accumulate seed
  bool accumulate;
};

GemmCase random_case(Rng& rng, int size, bool a_is_kxm, bool b_is_nxk) {
  GemmCase gc;
  gc.m = 1 + rng.uniform_index(static_cast<std::uint64_t>(size) + 4);
  gc.k = 1 + rng.uniform_index(static_cast<std::uint64_t>(size) + 4);
  // Bias n across the vector widths (8/16-lane tiles + remainder columns).
  gc.n = 1 + rng.uniform_index(2 * static_cast<std::uint64_t>(size) + 18);
  gc.a = a_is_kxm ? random_mat(rng, gc.k, gc.m) : random_mat(rng, gc.m, gc.k);
  gc.b = b_is_nxk ? random_mat(rng, gc.n, gc.k) : random_mat(rng, gc.k, gc.n);
  gc.accumulate = rng.uniform_index(2) == 0;
  gc.c0 = random_mat(rng, gc.m, gc.n);
  return gc;
}

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&, bool);

// Runs `fn` under the scalar tier and under every available vector tier and
// demands bitwise-equal C.
void check_gemm_equivalence(const GemmCase& gc, GemmFn fn, const char* what) {
  Tensor c_ref = gc.c0;
  {
    TierGuard g(SimdTier::scalar);
    fn(gc.a, gc.b, c_ref, gc.accumulate);
  }
  for (SimdTier t : vector_tiers()) {
    Tensor c_vec = gc.c0;
    TierGuard g(t);
    fn(gc.a, gc.b, c_vec, gc.accumulate);
    assert_bitwise_equal(c_ref, c_vec,
                         std::string(what) + "/" + ops::simd_tier_name(t));
  }
}

// --- Scalar-vs-SIMD properties ---------------------------------------------

TEST(KernelEquivalence, MatmulEveryTierBitIdenticalToScalar) {
  PropConfig cfg;
  cfg.name = "kernels.matmul_tier_equiv";
  cfg.suite = "test_kernels";
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const GemmCase gc = random_case(rng, size, false, false);
    check_gemm_equivalence(gc, &ops::matmul, "matmul");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

TEST(KernelEquivalence, MatmulAtBEveryTierBitIdenticalToScalar) {
  PropConfig cfg;
  cfg.name = "kernels.matmul_at_b_tier_equiv";
  cfg.suite = "test_kernels";
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const GemmCase gc = random_case(rng, size, /*a_is_kxm=*/true, false);
    check_gemm_equivalence(gc, &ops::matmul_at_b, "matmul_at_b");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

TEST(KernelEquivalence, MatmulABtEveryTierBitIdenticalToScalar) {
  PropConfig cfg;
  cfg.name = "kernels.matmul_a_bt_tier_equiv";
  cfg.suite = "test_kernels";
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    const GemmCase gc = random_case(rng, size, false, /*b_is_nxk=*/true);
    check_gemm_equivalence(gc, &ops::matmul_a_bt, "matmul_a_bt");
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// Every tier adds 0·b for a zero A element. Whether it does, and with which
// sign, shows only on a C element holding -0.0 (-0.0 + +0.0 is +0.0), which
// random_mat never seeds. Here C starts at -0.0 and every third row of A is
// signed zeros, beside nonzero rows in the same register block: a tier that
// skips those terms, or gets the sign of 0·b wrong, differs from scalar.
TEST(KernelEquivalence, SignedZerosMatchScalarOnEveryTier) {
  PropConfig cfg;
  cfg.name = "kernels.signed_zeros_match_scalar";
  cfg.suite = "test_kernels";
  cfg.max_size = 16;
  const PropResult r = run_property(cfg, [](Rng& rng, int size) {
    for (const bool a_is_kxm : {false, true}) {
      GemmCase gc = random_case(rng, size, a_is_kxm, false);
      for (std::size_t i = 1; i < gc.m; i += 3) {
        for (std::size_t kk = 0; kk < gc.k; ++kk) {
          float& v = a_is_kxm ? gc.a.at(kk, i) : gc.a.at(i, kk);
          v = kk % 2 == 0 ? -0.0f : 0.0f;
        }
      }
      gc.c0.fill(-0.0f);
      gc.accumulate = true;
      GemmFn fn = &ops::matmul;
      if (a_is_kxm) fn = &ops::matmul_at_b;
      check_gemm_equivalence(gc, fn, a_is_kxm ? "matmul_at_b" : "matmul");
    }
  });
  EXPECT_TRUE(r.passed) << r.message << "\nreplay: " << r.repro;
}

// No scan guards B: a NaN or an Inf in B reaches C by IEEE arithmetic alone,
// because every tier multiplies a zero A element like any other and 0·NaN
// and 0·Inf are NaN. Checked through both broadcast entry points, with the
// bad value at each of the 63 positions of B and a zero in A facing it.
// (NaN payload bits are not compared — only that both tiers agree on where
// NaNs appear and on every other element.)
TEST(KernelEquivalence, NanInBPropagatesOnEveryTier) {
  for (const bool a_is_kxm : {false, true}) {
    GemmFn fn = &ops::matmul;
    if (a_is_kxm) fn = &ops::matmul_at_b;
    const char* what = a_is_kxm ? "matmul_at_b" : "matmul";
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
      for (std::size_t at = 0; at < 7 * 9; ++at) {
        Rng rng(99);
        // matmul_at_b reads A stored K x M.
        Tensor a = a_is_kxm ? random_mat(rng, 7, 5) : random_mat(rng, 5, 7);
        Tensor b = random_mat(rng, 7, 9);
        const std::size_t row = at / 9, col = at % 9;
        (a_is_kxm ? a.at(row, 2) : a.at(2, row)) = 0.0f;
        b.at(row, col) = bad;
        Tensor c_ref;
        {
          TierGuard g(SimdTier::scalar);
          fn(a, b, c_ref, false);
        }
        EXPECT_TRUE(std::isnan(c_ref.at(2, col)))
            << what << ": " << bad << " at " << at;
        for (SimdTier t : vector_tiers()) {
          TierGuard g(t);
          Tensor c_vec;
          fn(a, b, c_vec, false);
          for (std::size_t i = 0; i < c_ref.numel(); ++i) {
            const bool same = std::isnan(c_ref[i]) ? std::isnan(c_vec[i])
                                                   : c_ref[i] == c_vec[i];
            EXPECT_TRUE(same)
                << what << "/" << ops::simd_tier_name(t) << ": " << bad
                << " at " << at << ", element " << i << ": " << c_ref[i]
                << " vs " << c_vec[i];
          }
        }
      }
    }
  }
}

// --- Dispatch ladder -------------------------------------------------------

TEST(KernelDispatch, ScalarTierAlwaysAvailable) {
  EXPECT_TRUE(tier_available(SimdTier::scalar));
}

TEST(KernelDispatch, ActiveTierIsAvailable) {
  EXPECT_TRUE(tier_available(ops::active_simd_tier()));
}

TEST(KernelDispatch, OverrideForcesTierAndRestores) {
  const SimdTier before = ops::active_simd_tier();
  {
    TierGuard g(SimdTier::scalar);
    EXPECT_EQ(ops::active_simd_tier(), SimdTier::scalar);
  }
  EXPECT_EQ(ops::active_simd_tier(), before);
}

TEST(KernelDispatch, ForcingUnavailableTierIsIgnored) {
  if (tier_available(SimdTier::avx2)) {
    GTEST_SKIP() << "every tier is available on this CPU";
  }
  const SimdTier before = ops::active_simd_tier();
  ops::set_simd_tier_override(SimdTier::avx2);
  EXPECT_EQ(ops::active_simd_tier(), before);
  ops::set_simd_tier_override(std::nullopt);
}

TEST(KernelDispatch, TierNamesAreStable) {
  EXPECT_STREQ(ops::simd_tier_name(SimdTier::scalar), "scalar");
  EXPECT_STREQ(ops::simd_tier_name(SimdTier::avx2), "avx2");
}

// --- Packed B^T panel ------------------------------------------------------

TEST(KernelPacking, PackBtTilesLayout) {
  // b is 6 x 3 (n=6 columns of B^T, k=3): one full tile of 4, then a tile
  // holding the 2 remainder columns and 2 zero columns.
  const std::size_t n = 6, k = 3;
  Tensor b(Shape{n, k});
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      b.at(j, kk) = static_cast<float>(10 * j + kk + 1);
    }
  }
  const std::size_t floats = ops::detail::packed_bt_floats(n, k);
  ASSERT_EQ(floats, 2 * 4 * k);
  std::vector<float> packed(floats + 1, -777.0f);  // +1 canary past the end
  ops::detail::pack_bt_tiles(b.data(), n, k, packed.data());
  for (std::size_t j = 0; j < 8; ++j) {
    const std::size_t t = j / 4;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float want = j < n ? b.at(j, kk) : 0.0f;
      EXPECT_EQ(packed[t * 4 * k + kk * 4 + j % 4], want)
          << "k=" << kk << " j=" << j;
    }
  }
  EXPECT_EQ(packed[floats], -777.0f);  // nothing written past the panel
}

// --- Pack-scratch lifetime -------------------------------------------------

TEST(KernelPacking, PackScratchShrinksAfterOversizedUse) {
  // Grow to a big panel, then request a small one: the 4x hysteresis must
  // release the large block instead of pinning the high-water mark forever.
  ops::detail::pack_scratch(1 << 20);
  EXPECT_GE(ops::detail::pack_scratch_capacity_for_testing(), std::size_t{1}
                                                                  << 20);
  ops::detail::pack_scratch(1000);
  EXPECT_EQ(ops::detail::pack_scratch_capacity_for_testing(),
            std::size_t{1000});
}

TEST(KernelPacking, PackScratchKeepsModestCapacityAcrossSmallCalls) {
  // Below the floor the buffer is sticky — no realloc churn between layers
  // of slightly different sizes.
  ops::detail::pack_scratch(2000);
  const float* first = ops::detail::pack_scratch(100);
  EXPECT_EQ(ops::detail::pack_scratch_capacity_for_testing(),
            std::size_t{2000});
  EXPECT_EQ(first, ops::detail::pack_scratch(600));
}

}  // namespace
}  // namespace vcdl
