#!/usr/bin/env bash
# Build the project with ASan+UBSan and run the tier-1 test suite under them,
# then rebuild with TSan and run the threading-sensitive suites (the worker
# pool, the GEMM kernels, the ExecContext forward/backward paths, and the
# parameter store's concurrent updates).
#
# Usage: ci/sanitize.sh [extra ctest args...]   (extra args apply to the
# ASan/UBSan stage only). Set VCDL_SKIP_TSAN=1 to run just the first stage,
# VCDL_TSAN_REGEX to override which suites the TSan stage runs (ci/soak.sh
# uses this to point TSan at the property/soak tiers instead).
# Dedicated build trees (build-sanitize/, build-tsan/) keep the regular
# build untouched. Both build with VCDL_WERROR=ON, so a new warning fails
# the stage.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-sanitize

# Benches stay ON in this stage: the tier-1 suite includes
# bench_hotpath_smoke, the thread-scaling gate (fails when the pooled hot
# path is slower than serial at the widest in-core width). Running it under
# ASan is fine — the gate compares pooled vs serial, both equally slowed.
cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVCDL_SANITIZE="address;undefined" \
  -DVCDL_WERROR=ON \
  -DVCDL_BUILD_BENCHES=ON \
  -DVCDL_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# halt_on_error so a UBSan report fails the suite instead of scrolling by;
# detect_leaks exercises LSan on every test exit.
export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

# --no-tests=error: a label/regex filter that matches nothing is a CI bug
# (the suite silently "passed" without running), not a success.
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
  -j "$(nproc)" "$@"

if [[ "${VCDL_SKIP_TSAN:-0}" == "1" ]]; then
  echo "VCDL_SKIP_TSAN=1 — skipping the TSan stage."
  exit 0
fi

# --- TSan stage ------------------------------------------------------------
# TSan is incompatible with ASan, so it needs its own tree. Only the suites
# that exercise real concurrency are worth the ~10x slowdown.
TSAN_DIR=build-tsan

cmake -B "${TSAN_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVCDL_SANITIZE=thread \
  -DVCDL_WERROR=ON \
  -DVCDL_BUILD_BENCHES=OFF \
  -DVCDL_BUILD_EXAMPLES=OFF
cmake --build "${TSAN_DIR}" -j "$(nproc)"

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

# test_kernels runs the scalar-vs-SIMD equivalence properties with whatever
# vector tier the host dispatches (plus a shared 4-thread pool), so the TSan
# stage exercises the packed-panel sharing and caller-participation paths
# with SIMD enabled — not just the scalar fallback.
TSAN_REGEX="${VCDL_TSAN_REGEX:-test_thread_pool|test_tensor|test_nn_layers|test_nn_model|test_exec_threading|test_kernels|test_obs|test_wire_codec|test_consensus|test_shard_plane|test_fleet|test_storage}"
# Explicit status propagation: the TSan ctest is the last command, but making
# the exit code visible keeps the contract obvious (and ci/test_ci_scripts.sh
# asserts a failing stage fails the script).
tsan_status=0
ctest --test-dir "${TSAN_DIR}" --output-on-failure --no-tests=error \
  -j "$(nproc)" -R "${TSAN_REGEX}" || tsan_status=$?
exit "${tsan_status}"
