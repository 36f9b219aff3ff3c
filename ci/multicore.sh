#!/usr/bin/env bash
# Multicore repeat stage: runs the concurrency-sensitive suites 20 times in a
# row against an existing build tree, stopping at the first failure, then
# repeats the worker-pool and ExecContext suites 20 times under TSan in the
# tree ci/sanitize.sh builds. A race that a single ctest pass misses on a
# multicore host shows up here as a flake, or as a TSan report. The host's
# core count is printed first so a result can be read against the hardware
# it ran on.
#
# Usage: ci/multicore.sh <build-dir> [tsan-build-dir]
#   tsan-build-dir defaults to build-tsan/ at the repo root, where
#   ci/sanitize.sh builds it; run that script first.
set -euo pipefail

BUILD_DIR="${1:?usage: ci/multicore.sh <build-dir> [tsan-build-dir]}"
TSAN_DIR="${2:-$(cd "$(dirname "$0")/.." && pwd)/build-tsan}"

# The suites whose tests run real threads: the store and assimilator fuzz,
# the store's concurrent updates, the worker pool, ExecContext
# forward/backward and the metrics registry; plus the GEMM kernels, which
# run on their caller's thread and repeat here as the tier-equivalence
# properties behind the pooled steps' bits.
MULTICORE_REGEX='^(test_fuzz|test_storage|test_thread_pool|test_exec_threading|test_kernels|test_obs)$'
# The pool's spin, park and claim handshakes, and the pooled and nested
# training steps built on them, repeated under TSan.
TSAN_REPEAT_REGEX='^(test_thread_pool|test_exec_threading)$'

echo "nproc: $(nproc)"
# --no-tests=error: a regex that matches nothing must fail the stage, not
# pass it silently.
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
  --repeat until-fail:20 -R "${MULTICORE_REGEX}"

if [[ ! -f "${TSAN_DIR}/CTestTestfile.cmake" ]]; then
  echo "no TSan build tree at ${TSAN_DIR}: run ci/sanitize.sh first" >&2
  exit 1
fi
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "${TSAN_DIR}" --output-on-failure --no-tests=error \
  --repeat until-fail:20 -R "${TSAN_REPEAT_REGEX}"
