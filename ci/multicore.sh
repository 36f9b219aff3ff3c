#!/usr/bin/env bash
# Multicore repeat stage: runs the concurrency-sensitive suites 20 times in a
# row against an existing build tree, stopping at the first failure. A race
# that a single ctest pass misses on a multicore host shows up here as a
# flake. The host's core count is printed first so a result can be read
# against the hardware it ran on.
#
# Usage: ci/multicore.sh <build-dir>
set -euo pipefail

BUILD_DIR="${1:?usage: ci/multicore.sh <build-dir>}"

# The suites whose tests run real threads: the store and assimilator fuzz,
# the store's concurrent updates, the worker pool, ExecContext
# forward/backward, the GEMM kernels and the metrics registry.
MULTICORE_REGEX='^(test_fuzz|test_storage|test_thread_pool|test_exec_threading|test_kernels|test_obs)$'

echo "nproc: $(nproc)"
# --no-tests=error: a regex that matches nothing must fail the stage, not
# pass it silently.
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
  --repeat until-fail:20 -R "${MULTICORE_REGEX}"
