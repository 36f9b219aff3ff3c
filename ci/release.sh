#!/usr/bin/env bash
# Release stage: builds the project at CMAKE_BUILD_TYPE=Release (-O3) and
# runs the whole ctest suite there. Tier 1 builds RelWithDebInfo (-O2) while
# perfbench, which every perf figure cites, builds Release; this stage tests
# the kernels at the second optimization level that ships.
#
# Usage: ci/release.sh [extra ctest args...]
# Builds into build-release/ with examples off. VCDL_WERROR stays off: GCC 12
# at -O3 prints -Wrestrict warnings from inside libstdc++ (CHANGES.md).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR=build-release

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=Release \
  -DVCDL_BUILD_EXAMPLES=OFF
cmake --build "${BUILD_DIR}" -j "$(nproc)"

# --no-tests=error: an empty test list must fail the stage, not pass it.
ctest --test-dir "${BUILD_DIR}" --output-on-failure --no-tests=error \
  -j "$(nproc)" "$@"
