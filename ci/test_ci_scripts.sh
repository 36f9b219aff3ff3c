#!/usr/bin/env bash
# Self-test for the CI shell scripts — the failure modes that don't fail.
#
# The bug class this guards: `ctest -R <regex>` (or -L <label>) that matches
# zero tests exits 0, so a typo in a suite name silently turns a sanitizer
# stage into a no-op that "passes". ci/sanitize.sh closes the hole with
# --no-tests=error on every ctest invocation plus explicit exit-status
# propagation; this script proves the mechanism actually bites, against the
# real build tree, and greps the scripts so the flag can't be dropped.
#
# Usage: ci/test_ci_scripts.sh <build-dir>
# Registered as the tier-1 ctest test `ci_script_selftest`.
set -uo pipefail

BUILD_DIR="${1:?usage: ci/test_ci_scripts.sh <build-dir>}"
cd "$(dirname "$0")/.."

failures=0
check() {
  local label="$1"
  shift
  if "$@"; then
    echo "ok:   ${label}"
  else
    echo "FAIL: ${label}"
    failures=$((failures + 1))
  fi
}

# 1. The scripts still parse.
check "sanitize.sh syntax" bash -n ci/sanitize.sh
check "soak.sh syntax" bash -n ci/soak.sh
check "multicore.sh syntax" bash -n ci/multicore.sh

# 2. Every ctest invocation in the CI scripts carries --no-tests=error.
ctest_lines=$(grep -c '^ctest\|^  ctest\|ctest --test-dir' ci/sanitize.sh)
guarded_lines=$(grep -c -- '--no-tests=error' ci/sanitize.sh)
check "all sanitize.sh ctest calls guarded (${guarded_lines}/${ctest_lines})" \
  test "${guarded_lines}" -ge "${ctest_lines}"

# 3. A regex matching zero tests must FAIL under the guard flag (this is the
#    exact silent-skip bug), against the real build tree.
check "empty ctest regex fails" \
  bash -c "! ctest --test-dir '${BUILD_DIR}' --no-tests=error \
             -R '^vcdl_no_such_test_xyzzy\$' >/dev/null 2>&1"

# 4. A deliberately failing test fails ctest — and that status survives the
#    `status=0; ctest || status=\$?; exit \$status` propagation idiom the
#    scripts use.
tmp=$(mktemp -d)
trap 'rm -rf "${tmp}"' EXIT
echo 'add_test(deliberately_failing /bin/false)' >"${tmp}/CTestTestfile.cmake"
check "failing test fails ctest" \
  bash -c "! ctest --test-dir '${tmp}' --no-tests=error >/dev/null 2>&1"
check "failing test status propagates" \
  bash -c "s=0; ctest --test-dir '${tmp}' --no-tests=error \
             >/dev/null 2>&1 || s=\$?; exit \$((s == 0))"

# 5. The suites the TSan stage targets by default actually exist in this
#    build, so the regex can never silently select nothing.
for suite in test_thread_pool test_tensor test_nn_layers test_nn_model \
             test_exec_threading test_kernels test_obs test_wire_codec \
             test_consensus test_shard_plane test_fleet test_storage; do
  check "tsan target ${suite} registered" \
    bash -c "ctest --test-dir '${BUILD_DIR}' -N -R '^${suite}\$' \
               2>/dev/null | grep -q 'Total Tests: 1'"
done

# 6. The consensus suite stays in both TSan regexes — it carries the
#    byzantine/quorum determinism properties the soak tier scales up, so
#    dropping it from either script would silently shrink sanitizer coverage.
check "sanitize.sh tsan regex includes test_consensus" \
  bash -c "grep -E '^TSAN_REGEX=' ci/sanitize.sh | grep -q test_consensus"
check "soak.sh tsan regex includes test_consensus" \
  bash -c "grep -E '^export VCDL_TSAN_REGEX=' ci/soak.sh | grep -q test_consensus"
# Same for the shard-plane suite: it holds the shards=1 monolithic-equivalence
# oracle (mutation-checked), so losing it from either regex would drop the
# sharded parameter plane from sanitizer coverage.
check "sanitize.sh tsan regex includes test_shard_plane" \
  bash -c "grep -E '^TSAN_REGEX=' ci/sanitize.sh | grep -q test_shard_plane"
check "soak.sh tsan regex includes test_shard_plane" \
  bash -c "grep -E '^export VCDL_TSAN_REGEX=' ci/soak.sh | grep -q test_shard_plane"
# And the fleet suite: it pins the calendar queue / scheduler index
# invariants and the pre-index same-seed goldens, the contract the 100k
# scaling work is built on.
check "sanitize.sh tsan regex includes test_fleet" \
  bash -c "grep -E '^TSAN_REGEX=' ci/sanitize.sh | grep -q test_fleet"
check "soak.sh tsan regex includes test_fleet" \
  bash -c "grep -E '^export VCDL_TSAN_REGEX=' ci/soak.sh | grep -q test_fleet"
# And the obs suite: it runs two trainings on two threads at once
# (ObsDeterminism.RunsDoNotShareMetrics), the race TSan exists to catch.
check "sanitize.sh tsan regex includes test_obs" \
  bash -c "grep -E '^TSAN_REGEX=' ci/sanitize.sh | grep -q test_obs"
# And the storage suite: its strong-consistency atomic-update and
# eventual-consistency lost-update tests run the store's locking on 4-8 real
# threads.
check "sanitize.sh tsan regex includes test_storage" \
  bash -c "grep -E '^TSAN_REGEX=' ci/sanitize.sh | grep -q test_storage"
# And the threading suite: it pins that pool width and nesting never change
# a result, and its pooled and nested training steps run on real threads.
check "sanitize.sh tsan regex includes test_exec_threading" \
  bash -c "grep -E '^TSAN_REGEX=' ci/sanitize.sh | grep -q test_exec_threading"

# 7. The multicore repeat stage keeps its empty-regex guard, and every suite
#    its regex names is registered, so the stage can never repeat nothing.
#    test_obs must stay among them: it holds the concurrent-runs test; so
#    must test_storage: it holds the store's real-thread update tests.
multicore_ctests=$(grep -c '^ctest ' ci/multicore.sh)
multicore_guarded=$(grep -cE -- '^ctest .*--no-tests=error' ci/multicore.sh)
check "multicore.sh ctest calls guarded (${multicore_guarded}/${multicore_ctests})" \
  test "${multicore_ctests}" -eq 2 -a "${multicore_guarded}" -eq 2
for suite in test_fuzz test_storage test_thread_pool test_exec_threading \
             test_kernels test_obs; do
  check "multicore target ${suite} registered" \
    bash -c "ctest --test-dir '${BUILD_DIR}' -N -R '^${suite}\$' \
               2>/dev/null | grep -q 'Total Tests: 1'"
  check "multicore regex names ${suite}" \
    bash -c "grep -E '^MULTICORE_REGEX=' ci/multicore.sh | grep -q '${suite}'"
done

# 7b. The multicore stage also repeats the pool and ExecContext suites 20
#     times under TSan, in the tree ci/sanitize.sh builds (build-tsan/).
check "multicore.sh repeats its TSan suites 20 times" \
  bash -c "grep -A1 -F 'ctest --test-dir \"\${TSAN_DIR}\"' ci/multicore.sh |
           grep -qF -- '--repeat until-fail:20 -R \"\${TSAN_REPEAT_REGEX}\"'"
check "multicore.sh runs TSan in sanitize.sh's tree" \
  bash -c "grep -qF '/build-tsan}\"' ci/multicore.sh &&
           grep -qE '^TSAN_DIR=build-tsan$' ci/sanitize.sh"
for suite in test_thread_pool test_exec_threading; do
  check "multicore TSan regex names ${suite}" \
    bash -c "grep -E '^TSAN_REPEAT_REGEX=' ci/multicore.sh | grep -q '${suite}'"
done

# 8. Nothing under src/ outside src/obs records into the process registry,
#    obs::registry(): run components count into the registry their
#    constructor is given, and a span or counter there would share its
#    counts with every other run in the process. Only perfbench/ uses it.
check "no obs::registry() under src/ outside src/obs" \
  bash -c "! grep -rn --exclude-dir=obs 'obs::registry()' src"

# 8b. The middleware never includes the training stack. A grid client runs
#     its subtask's computation without looking inside it, as a BOINC client
#     runs an application, so no file under src/grid, src/sim or src/storage
#     includes a tensor/, nn/, data/ or core/ header.
check "no training-stack header in grid, sim or storage" \
  bash -c "! grep -rnE '#[[:space:]]*include[[:space:]]*[\"<](tensor|nn|data|core)/' \
             src/grid src/sim src/storage"

# 9. Both sanitizer builds treat warnings as errors: every cmake configure
#    in sanitize.sh passes -DVCDL_WERROR=ON.
configure_calls=$(grep -c '^cmake -B' ci/sanitize.sh)
werror_calls=$(grep -c -- '-DVCDL_WERROR=ON' ci/sanitize.sh)
check "sanitize.sh configures set VCDL_WERROR=ON (${werror_calls}/${configure_calls})" \
  test "${configure_calls}" -eq 2 -a "${werror_calls}" -eq "${configure_calls}"

# 10. The perfbench smoke stage parses, takes its workload list from
#     BENCHMARK.json, so a new workload is run without editing the script,
#     runs every workload both untraced and traced, and prints each traced
#     run's margin (unattributed_s and its share of run_wall_s), which a
#     faster hot path thins towards the negative value that fails a run.
check "perfbench_smoke.sh syntax" bash -n ci/perfbench_smoke.sh
check "perfbench_smoke.sh reads the workloads from BENCHMARK.json" \
  grep -qF 'json.load(open("BENCHMARK.json"))["workloads"]' \
  ci/perfbench_smoke.sh
check "perfbench_smoke.sh runs both trace modes" \
  bash -c "grep -qE '^  for trace in 0 1; do' ci/perfbench_smoke.sh &&
           grep -qF -- '--trace \"\${trace}\"' ci/perfbench_smoke.sh"
# The margin parser reads a table line as perfbench prints it
# ("  %-26s %16.6g %-6s %s").
margin_fn=$(sed -n '/^print_margin() {$/,/^}$/p' ci/perfbench_smoke.sh)
check "perfbench_smoke.sh prints the traced margin" \
  bash -c "grep -qF '| print_margin' ci/perfbench_smoke.sh && ${margin_fn}
    printf '  %-26s %16.6g %-6s %s\n' unattributed_s 0.05 s \
        'run_wall_s 1.000000 - layer busy 0.950000' | print_margin |
      grep -qF 'unattributed_s 0.050 s = 5.0% of run_wall_s 1.000 s'"

# 11. One optimization level: a RelWithDebInfo or Release tree compiles at
#     -O3, the level perfbench measures. The flags come from the generated
#     build files, not the cache: a tree configured when RelWithDebInfo meant
#     -O2 keeps -O2 in its cache entry and still builds at -O3.
build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' "${BUILD_DIR}/CMakeCache.txt")
tensor_dir="${BUILD_DIR}/src/tensor/CMakeFiles/vcdl_tensor.dir"
if [[ -f "${tensor_dir}/flags.make" ]]; then
  tensor_flags=$(grep '^CXX_FLAGS = ' "${tensor_dir}/flags.make")
else  # Ninja: the FLAGS line of tensor.cpp's build statement
  tensor_flags=$(awk '/^build src\/tensor\/CMakeFiles\/vcdl_tensor\.dir\/tensor\.cpp\.o:/ {f = 1}
                      f && /^  FLAGS = / {print; exit}' "${BUILD_DIR}/build.ninja")
fi
at_o3_only() {
  [[ " ${tensor_flags} " == *" -O3 "* && " ${tensor_flags} " != *" -O2 "* ]]
}
case "${build_type}" in
  RelWithDebInfo | Release)
    check "${build_type} tree compiles src/ at -O3, not -O2" at_o3_only
    ;;
  *)
    echo "note: ${build_type:-no} build type; the -O3 level is not checked"
    ;;
esac

if [[ "${failures}" -ne 0 ]]; then
  echo "ci self-test: ${failures} check(s) failed"
  exit 1
fi
echo "ci self-test: all checks passed"
