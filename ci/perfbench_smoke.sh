#!/usr/bin/env bash
# perfbench correctness stage: runs every workload BENCHMARK.json names at
# seed 1 for one measured second, once untraced and once traced, and fails
# unless each run's last stdout line reports "correct": true.
#
# That flag is perfbench's own check (perfbench/src/training.cpp). A training
# run is incorrect when a same-seed rerun differs in virtual_h, final test
# accuracy or params hash, an epoch assimilates fewer than 50 results, the
# final params are not finite, or, in the traced pass, unattributed_s or a
# busy time is negative. No ctest suite runs it, so this stage does. A
# failing run's whole output is printed, to keep its cause.
#
# Each passing traced run also prints its margin: unattributed_s and its
# share of run_wall_s. A faster hot path thins that margin, and a negative
# one makes the run incorrect.
#
# Usage: ci/perfbench_smoke.sh
# Builds perfbench (Release) into build-perfbench/ on first use; the six runs
# then take about two minutes on 4 cores.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR=build-perfbench

workloads=$(python3 -c 'import json
print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
if [[ -z "${workloads}" ]]; then
  echo "perfbench smoke: BENCHMARK.json names no workloads"
  exit 1
fi

# Reads the table line "unattributed_s <v> s ... run_wall_s <wall> - ...".
print_margin() {
  python3 -c 'import re, sys
for line in sys.stdin:
    m = re.match(r"\s*unattributed_s\s+(\S+)\s+s\s.*run_wall_s\s+(\S+)", line)
    if m:
        left, wall = float(m.group(1)), float(m.group(2))
        print("      unattributed_s %.3f s = %.1f%% of run_wall_s %.3f s"
              % (left, 100.0 * left / wall, wall))'
}

failures=0
for workload in ${workloads}; do
  for trace in 0 1; do
    status=0
    out=$(python3 perfbench/run.py --workload "${workload}" --seed 1 \
            --seconds 1 --trace "${trace}") || status=$?
    last=$(printf '%s\n' "${out}" | tail -n 1)
    if [[ "${status}" -eq 0 ]] && python3 -c 'import json, sys
sys.exit(0 if json.loads(sys.argv[1])["correct"] is True else 1)' "${last}" \
        2>/dev/null; then
      echo "ok:   ${workload} --trace ${trace}"
      if [[ "${trace}" -eq 1 ]]; then
        printf '%s\n' "${out}" | print_margin
      fi
    else
      echo "FAIL: ${workload} --trace ${trace} (exit ${status}); its output:"
      printf '%s\n' "${out}"
      failures=$((failures + 1))
    fi
  done
done

if [[ "${failures}" -ne 0 ]]; then
  echo "perfbench smoke: ${failures} run(s) not correct"
  exit 1
fi
echo "perfbench smoke: all runs correct"
