#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script configures and builds perfbench/
(a CMake package that compiles the vcdl libraries from ../src) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the benchmark
binary. Build output goes to stderr; the last stdout line is the binary's
JSON result, checked here against the metric names and units declared in
BENCHMARK.json. Workloads, metrics and the layer-to-metric predictions are
described in perfbench/METRICS.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_MARGIN_S = 110


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr, flush=True)
    sys.exit(code)


def load_manifest():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no vcdl source tree next to perfbench/ (expected src/CMakeLists.txt)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "vcdl_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if done.returncode != 0:
            fail("build step exited %d: %s" % (done.returncode, " ".join(cmd)))
    return os.path.join(build_dir, "vcdl_perfbench")


def check_result(line, manifest, trace):
    """Raises ValueError unless `line` is a result with the declared metrics."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("result keys %s" % sorted(result))
    declared = manifest["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise ValueError("metrics differ from BENCHMARK.json: missing %s, "
                         "extra %s, unit mismatch %s" % (missing, extra, units))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    manifest = load_manifest()
    workloads = [w["name"] for w in manifest.get("workloads", [])]
    if args.workload not in workloads:
        fail("unknown workload %r (known: %s)" % (args.workload,
                                                   ", ".join(workloads)))
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # A run measures for --seconds, then finishes its last fixed-work run
    # and, when traced, a replay round; twice the measured time is ample.
    timeout_s = 2 * args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("vcdl_perfbench exceeded %g s" % timeout_s, 1)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("vcdl_perfbench exited %d" % done.returncode, 1)
    try:
        check_result(lines[-1], manifest, args.trace)
    except (ValueError, KeyError, AttributeError) as e:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("bad result line: %s" % e, 1)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
