#!/usr/bin/env python3
"""Build cilkbench from source and run one workload.

    python3 bench/suite/run.py --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]

Run it from the root of a checkout; --seconds defaults to BENCHMARK.json's
run_seconds, --trace to 0. The first call configures and builds a
Release tree in $CARGO_TARGET_DIR (default .bench_build); later calls only
rebuild what changed. Build output goes to stderr. The benchmark's report is
passed through to stdout; its last line is the result object, checked here
to name exactly the metrics BENCHMARK.json lists for the mode (end_to_end
untraced, per_layer traced). Exits non-zero, without a result line, when
the build, the run or that check fails, and with the benchmark's own status
otherwise (non-zero exactly when a result was wrong).
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, stdout):
    """Runs cmd in its own process group and waits for it; on timeout the
    whole group (a build's compilers too) is killed before returning.
    Returns (exit status, captured stdout or None)."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "cilkbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        try:
            status, _ = run(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except OSError as e:
            fail(f"build failed: {e}")
        if status != 0:
            fail(f"build failed: {' '.join(cmd)} exited with status {status}")
    return os.path.join(build_dir, "cilkbench")


def read_spec():
    """BENCHMARK.json at the checkout root."""
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def check_result(line, expected):
    try:
        res = json.loads(line)
    except ValueError:
        fail("the benchmark's last line is not a JSON object")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(res)}")
    metrics = res["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(metrics)} differ from BENCHMARK.json's {sorted(expected)}")
    for name, m in metrics.items():
        value = m.get("value")
        if m.get("unit") != expected[name] or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} is {m}, not a finite number in {expected[name]}")
    if res["attempted"] < 1:
        fail("no result was checked")


def main():
    spec = read_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    binary = build(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        status, out = run(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    except OSError as e:
        fail(f"run failed: {e}")
    lines = out.rstrip("\n").split("\n")
    if status not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        fail(f"cilkbench exited with status {status} and no result")
    check_result(lines[-1], expected)
    sys.stdout.write(out)
    sys.exit(status)


if __name__ == "__main__":
    main()
