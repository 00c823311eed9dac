#!/usr/bin/env python3
"""Repeat cilkbench runs and compare sets of them (standard library only).

    python3 bench/suite/runs.py collect DIR [--runs N] [--first-seed S]
    python3 bench/suite/runs.py --agree A B

collect runs every workload N times through run.py, alternating the order
of workloads from one pass to the next, with seed S+i on pass i, and keeps
each run's result line as DIR/<workload>.<seed>.json.

--agree prints one row per (workload, end-to-end metric) with each set's
median and IQR (as a share of the median) and a verdict: "agree" when the
medians differ by at most the metric's bound, "disagree" when they differ
by more, and "unresolved" when either set's IQR exceeds the bound. It exits
non-zero unless every row agrees. The quartiles are
statistics.quantiles(values, n=4).

Run it from the root of a checkout.
"""

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def collect(args):
    os.makedirs(args.dir, exist_ok=True)
    names = [w["name"] for w in spec()["workloads"]]
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in (names if i % 2 == 0 else list(reversed(names))):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
            last = proc.stdout.rstrip("\n").split("\n")[-1]
            print(f"{w} seed={seed} exit={proc.returncode} {last}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                continue
            with open(os.path.join(args.dir, f"{w}.{seed}.json"), "w") as f:
                f.write(last + "\n")


def load(directory):
    """workload -> metric -> [values]"""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload = os.path.basename(path).split(".")[0]
        with open(path) as f:
            metrics = json.load(f)["metrics"]
        for name, m in metrics.items():
            runs.setdefault(workload, {}).setdefault(name, []).append(m["value"])
    return runs


def rel_iqr(values):
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def agree(a_dir, b_dir):
    a, b = load(a_dir), load(b_dir)
    ok = True
    print(f"{'workload':<12} {'metric':<16} {'median A':>12} {'IQR A':>7} "
          f"{'median B':>12} {'IQR B':>7} {'diff':>7} {'bound':>6}  verdict")
    for w in spec()["workloads"]:
        for m in spec()["end_to_end"]:
            va = a.get(w["name"], {}).get(m["name"])
            vb = b.get(w["name"], {}).get(m["name"])
            if not va or not vb:
                print(f"{w['name']:<12} {m['name']:<16} missing")
                ok = False
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            ia, ib = rel_iqr(va), rel_iqr(vb)
            diff = (mb - ma) / abs(ma) if ma else float("inf")
            if ia > m["bound"] or ib > m["bound"]:
                verdict = "unresolved"
            elif abs(diff) <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "disagree"
            ok = ok and verdict == "agree"
            print(f"{w['name']:<12} {m['name']:<16} {ma:>12.6g} {ia:>7.1%} "
                  f"{mb:>12.6g} {ib:>7.1%} {diff:>+7.1%} {m['bound']:>6.0%}  {verdict}")
    return ok


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "collect":
        ap = argparse.ArgumentParser(prog="runs.py collect")
        ap.add_argument("dir")
        ap.add_argument("--runs", type=int, default=10)
        ap.add_argument("--first-seed", type=int, default=1)
        collect(ap.parse_args(sys.argv[2:]))
        return
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--agree", nargs=2, metavar=("A", "B"), required=True)
    args = ap.parse_args()
    sys.exit(0 if agree(*args.agree) else 1)


if __name__ == "__main__":
    main()
