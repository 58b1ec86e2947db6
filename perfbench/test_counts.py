#!/usr/bin/env python3
"""Checks that the traced run's count metrics repeat exactly.

    python3 perfbench/test_counts.py [--seed N] [--seconds S] [WORKLOAD ...]

Runs the traced run (--trace 1) of each workload (default: all in
BENCHMARK.json) twice with the same seed and compares every per-layer
metric whose unit is a count ("count" or "words"). Both runs must also be
correct with no failed operation. Exits non-zero on any difference; a
later change may claim a count only if this check passes for it.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COUNT_UNITS = ("count", "words")


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s: run.py exited with %d" %
                           (workload, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    counts = [m["name"] for m in spec["per_layer"]
              if m["unit"] in COUNT_UNITS]

    failures = 0
    for workload in args.workloads:
        first = traced_run(workload, args.seed, args.seconds)
        second = traced_run(workload, args.seed, args.seconds)
        problems = []
        for run in (first, second):
            if not run["correct"] or run["failed"] != 0:
                problems.append("%d of %d operations failed" %
                                (run["failed"], run["attempted"]))
        for name in counts:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            if a != b:
                problems.append("%s = %r, then %r" % (name, a, b))
        for problem in problems:
            print("FAIL %s: %s" % (workload, problem))
        print("%s %s: %d count metrics compared" %
              ("FAIL" if problems else "ok  ", workload, len(counts)))
        failures += len(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
