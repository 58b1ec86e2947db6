#!/usr/bin/env python3
"""Builds the end-to-end resolution benchmark and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
builds libccr from the repository's sources) in Release mode under
.bench_build/perfbench, then runs ccr_perfbench with the same arguments.
Build output goes to stderr. Stdout carries the binary's run-record and
detail lines, then the result object, which this script builds from the
detail line: the metrics BENCHMARK.json declares for the mode, in its
order, each with its declared unit. A per-layer metric whose layer does
not run in the workload reports 0. A build failure, a missing end-to-end
metric or a unit that differs from the declared one exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "ccr_perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    configured = any(os.path.exists(os.path.join(BUILD_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "ccr_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def make_result(line, trace):
    """Builds the result object from the detail line.

    Returns (result, None), or (None, error message)."""
    try:
        detail = json.loads(line)["detail"]
    except (ValueError, KeyError, TypeError):
        return None, "the binary's last line is not a detail object"
    metrics = {}
    for name, unit in declared_metrics(trace):
        measured = detail["metrics"].get(name)
        if measured is None:
            if not trace:
                return None, "end-to-end metric %s was not measured" % name
            measured = {"value": 0, "unit": unit}
        if measured["unit"] != unit:
            return None, "%s measured in %s, declared in %s" % (
                name, measured["unit"], unit)
        metrics[name] = {"value": measured["value"], "unit": unit}
    attempted, failed = detail["ops"], detail["ops_failed"]
    return {"correct": attempted > 0 and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": metrics}, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", TRACE_DIR, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("run.py: benchmark exited with %d" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 1
    result, error = make_result(lines[-1], args.trace == 1)
    if error is not None:
        sys.stderr.write(proc.stdout)
        print("run.py: " + error, file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
