#!/usr/bin/env python3
"""Benchmark runner for the t1sfq library.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <paper|guarded-opt|scale|service> \
        --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into the build
directory named by $CARGO_TARGET_DIR (default .bench_build), then runs the
benchmark binary. Set-up time is taken in several fresh processes and
reported as their median; every process gets its own empty T1SFQ_CACHE_DIR,
so no run can reuse another's cached rewrite database. The last line of
standard output is the JSON result of the binary, with setup_s replaced by
that median. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("paper", "guarded-opt", "scale", "service")
SETUP_PROCESSES = 8  # plus the measuring process: nine set-up samples
RUN_BUDGET_S = 170  # every process after the build, together


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "t1sfq_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "t1sfq_perfbench")


def run_binary(cmd, runs_dir, deadline):
    """Runs one benchmark process with a fresh, private cache directory."""
    cache = tempfile.mkdtemp(prefix="cache-", dir=runs_dir)
    env = dict(os.environ, T1SFQ_CACHE_DIR=cache)
    env.pop("T1SFQ_TRACE", None)
    try:
        return subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the run budget" % " ".join(cmd), 1)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


def expected_metrics(root, trace):
    """Metric names BENCHMARK.json declares for this mode (None if absent)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    for required in ("src/core/api.hpp", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, required)):
            fail("run from the root of a t1sfq source checkout (missing %s)" % required)
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        exe = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    deadline = time.monotonic() + RUN_BUDGET_S
    runs_dir = os.path.join(build_dir, "runs")
    os.makedirs(runs_dir, exist_ok=True)
    base = [exe, "--workload", args.workload, "--seed", str(args.seed)]

    setup = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES):
            proc = run_binary(base + ["--setup-only"], runs_dir, deadline)
            if proc.returncode != 0:
                fail("set-up process exited with %d" % proc.returncode)
            setup.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = run_binary(cmd, runs_dir, deadline)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with %d and no result" % proc.returncode, 1)

    declared = expected_metrics(root, args.trace)
    if declared is not None and list(result["metrics"]) != declared:
        fail("metrics %s do not match BENCHMARK.json %s" % (list(result["metrics"]), declared), 3)
    if setup:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)

    for line in lines[:-1]:
        print(line)
    if setup:
        print("setup_s samples (s): " + ", ".join("%.4f" % s for s in setup))
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
