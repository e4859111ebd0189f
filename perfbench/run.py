#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

The engine is compiled from ./src together with the benchmark into
.bench_build/perfbench. The unit tests of the benchmark's own helpers run
before every measurement. With one workload, the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}: end-to-end
metrics with --trace 0, per-layer metrics (and the self-time tables) with
--trace 1. With --workload all, every workload runs in turn and the last
line merges their results, metric names prefixed by the workload. The exit
code is non-zero if the build, a helper test, or any correctness or
durability gate fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("tpcb_commit", "tpcb_batch_restart", "kv_zipf_read")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_DIR = os.path.join(".bench_build", "run")
TRACE_DIR = os.path.join(".bench_build", "traces")
# One workload must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(bench_dir):
    """Configures (once) and builds the benchmark; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", bench_dir, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would be taken as configured next time.
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_workload(workload, args):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(BUILD_DIR, "cwbench"),
           "--workload", workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--dir", RUN_DIR]
    if args.trace == 1:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.spans.tsv" % (workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else e.stdout
        sys.stdout.write(out or "")
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("no engine sources at ./src: run from the repository root")
        return 2
    if not build(bench_dir):
        log("build failed")
        return 1
    selftest = subprocess.run([os.path.join(BUILD_DIR, "cwbench_selftest")],
                              stdout=sys.stderr)
    if selftest.returncode != 0:
        log("benchmark helper tests failed")
        return 1

    if args.workload != "all":
        code, result = run_workload(args.workload, args)
        if code == 0 and result is None:
            log("%s printed no result" % args.workload)
            code = 1
        return code

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        print("== %s" % workload, flush=True)
        rc, result = run_workload(workload, args)
        if rc != 0 or result is None:
            code = rc or 1
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(merged), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
