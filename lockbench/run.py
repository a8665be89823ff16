#!/usr/bin/env python3
"""Build and run the hlock lock-service benchmark.

Usage (from the repository root):

    python3 lockbench/run.py --workload excl-inproc --seed 1 --seconds 10 --trace 0
    python3 lockbench/run.py --workload all --seed 1 --seconds 10 --trace 0

The first call configures and compiles the benchmark package
(lockbench/CMakeLists.txt, which compiles ../src) into .bench_build/lockbench;
later calls only rebuild what changed. The benchmark binary then drives a
live ThreadCluster and prints its report; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to .bench_build/lockbench-build.log. The exit code is the
binary's: 0 only when every correctness check passed. `--workload all` runs
every workload in turn, each in its own process, and exits nonzero if any
of them failed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "lockbench")
BUILD_LOG = os.path.join(BUILD_ROOT, "lockbench-build.log")
TRACE_DIR = os.path.join(BUILD_ROOT, "lockbench-traces")
RUN_TIMEOUT_S = 170
WORKLOADS = ("excl-inproc", "airline-local", "excl-tcp-recovery")


def build():
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    with open(BUILD_LOG, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(BUILD_LOG) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.stderr.write("lockbench: build failed (see %s)\n" % BUILD_LOG)
                sys.exit(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    os.makedirs(TRACE_DIR, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    sys.exit(max(run(workload, args) for workload in workloads))


def run(workload, args):
    """Runs the benchmark binary on one workload; returns its exit code."""
    command = [os.path.join(BUILD_DIR, "lockbench"),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    process = subprocess.Popen(command, cwd=ROOT)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
        sys.stderr.write("lockbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    main()
