#!/usr/bin/env python3
"""Build the SIDR benchmark driver from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload q1_median --seed 1 --seconds 10 --trace 0

Configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench, then runs the driver with its scratch files in a
fresh directory under .bench_build/tmp that is removed afterwards. The
driver's stdout is passed through; its last line is the JSON summary.
Exits non-zero, without a summary, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("q1_median", "q2_filter_barrier", "q1_spill_socket", "service_mix")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def build() -> str:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
    )
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the driver's report.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "perfbench")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    binary = build()
    os.makedirs(BUILD_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=BUILD_ROOT)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--tmp-dir", tmp,
    ]
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
