#!/usr/bin/env python3
"""Build and run the optcm benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload sim-lossy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/CMakeLists.txt (the optcm
libraries from src/ plus the benchmark program) in Release mode under
.bench_build/, or under $CARGO_TARGET_DIR when set; later calls only rebuild
what changed.  Build output goes to stderr.  The benchmark program's standard
output is passed through: one line per metric, then the result line
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Exits non-zero, without a result line, when the sources are missing or the
build fails.  Every process the benchmark starts (the forked cluster nodes of
the proc-* workloads) lives in its own process group, which is killed before
exit.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sim-lossy", "threads-closed", "proc-burst", "proc-durable")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir, targets):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4", "--target"] + targets)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def run_in_group(cmd, timeout):
    """Runs cmd in a fresh process group; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: timed out after %ss\n" % timeout)
        return 1
    finally:
        # Orphaned cluster nodes are not our children, so wait for the group
        # itself to empty rather than for each process.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: optcm sources not found under %s\n" % ROOT)
        return 2
    if shutil.which("cmake") is None:
        sys.stderr.write("perfbench: cmake not found\n")
        return 2
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")

    if args.selftest:
        if not build(build_dir, ["perfbench_selftest"]):
            return 1
        return run_in_group([os.path.join(build_dir, "perfbench_selftest")], 600)

    if not build(build_dir, ["perfbench"]):
        return 1
    work_dir = os.path.join(out_root, "perfbench-work")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        return run_in_group(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            timeout=args.seconds + 150)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
