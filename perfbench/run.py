#!/usr/bin/env python3
"""Builds and runs the SSDM end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sp2b_read --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --selftest

The benchmark program (C++, perfbench/src) and the engine library (src/) are
built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) on first use; later runs rebuild incrementally.
Build output goes to stderr, so the last line of stdout is the program's JSON
result. The exit code is the program's: non-zero on a wrong answer, a failed
build, or a missing engine source tree.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sp2b_read", "sci_array", "annotate_write", "path_closure")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build(root, build_dir, target):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("engine sources (src/CMakeLists.txt) not found under " + root)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build step failed: " + " ".join(cmd), 3)
    return os.path.join(build_dir, target)


def run(cmd, cwd):
    proc = subprocess.Popen(cmd, cwd=cwd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s and was stopped" % RUN_TIMEOUT_S, 4)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own unit tests")
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target_dir, "perfbench")

    if args.selftest:
        sys.exit(run([build(root, build_dir, "perfbench_selftest")], root))
    if args.workload is None:
        p.error("--workload is required")
    binary = build(root, build_dir, "ssdm_perfbench")
    sys.stdout.flush()
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--work-dir", os.path.join(build_dir, "work")], root))


if __name__ == "__main__":
    main()
