#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the benchmark (perfbench/CMakeLists.txt, which compiles the
library from ../src) into .bench_build/ at the repository root, then
runs one workload:

    python3 perfbench/run.py --workload spmv_cold --seed 1 --seconds 10 --trace 0

The last line of stdout is the result object; build output goes to
stderr. Workloads: spmv_cold, cg_warm, bfs_mesh (see WORKLOADS.md).
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/; run from a "
             "full checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["spmv_cold", "cg_warm", "bfs_mesh"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument("--inject-mismatch", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size,
           "--inject-mismatch", str(args.inject_mismatch)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
