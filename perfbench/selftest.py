#!/usr/bin/env python3
"""The benchmark's own tests, on the smoke size of each workload.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json:
  * an untraced run prints every end_to_end metric with its unit, and a
    traced run every per_layer metric, with failed == 0;
  * the exact counts repeat exactly across two traced runs of one seed;
  * with one bit flipped in a copy of each checked output, the oracle
    check trips on every op and the run exits non-zero.
Finally the benchmark, copied without the library sources, must exit
non-zero without printing a result.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
EXACT = ["codec.bytes_per_nnz", "solver.cg_iterations", "solver.bfs_levels",
         "spmv.spmspv.skip_ratio"]

failures = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def run(workload, trace, inject=0, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
           "--trace", str(trace), "--size", "smoke",
           "--inject-mismatch", str(inject)]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result


def check_metrics(result, wanted, label):
    got = result["metrics"]
    for m in wanted:
        entry = got.get(m["name"])
        expect(entry is not None and entry["unit"] == m["unit"] and
               isinstance(entry["value"], (int, float)) and
               math.isfinite(entry["value"]),
               "%s: %s emitted in %s" % (label, m["name"], m["unit"]))
    expect(set(got) == {m["name"] for m in wanted},
           "%s: no metrics beyond the listed ones" % label)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for wl in (w["name"] for w in spec["workloads"]):
        code, res = run(wl, 0)
        expect(code == 0 and res is not None, wl + ": untraced run exits 0")
        if res is None:
            continue
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               wl + ": result has exactly the contract's keys")
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
               wl + ": correct, fail_ratio == 0")
        check_metrics(res, spec["end_to_end"], wl + " trace 0")
        for m in spec["end_to_end"]:
            expect(res["metrics"][m["name"]]["value"] > 0,
                   "%s: %s is non-zero" % (wl, m["name"]))

        traced = []
        for _ in range(2):
            code, res = run(wl, 1)
            expect(code == 0 and res is not None and res["failed"] == 0,
                   wl + ": traced run exits 0 with failed == 0")
            if res is not None:
                check_metrics(res, spec["per_layer"], wl + " trace 1")
                traced.append(res["metrics"])
        if len(traced) == 2:
            for name in EXACT:
                a, b = (t[name]["value"] for t in traced)
                expect(a == b, "%s: %s repeats exactly (%r, %r)" %
                       (wl, name, a, b))

        code, res = run(wl, 0, inject=1)
        expect(code != 0 and res is not None and not res["correct"] and
               res["failed"] == res["attempted"] and res["attempted"] >= 1,
               wl + ": a flipped output bit fails every op")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, res = run(spec["workloads"][0]["name"], 0, cwd=bare)
    expect(code != 0 and res is None,
           "without library sources: non-zero exit, no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
