#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed 1000003]

Run from the repository root. It runs the driver's arithmetic tests, then
every workload once, traced, on a seed not used while the benchmark was
written (each must report correct with no failed unit), then the driver in a
directory that holds only BENCHMARK.json and perfbench/, where it must fail
without printing a result.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def bench(cwd, workload, seed):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=300)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1000003)
    args = parser.parse_args()
    ok = True

    tests = subprocess.run([sys.executable, str(run.HERE / "test_stats.py")])
    ok &= tests.returncode == 0

    for workload in run.WORKLOADS:
        proc = bench(run.ROOT, workload, args.seed)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        passed = proc.returncode == 0 and result.get("correct") and result.get("failed") == 0
        print("%s seed %d: %s (attempted %s, failed %s)" % (
            workload, args.seed, "ok" if passed else "FAILED", result.get("attempted"),
            result.get("failed")))
        if not passed:
            print(proc.stderr[-2000:])
        ok &= bool(passed)

    bare = run.BUILD / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = bench(bare, run.WORKLOADS[0], args.seed)
    refused = proc.returncode != 0 and not proc.stdout.strip()
    print("without the simulator sources: %s (exit %d)" % (
        "refused" if refused else "NOT REFUSED", proc.returncode))
    shutil.rmtree(bare)
    ok &= refused

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
