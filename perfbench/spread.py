#!/usr/bin/env python3
"""Steadiness check: runs the benchmark untraced once per seed, for
BENCHMARK.json's run_seconds, and reports for each end-to-end metric the
median and the interquartile distance as a share of the median.

    python3 perfbench/spread.py --workload replay_stencil --seeds 1-10

Run from the repository root. A spread well under a metric's bound in
BENCHMARK.json means two sets of runs of the same code will agree.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import stats  # noqa: E402


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()

    seconds = str(run.DESCRIPTION["run_seconds"])
    values = {}
    for seed in parse_seeds(args.seeds):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", seconds,
                               "--trace", "0"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else None
        print("seed %d: exit %d, %.1f s, correct=%s %s" % (
            seed, proc.returncode, time.perf_counter() - start, result and result["correct"],
            result and " ".join("%s=%.4g" % (k, m["value"])
                                for k, m in result["metrics"].items())), flush=True)
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, series in values.items():
        median = stats.median(series)
        spread = stats.spread(series) if len(series) >= 2 and median else float("nan")
        print("%-32s median %-14.6g spread %.4f  (n=%d)" % (name, median, spread, len(series)))


if __name__ == "__main__":
    main()
