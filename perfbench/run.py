#!/usr/bin/env python3
"""Simulator-cost benchmark: online NAS DT, a 1024-rank stencil replay and a
what-if campaign, each repetition in a fresh process.

    python3 perfbench/run.py --workload dt_online --seed 1 --seconds 10 --trace 0

Run from the repository root. The driver builds the simulator and
perfbench_child into .bench_build/perfbench, writes the seeded inputs once per
seed, runs the real smpirun / smpi_campaign once on the same inputs, then
repeats the workload in fresh child processes for --seconds. Each repetition
must reproduce the CLI's simulated times exactly. The last line of standard
output is one JSON object: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
CHILD = BUILD / "perfbench_child"
SMPIRUN = BUILD / "smpi" / "smpirun"
SMPI_CAMPAIGN = BUILD / "smpi" / "smpi_campaign"

# Workload names and metric tables (name, unit) come from BENCHMARK.json.
DESCRIPTION = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DESCRIPTION["workloads"])
END_TO_END = [(m["name"], m["unit"]) for m in DESCRIPTION["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in DESCRIPTION["per_layer"]]
# The span whose start ends set-up: simulation begins there.
SIM_SPAN = {"dt_online": "smpi.run", "replay_stencil": "replay.run",
            "campaign_whatif": "campaign.run"}
# NAS DT class B shuffle on gdx, folded: the simulated time the parent
# commit of this benchmark printed through smpirun.
DT_SIMULATED_TIME = "4.765100466"
CAMPAIGN_WORKERS = 2
RUN_LIMIT_S = 60.0    # per child process; a slower one is killed and counted failed
BUDGET_S = 150.0      # stop repeating past this, whatever --seconds asks
MIN_REPS = 3          # untraced repetitions per run (--trace 0)
MIN_TRACED_REPS = 2   # of each kind with --trace 1



class BenchError(Exception):
    """The benchmark cannot produce a result (build, inputs, or CLI failed)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- processes ---------------------------------------------------------------

class Outcome:
    def __init__(self, status, usage, stdout, stderr, elapsed, timed_out, limit):
        self.status = status
        self.usage = usage
        self.stdout = stdout
        self.stderr = stderr
        self.elapsed = elapsed
        self.timed_out = timed_out
        self.limit = limit

    def ok(self):
        return not self.timed_out and os.WIFEXITED(self.status) and \
            os.WEXITSTATUS(self.status) == 0

    def describe(self):
        if self.timed_out:
            return "killed after %.0f s" % self.limit
        if os.WIFSIGNALED(self.status):
            return "killed by signal %d" % os.WTERMSIG(self.status)
        return "exit status %d" % os.WEXITSTATUS(self.status)


def wait_group_gone(pgid):
    """Kill what is left of a process group and wait until it is empty."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    raise BenchError("process group %d did not exit" % pgid)


def spawn(cmd, limit=RUN_LIMIT_S):
    """Runs cmd in its own process group and reads its rusage through wait4."""
    scratch = BUILD / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err,
                                start_new_session=True)
        timed_out = False
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > limit:
                    timed_out = True
                    os.killpg(proc.pid, signal.SIGKILL)
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:  # the driver itself is stopped: take the child with it
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            wait_group_gone(proc.pid)
            raise
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        wait_group_gone(proc.pid)
        out.seek(0)
        err.seek(0)
        return Outcome(status, usage, out.read().decode(), err.read().decode(), elapsed,
                       timed_out, limit)


def check_call(cmd):
    result = subprocess.run([str(c) for c in cmd], stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        raise BenchError("command failed (%d): %s" % (result.returncode, " ".join(map(str, cmd))))


# --- build and inputs --------------------------------------------------------

def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError("no simulator sources at %s" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        check_call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    check_call(["cmake", "--build", BUILD, "-j", "3"])


def prepare_inputs(workload, seed):
    """Writes the workload's seeded inputs once; later runs reuse them."""
    key = workload if workload == "dt_online" else "%s-seed%d" % (workload, seed)
    inputs = BUILD / "inputs"
    path = inputs / key
    if (path / "ready").exists():
        return path
    inputs.mkdir(parents=True, exist_ok=True)
    for old in inputs.glob(workload + "*"):  # keep one seed's inputs on disk
        shutil.rmtree(old)
    tmp = inputs / (key + ".tmp")
    tmp.mkdir()
    outcome = spawn([CHILD, "prepare", workload, seed, tmp])
    if not outcome.ok():
        raise BenchError("preparing %s failed (%s): %s" % (key, outcome.describe(), outcome.stderr))
    (tmp / "ready").write_text("")
    tmp.rename(path)
    return path


def dir_bytes(path):
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


# --- the real CLIs -----------------------------------------------------------

def cli_reference(workload, inputs):
    """Runs the user-facing CLI once on the same inputs as the child.

    Returns the simulated results the CLI reports: the 9-decimal time smpirun
    prints, or the exact per-scenario times of smpi_campaign's JSON report.
    """
    if workload == "campaign_whatif":
        report = BUILD / "tmp" / "campaign_report.json"
        outcome = spawn([SMPI_CAMPAIGN, "--spec", inputs / "campaign.json",
                         "--workers", CAMPAIGN_WORKERS, "--out", report])
        if not outcome.ok():
            raise BenchError("smpi_campaign failed (%s): %s" % (outcome.describe(), outcome.stderr))
        rows = json.loads(report.read_text())["scenarios"]
        report.unlink()
        return {"scenario_times": [row["simulated_time"] for row in rows]}
    if workload == "dt_online":
        cmd = [SMPIRUN, "--machine", "gdx", "--app", "dt", "--class", "B", "--graph", "SH",
               "--fold"]
    else:
        cmd = [SMPIRUN, "--replay", inputs / "trace", "--cluster", "2048"]
    outcome = spawn(cmd)
    if not outcome.ok():
        raise BenchError("smpirun failed (%s): %s" % (outcome.describe(), outcome.stderr))
    reference = {}
    for line in outcome.stdout.splitlines():
        if line.startswith("simulated execution time: "):
            reference["simulated_time"] = line.split()[3]
        if line.startswith("smpirun: replayed "):
            reference["records"] = int(line.split()[2])
    if "simulated_time" not in reference:
        raise BenchError("smpirun printed no simulated time")
    if workload == "dt_online" and reference["simulated_time"] != DT_SIMULATED_TIME:
        raise BenchError("smpirun simulated %s s for NAS DT, expected %s s"
                         % (reference["simulated_time"], DT_SIMULATED_TIME))
    return reference


# --- repetitions -------------------------------------------------------------

def span_duration(rep, name):
    return sum(s["end"] - s["start"] for s in rep["spans"] if s["name"] == name)


def span_start(rep, name):
    return next(s["start"] for s in rep["spans"] if s["name"] == name)


def good_unit_records(workload, data, reference, state):
    """Records replayed by each unit whose simulated output matches the CLI
    and the first repetition; units that failed or differ are left out."""
    outputs = data["outputs"]
    if workload == "campaign_whatif":
        return [records for got, want, records in zip(
            outputs["scenario_times"], reference["scenario_times"], data["scenario_records"])
            if got is not None and got == want]
    wrong = "%.9f" % outputs["simulated_time"] != reference["simulated_time"]
    if "records" in reference:
        wrong |= data["records"] != reference["records"]
    if "first_outputs" in state:
        wrong |= outputs != state["first_outputs"]
    return [] if wrong else [state.get("records", data["records"])]


def run_rep(workload, inputs, traced, units, reference, state):
    """One repetition in a fresh process; failures count, never vanish."""
    cmd = [CHILD, "run", workload, inputs] + (["--traced"] if traced else [])
    outcome = spawn(cmd)
    usage = outcome.usage
    rep = {"traced": traced, "units": units, "failed_units": units, "ok": False,
           "wall_s": outcome.elapsed, "setup_s": outcome.elapsed,
           "cpu_s": usage.ru_utime + usage.ru_stime, "peak_rss_mb": usage.ru_maxrss / 1024.0,
           "records": 0, "scenarios": 0, "counts": None, "layer": {}, "spans": []}
    lines = outcome.stdout.strip().splitlines()
    data = None
    if lines and not outcome.timed_out:
        try:
            data = json.loads(lines[-1])
        except ValueError:
            data = None
    if data is None:
        log("  %s repetition failed: %s %s" % (workload, outcome.describe(), outcome.stderr.strip()))
        return rep
    rep["spans"] = data["spans"]
    rep["wall_s"] = span_duration(rep, "run")
    rep["setup_s"] = span_start(rep, SIM_SPAN[workload]) - span_start(rep, "run")
    rep["counts"] = data["counts"]
    rep["layer"] = data["layer"]
    good = good_unit_records(workload, data, reference, state)
    if data["units"] != units or (not outcome.ok() and len(good) == units):
        good = []  # the process failed as a whole
    rep["failed_units"] = units - len(good)
    rep["ok"] = rep["failed_units"] == 0
    rep["scenarios"] = len(good)
    rep["records"] = sum(good)
    if rep["ok"]:
        state.setdefault("first_outputs", data["outputs"])
    else:
        log("  %s repetition: %d of %d units failed (%s)"
            % (workload, rep["failed_units"], units, outcome.describe()))
    return rep


def count_gate(reps):
    """Every exact counter must read the same in every successful repetition."""
    seen = [r["counts"] for r in reps if r["ok"]]
    problems = []
    for counts in seen[1:]:
        for key in sorted(set(counts) | set(seen[0])):
            if counts.get(key) != seen[0].get(key):
                problems.append("%s: %s != %s" % (key, counts.get(key), seen[0].get(key)))
    return problems


# --- metrics -----------------------------------------------------------------

def end_to_end(reps):
    return {
        "wall_s": stats.median([r["wall_s"] for r in reps]),
        "setup_s": stats.median([r["setup_s"] for r in reps]),
        "cpu_s": stats.median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in reps]),
        "records_per_s": stats.median([r["records"] / r["wall_s"] for r in reps]),
        "scenarios_per_s": stats.median([r["scenarios"] / r["wall_s"] for r in reps]),
    }


def layer_values(rep, trace_bytes):
    """Per-layer values of one traced repetition; 0 where the layer is absent."""
    counts = rep["counts"]
    layer = rep["layer"]
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name in ("platform.build", "trace.load", "replay.run", "workload.generate",
                 "smpi.world_setup", "smpi.run", "smpi.teardown", "campaign.run",
                 "campaign.report"):
        values[name + "_s"] = span_duration(rep, name)
    if values["trace.load_s"] > 0:
        values["trace.load_mb_per_s"] = trace_bytes / 1e6 / values["trace.load_s"]
    for name in ("replay.records", "smpi.eager_snapshots", "smpi.eager_copy_elided",
                 "smpi.bytes_not_copied", "sim.pool_misses", "sim.timers_created",
                 "surf.solves", "surf.saturation_events", "campaign.retries"):
        values[name] = counts.get(name, 0)
    for name, value in layer.items():
        if name in values:
            values[name] = value
    lookups = counts["sim.pool_hits"] + counts["sim.pool_misses"]
    values["sim.pool_hit_ratio"] = counts["sim.pool_hits"] / lookups if lookups else 0.0
    if counts["surf.solves"]:
        values["surf.vars_per_solve"] = counts["surf.vars_touched"] / counts["surf.solves"]
        values["surf.cons_per_solve"] = counts["surf.cons_touched"] / counts["surf.solves"]
    if values["campaign.run_s"] > 0:
        workers = layer["campaign.workers"]
        values["campaign.scenario_overhead_s"] = (
            workers * values["campaign.run_s"] - values["campaign.scenario_replay_s"]) / rep["units"]
    root = next(i for i, s in enumerate(rep["spans"]) if s["name"] == "run")
    values["bench.unattributed_ratio"] = stats.self_times(rep["spans"])[root] / rep["wall_s"]
    return values


def per_layer(reps, trace_bytes):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"] and r["ok"]]
    if not traced:
        return {}
    samples = [layer_values(r, trace_bytes) for r in traced]
    values = {name: stats.median([s[name] for s in samples]) for name, _ in PER_LAYER}
    values["bench.trace_overhead_ratio"] = (
        stats.median([r["wall_s"] for r in traced]) / stats.median([r["wall_s"] for r in untraced]))
    return values


def write_spans(workload, seed, reps):
    """The traced repetitions' spans, with self times, for later inspection."""
    out = BUILD / "spans"
    out.mkdir(parents=True, exist_ok=True)
    doc = []
    for rep in reps:
        if rep["traced"] and rep["spans"]:
            selfs = stats.self_times(rep["spans"])
            doc.append([dict(span, self=round(value, 9)) for span, value in zip(rep["spans"], selfs)])
    path = out / ("%s-seed%d.json" % (workload, seed))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log("spans written to %s" % path.relative_to(ROOT))


# --- main --------------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    build()
    inputs = prepare_inputs(workload, seed)
    reference = cli_reference(workload, inputs)
    units = len(reference["scenario_times"]) if workload == "campaign_whatif" else 1
    state = {}
    if workload == "dt_online":
        state["records"] = json.loads((inputs / "dt.json").read_text())["records"]

    reps = []
    start = time.perf_counter()
    while True:
        traced = trace == 1 and len(reps) % 2 == 1
        rep_start = time.perf_counter()
        reps.append(run_rep(workload, inputs, traced, units, reference, state))
        untraced = sum(1 for r in reps if not r["traced"])
        enough = (untraced >= MIN_REPS if trace == 0
                  else min(untraced, len(reps) - untraced) >= MIN_TRACED_REPS)
        now = time.perf_counter()
        # Stop when another repetition like the last one would overrun --seconds.
        if (enough and now + (now - rep_start) > start + seconds) or now - start >= BUDGET_S:
            break

    problems = count_gate(reps)
    for problem in problems:
        log("  count gate: " + problem)
    failed, attempted = stats.failures(reps)
    log("%s seed %d: %d repetitions, fail_ratio %.3f (%d/%d units), wall_s %s"
        % (workload, seed, len(reps), failed / attempted, failed, attempted,
           " ".join("%.3f" % r["wall_s"] for r in reps)))
    if trace == 1:
        write_spans(workload, seed, reps)
        trace_bytes = dir_bytes(inputs / "trace") if workload == "replay_stencil" else 0
        values, table = per_layer(reps, trace_bytes), PER_LAYER
    else:
        values, table = end_to_end([r for r in reps if not r["traced"]]), END_TO_END
    correct = failed == 0 and not problems and all(name in values for name, _ in table)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in table if name in values}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    # A stopped driver unwinds through spawn(), which kills the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
