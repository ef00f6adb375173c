#!/usr/bin/env python3
"""causalkit benchmark: `cml` workloads driven in-process.

    python3 cmlbench/run.py --workload fringes --seed 1 --seconds 10 --trace 0
    python3 cmlbench/run.py --workload all --seed 1 --seconds 10

Run from the root of a causalkit source tree; causalkit is imported from
its ``src/`` directory. One closed-loop client calls ``causalkit.cli.main``
with one generated argv after another, so a change to what a command does
internally shows up here. A workload never shares a process with another.

--trace 0 measures the end-to-end metrics. The run is split over WORKERS
fresh processes, one after another, so that no single process's memory
layout decides the result. Each worker's set-up time runs from its spawn to
the end of one warm-up command; it then issues timed rounds for its share
of the seconds. Reported are the median set-up time, throughput as the
median over all timed rounds, and the largest peak resident memory. Times
are scaled to a reference machine speed measured next to each command (see
calibration.py); the unscaled figures are kept in the result file.

--trace 1 runs a fixed number of rounds in this process twice, untraced and
then traced, and reports per-layer metrics from the traced pass (see
tracing.py).

Every command's output is checked by its workload's oracle, and each
worker repeats its first command with the same seed, which must give
identical bytes. The last line of standard output is one JSON object:
correct, attempted, failed and metrics. A result file with per-command
SHA-256 digests and the environment is written under cmlbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKERS = 5
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
from calibration import reference_work, slowness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_cli():
    """Import causalkit from this tree's src/, never from anywhere else."""
    package = SRC / "causalkit"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no causalkit sources at {package}")
    sys.path.insert(0, str(SRC))
    import causalkit
    import causalkit.cli
    if Path(causalkit.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported causalkit from {causalkit.__file__}")
    return causalkit.cli.main


@dataclass
class Outcome:
    code: int
    seconds: float
    out: bytes
    err: str


def execute(main, argv) -> Outcome:
    """Run one `cml` command in this process, capturing its output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception:  # noqa: BLE001 - a crash is a failed command
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    return Outcome(code, seconds, out.getvalue().encode("utf-8"),
                   err.getvalue())


def warm_up(main, workload):
    warm = execute(main, workload.warmup().argv)
    if warm.code != 0:
        raise SystemExit(f"error: warm-up command failed:\n{warm.err}")
    return time.monotonic()


# --- checks ----------------------------------------------------------------------


class Ledger:
    """Every command attempted, its digest, and why it failed if it did."""

    def __init__(self, workload):
        self.workload = workload
        self.entries = []

    def add(self, cmd, outcome: Outcome, phase: str):
        entry = {"phase": phase, "kind": cmd.kind, "argv": list(cmd.argv),
                 "exit": outcome.code, "seconds": outcome.seconds,
                 "bytes": len(outcome.out),
                 "sha256": hashlib.sha256(outcome.out).hexdigest(),
                 "failures": []}
        if outcome.code != 0:
            entry["failures"].append(
                f"{cmd.kind}: exit {outcome.code}: {outcome.err.strip()[-500:]}")
        else:
            entry["failures"].extend(self.workload.check(cmd, outcome.out))
        self.entries.append(entry)
        return entry

    def compare(self, entry, repeat: Outcome, what: str):
        if (repeat.code != entry["exit"]
                or hashlib.sha256(repeat.out).hexdigest() != entry["sha256"]):
            entry["failures"].append(f"{entry['kind']}: output differs from "
                                     f"its {what}")

    def counted(self, phase):
        return [e for e in self.entries if e["phase"] == phase]


# --- timed rounds ------------------------------------------------------------------


@dataclass
class Round:
    work: float          # units of work in outputs that passed their checks
    seconds: float       # time inside the commands
    scaled: float        # the same time at the reference machine speed

    @property
    def rate(self) -> float:
        """Throughput at the reference machine speed."""
        return self.work / self.scaled


def run_rounds(main, workload, rounds, ledger, phase, run=None):
    """Execute rounds of commands, calibrating machine speed between
    commands; each command's time is scaled by the mean slowness measured
    just before and just after it."""
    run = run or (lambda argv: execute(main, argv))
    done = []
    before = slowness()
    for cmds in rounds:
        r = Round(0.0, 0.0, 0.0)
        for cmd in cmds:
            outcome = run(cmd.argv)
            after = slowness()
            entry = ledger.add(cmd, outcome, phase)
            r.seconds += outcome.seconds
            r.scaled += outcome.seconds / ((before + after) / 2)
            if not entry["failures"]:
                r.work += workload.work(cmd, outcome.out)
            before = after
        done.append(r)
    return done


def pooled_rate(rounds) -> float:
    return sum(r.work for r in rounds) / sum(r.scaled for r in rounds)


# --- the two kinds of run -----------------------------------------------------------


def worker(name, seed, index, seconds, spawned_at, scale) -> dict:
    """Body of one end-to-end process: set-up, then timed rounds."""
    workload = WORKLOADS[name](scale)
    main = import_cli()
    # time.monotonic() is CLOCK_MONOTONIC, one clock for every process
    setup_s = warm_up(main, workload) - spawned_at
    reference_work()      # the first call in a process pays one-time costs
    setup_slowness = slowness(samples=3)
    rng = random.Random(f"{name}:{seed}:{index}")
    ledger = Ledger(workload)
    done, first = [], None
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        cmds = workload.round(rng)
        first = first or cmds[0]
        done += run_rounds(main, workload, [cmds], ledger, "timed")
    ledger.compare(ledger.entries[0], execute(main, first.argv),
                   "same-seed repeat")
    for entry in ledger.entries:
        entry["worker"] = index
    return {"setup_s": setup_s, "setup_slowness": setup_slowness,
            "rounds": [vars(r) for r in done], "commands": ledger.entries,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment() if index == 0 else None}


def end_to_end(name, seed, seconds, scale, workers):
    """Run the workers one after another and pool what they measured."""
    parts = []
    for index in range(workers):
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", repr(seconds / workers),
             "--worker", str(index), "--spawned-at", repr(spawned_at),
             "--scale", repr(scale)],
            cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0 or not proc.stdout:
            raise SystemExit(f"error: worker {index} failed:\n{proc.stderr}")
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    rounds = [Round(**r) for p in parts for r in p["rounds"]]
    setup = [(p["setup_s"], p["setup_slowness"]) for p in parts]
    metrics = {
        "work_per_s": (statistics.median(r.rate for r in rounds), "items/s"),
        "setup_s": (statistics.median(s / k for s, k in setup), "s"),
        "peak_rss_mb": (max(p["peak_rss_mib"] for p in parts), "MiB"),
    }
    detail = {
        "environment": parts[0]["environment"],
        "setup_samples": [{"seconds": s, "slowness": k} for s, k in setup],
        "rounds": [vars(r) for r in rounds],
        "unscaled": {"setup_s": statistics.median(s for s, _ in setup),
                     "work_per_s": statistics.median(r.work / r.seconds
                                                     for r in rounds)},
    }
    commands = [e for p in parts for e in p["commands"]]
    return metrics, detail, commands


def traced(name, seed, seconds, scale, spans_path):
    """Fixed rounds, untraced then traced, in this process."""
    from tracing import Recorder

    workload = WORKLOADS[name](scale)
    main = import_cli()
    warm_up(main, workload)
    reference_work()
    rng = random.Random(f"{name}:{seed}")
    n = max(1, round(seconds * workload.traced_rounds_per_s))
    rounds = [workload.round(rng) for _ in range(n)]
    ledger = Ledger(workload)
    plain = run_rounds(main, workload, rounds, ledger, "untraced")
    recorder = Recorder()
    recorder.install()
    try:
        with_spans = run_rounds(
            main, workload, rounds, ledger, "traced",
            run=lambda argv: execute(lambda a: recorder.command(main, a), argv))
    finally:
        recorder.uninstall()
    for a, b in zip(ledger.counted("untraced"), ledger.counted("traced")):
        if a["sha256"] != b["sha256"] or a["exit"] != b["exit"]:
            b["failures"].append(f"{b['kind']}: traced output differs from "
                                 "the untraced one")
    plain_rate, traced_rate = pooled_rate(plain), pooled_rate(with_spans)
    metrics = recorder.metrics()
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "ratio")
    recorder.write_spans(spans_path)
    detail = {"environment": environment(), "hooks_absent": recorder.absent,
              "traced_rounds": n, "untraced_rate": plain_rate,
              "traced_rate": traced_rate, "spans_file": str(spans_path)}
    return metrics, detail, ledger.entries


# --- reporting ---------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy

    src_lines = 0
    for path in sorted((SRC / "causalkit").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "src_lines": src_lines}


def measure(name, seed, seconds, trace, out_dir=RESULTS, scale=1.0,
            workers=WORKERS):
    """Run one workload; returns the result record (also written to disk)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        metrics, detail, commands = traced(
            name, seed, seconds, scale, stem.with_suffix(".spans.csv.gz"))
        counted = [e for e in commands if e["phase"] == "traced"]
    else:
        metrics, detail, commands = end_to_end(name, seed, seconds, scale,
                                               workers)
        counted = commands
    failed = sum(1 for e in counted if e["failures"])
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "correct": failed == 0,
              "attempted": len(counted), "failed": failed,
              "failed_frac": failed / len(counted),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              **detail, "commands": commands}
    record["environment"]["workload_seed"] = seed
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["result_file"] = str(path)
    return record


def print_report(record):
    workload = WORKLOADS[record["workload"]]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}")
    rows = []
    for name, m in record["metrics"].items():
        if name == "work_per_s":
            rows.append((f"{name} = {workload.metric}", m["value"],
                         workload.unit))
        else:
            rows.append((name, m["value"], m["unit"]))
    rows.append(("failed_frac", record["failed_frac"], "ratio"))
    for name, value, unit in rows:
        print(f"  {name:40s} {value:14.6g} {unit}")
    for entry in record["commands"]:
        for failure in entry["failures"]:
            print(f"  FAILED {failure}")
    print(f"  result file {record['result_file']}")


def summary(record) -> dict:
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # set by end_to_end for its worker processes
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker is not None:
        part = worker(args.workload, args.seed, args.worker, args.seconds,
                      args.spawned_at, args.scale)
        print(json.dumps(part))
        return 0
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "causalkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no causalkit sources under {SRC}")
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     scale=args.scale)
    print_report(record)
    print(json.dumps(summary(record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
