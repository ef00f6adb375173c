"""Smoke test of the benchmark: every workload at a tiny size emits every
metric named in BENCHMARK.json with its unit, traced counts repeat exactly,
and every oracle trips on a deliberately corrupted output.

    python3 -m pytest cmlbench/test_smoke.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, parse_complex

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def units(entries):
    return {m["name"]: m["unit"] for m in entries}


def emitted(record):
    return {name: m["unit"] for name, m in record["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics(name, tmp_path):
    record = run.measure(name, seed=3, seconds=0.01, trace=False,
                         out_dir=tmp_path, scale=0.05, workers=1)
    failures = [f for e in record["commands"] for f in e["failures"]]
    assert record["correct"] and not failures, failures
    assert record["failed_frac"] == 0
    assert emitted(record) == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert all(len(e["sha256"]) == 64 for e in record["commands"])
    assert record["environment"]["src_lines"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_metrics_repeat(name, tmp_path):
    first, second = (run.measure(name, seed=5, seconds=1, trace=True,
                                 out_dir=tmp_path / str(k), scale=0.05)
                     for k in range(2))
    assert first["correct"] and first["hooks_absent"] == []
    assert emitted(first) == units(SPEC["per_layer"])
    for metric, unit in units(SPEC["per_layer"]).items():
        if unit == "count":
            assert (first["metrics"][metric]["value"]
                    == second["metrics"][metric]["value"]), metric


def test_absent_hook_is_reported():
    from tracing import Recorder

    recorder = Recorder()
    recorder.install([("causalkit.engine", "no_such_function", "engine.x"),
                      ("causalkit.no_such_module", "f", "engine.y")])
    recorder.uninstall()
    assert recorder.absent == ["causalkit.engine.no_such_function",
                               "causalkit.no_such_module.f"]


def output(argv) -> bytes:
    outcome = run.execute(run.import_cli(), argv)
    assert outcome.code == 0, outcome.err
    return outcome.out


def replace_rows(out: bytes, edit) -> bytes:
    lines = out.decode().splitlines()
    return ("\n".join(edit(lines)) + "\n").encode()


def test_fringes_oracle_trips():
    w = WORKLOADS["fringes"]()
    off = w.command("off", 2000, 11)
    good = output(off.argv)
    assert w.check(off, good) == []

    def shuffle_bins(lines):
        rows = [line.split(",") for line in lines[1:]]
        labels = [r[0] for r in rows]
        random.Random(0).shuffle(labels)
        return lines[:1] + [",".join([b] + r[1:]) for b, r in zip(labels, rows)]

    assert w.check(off, replace_rows(good, shuffle_bins))
    # fringes where the marked detector must have washed them out
    assert w.check(w.command("on", 2000, 11), good)


def test_trajectories_oracle_trips():
    w = WORKLOADS["trajectories"]()
    osc = w.oscillator(200, 0.001, 0)
    good = output(osc.argv)
    assert w.check(osc, good) == []

    def bump_energy(lines):
        cells = lines[-1].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-3))
        return lines[:-1] + [",".join(cells)]

    assert w.check(osc, replace_rows(good, bump_energy))
    ca = w.qftca(50, 10, 0)
    good = output(ca.argv)
    assert w.check(ca, good) == []
    assert w.check(ca, replace_rows(
        good, lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",2"]))


def test_wavepacket_oracle_trips():
    w = WORKLOADS["wavepacket"]()
    cmd = w.command(100, 0)
    good = output(cmd.argv)
    assert w.check(cmd, good) == []
    step0, last = good.decode().splitlines()[1:3]
    # a packet that never spread: variance far from the closed form
    stale = ",".join(last.split(",")[:2] + step0.split(",")[2:])
    assert w.check(cmd, replace_rows(good, lambda lines: lines[:2] + [stale]))

    def scale_psi(lines):
        cells = lines[-1].split(",")
        scaled = []
        for c in cells[2:]:
            z = 1.001 * parse_complex(c)
            scaled.append(f"{z.real!r}{z.imag:+.17g}i")
        return lines[:-1] + [",".join(cells[:2] + scaled)]

    assert w.check(cmd, replace_rows(good, scale_psi))


def test_analyze_oracle_trips():
    w = WORKLOADS["analyze"](scale=0.05)
    cmd = w.command("sample", 0)
    good = output(cmd.argv)
    assert w.check(cmd, good) == []
    report = json.loads(good)
    report["completeness"]["statesChecked"] -= 1
    assert w.check(cmd, json.dumps(report).encode())
    report = json.loads(good)
    report["consistency"]["status"] = "fail"
    assert w.check(cmd, json.dumps(report).encode())


def test_branch_oracle_trips():
    w = WORKLOADS["branch"]()
    cmd = w.command(10, 0)
    good = output(cmd.argv)
    assert w.check(cmd, good) == []
    tree = json.loads(good)
    tree["prunedMass"] = 0.0
    assert w.check(cmd, json.dumps(tree).encode())
    shallow = w.command(4, 0)         # 16 worlds never exceed the width
    assert w.check(shallow, output(shallow.argv))


def test_same_seed_repeat_trips():
    w = WORKLOADS["trajectories"]()
    cmd = w.qftca(20, 10, 0)
    ledger = run.Ledger(w)
    outcome = run.execute(run.import_cli(), cmd.argv)
    entry = ledger.add(cmd, outcome, "timed")
    ledger.compare(entry, outcome, "repeat")
    assert entry["failures"] == []
    outcome.out += b"\n"
    ledger.compare(entry, outcome, "repeat")
    assert entry["failures"]
