"""Workloads of the causalkit benchmark.

A workload says which `cml` commands one closed-loop client issues, in
rounds, how much work each command's output represents, and how to check
that output against an oracle. Every input is derived from the workload
seed; the program only ever sees the generated argv.

The oracles are written out here rather than imported from the test suite,
so a change to the tests cannot silently change what the benchmark accepts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MODELS = Path(__file__).resolve().parent / "models"


@dataclass(frozen=True)
class Command:
    kind: str                 # label used in reports, e.g. "detector=on"
    argv: tuple               # arguments of `cml`
    params: dict = field(default_factory=dict)  # what the oracle needs to know


class Workload:
    name = ""
    metric = ""               # what work_per_s counts, e.g. "trials_per_s"
    unit = ""
    # Rounds per traced pass for each benchmark second. The traced run does a
    # fixed amount of work, so its counts repeat exactly for a given seed.
    traced_rounds_per_s = 1.0

    def __init__(self, scale: float = 1.0):
        self.scale = scale

    def size(self, nominal: int, floor: int = 1) -> int:
        return max(floor, int(round(nominal * self.scale)))

    def warmup(self) -> Command:
        """One small command of the workload, run untimed before measuring."""
        raise NotImplementedError

    def round(self, rng) -> list:
        """The commands of one round; ``rng`` is a seeded random.Random."""
        raise NotImplementedError

    def work(self, cmd: Command, out: bytes) -> int:
        """Units of work (trials, steps, states, nodes) in one output."""
        raise NotImplementedError

    def check(self, cmd: Command, out: bytes) -> list:
        """Oracle failures of one output; an empty list means it passed."""
        raise NotImplementedError


def _csv_rows(out: bytes):
    lines = out.decode("utf-8").splitlines()
    if not lines:
        raise ValueError("empty output")
    return lines[0], [line.split(",") for line in lines[1:]]


def _guarded(check):
    """Turn a parse error in an oracle into a reported failure."""
    def wrapper(self, cmd, out):
        try:
            return check(self, cmd, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{cmd.kind}: unreadable output ({type(exc).__name__}: {exc})"]
    return wrapper


# --- fringes: the double-slit histogram ------------------------------------------

BINS = 64
HALF_WIDTH = 60.0
SEPARATION = 5.0
DISTANCE = 100.0
WAVENUMBER = 2.0 * math.pi
CENTRAL = slice(BINS // 4, 3 * BINS // 4)
# The acceptance gates hold at this many trials; at n trials the sampling
# noise of L1 and of the marked visibility grows by sqrt(REF_TRIALS / n).
REF_TRIALS = 100_000


def closed_form_two_path(coherent: bool) -> np.ndarray:
    """Bin probabilities of the two-path phase model, evaluated directly."""
    edges = np.linspace(-HALF_WIDTH, HALF_WIDTH, BINS + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    probs = np.zeros(BINS)
    for b, y in enumerate(centers):
        amp = 0.0 + 0.0j
        total = 0.0
        for sy in (-SEPARATION / 2.0, SEPARATION / 2.0):
            length = math.hypot(DISTANCE, y - sy)
            phase = complex(math.cos(WAVENUMBER * length),
                            math.sin(WAVENUMBER * length))
            amp += phase
            total += abs(phase) ** 2
        probs[b] = abs(amp) ** 2 if coherent else total
    return probs / probs.sum()


def visibility(counts: np.ndarray) -> float:
    central = counts[CENTRAL]
    return float((central.max() - central.min())
                 / (central.max() + central.min()))


def histogram_counts(out: bytes, trials: int) -> np.ndarray:
    header, rows = _csv_rows(out)
    if header != "bin,count,frequency":
        raise ValueError(f"bad header {header!r}")
    counts = np.zeros(BINS)
    for label, count, freq in rows:
        b, c = int(label), int(count)
        if not 0 <= b < BINS or c < 0 or float(freq) != c / trials:
            raise ValueError(f"bad row {label},{count},{freq}")
        counts[b] += c
    return counts


class Fringes(Workload):
    name = "fringes"
    metric = "trials_per_s"
    unit = "trials/s"
    traced_rounds_per_s = 0.4

    def __init__(self, scale=1.0):
        super().__init__(scale)
        self.trials = self.size(2000)

    @staticmethod
    def command(detector: str, trials: int, seed: int) -> Command:
        return Command(f"detector={detector}",
                       ("histogram", "builtin:double_slit",
                        "--param", f"detector={detector}",
                        "--observables", "detected",
                        "--trials", str(trials), "--seed", str(seed)),
                       {"detector": detector, "trials": trials})

    def warmup(self):
        return self.command("on", 20, 0)

    def round(self, rng):
        return [self.command(d, self.trials, rng.getrandbits(63))
                for d in ("off", "on")]

    def work(self, cmd, out):
        return cmd.params["trials"]

    @_guarded
    def check(self, cmd, out):
        trials = cmd.params["trials"]
        coherent = cmd.params["detector"] == "off"
        counts = histogram_counts(out, trials)
        fails = []
        if counts.sum() != trials:
            fails.append(f"{cmd.kind}: {counts.sum():.0f} outcomes, "
                         f"expected {trials}")
        noise = math.sqrt(REF_TRIALS / trials)
        l1 = float(np.abs(counts / trials
                          - closed_form_two_path(coherent)).sum())
        if not l1 < 0.05 * noise:
            fails.append(f"{cmd.kind}: L1 {l1:.4f} >= {0.05 * noise:.4f}")
        vis = visibility(counts)
        if coherent and not vis > 0.8:
            fails.append(f"{cmd.kind}: visibility {vis:.3f} <= 0.8")
        if not coherent and not vis < 0.1 * noise:
            fails.append(f"{cmd.kind}: visibility {vis:.3f} >= "
                         f"{0.1 * noise:.3f}")
        return fails


# --- trajectories: per-step evaluator work ---------------------------------------

ENERGY = "0.5*v*v+0.5*x*x"
MOMENTUM = "world.particles[0].vel + world.particles[1].vel"


class Trajectories(Workload):
    name = "trajectories"
    metric = "steps_per_s"
    unit = "steps/s"
    traced_rounds_per_s = 0.4

    def __init__(self, scale=1.0):
        super().__init__(scale)
        self.steps = self.size(2000, floor=2)

    @staticmethod
    def oscillator(steps: int, dt: float, seed: int) -> Command:
        return Command("harmonic_oscillator",
                       ("run", "builtin:harmonic_oscillator",
                        "--observables", f"x,v,{ENERGY}", "--steps", str(steps),
                        "--dt", repr(dt), "--seed", str(seed)),
                       {"steps": steps})

    @staticmethod
    def qftca(steps: int, cells: int, seed: int) -> Command:
        return Command("qftca_toy",
                       ("run", "builtin:qftca_toy", "--param", f"cells={cells}",
                        "--observables", MOMENTUM, "--steps", str(steps),
                        "--seed", str(seed)),
                       {"steps": steps})

    def warmup(self):
        return self.oscillator(10, 0.001, 0)

    def round(self, rng):
        return [self.oscillator(self.steps, rng.choice((0.0005, 0.001, 0.002)),
                                rng.getrandbits(63)),
                self.qftca(self.steps, rng.randint(10, 16), rng.getrandbits(63))]

    def work(self, cmd, out):
        return cmd.params["steps"]

    @_guarded
    def check(self, cmd, out):
        header, rows = _csv_rows(out)
        steps = cmd.params["steps"]
        if [int(r[0]) for r in rows] != list(range(steps + 1)):
            return [f"{cmd.kind}: rows are not steps 0..{steps}"]
        if cmd.kind == "qftca_toy":
            if header != f"step,time,{MOMENTUM}":
                return [f"{cmd.kind}: bad header {header!r}"]
            if {r[2] for r in rows} != {rows[0][2]}:
                return [f"{cmd.kind}: momentum not exactly conserved"]
            return []
        if header != f"step,time,x,v,{ENERGY}":
            return [f"{cmd.kind}: bad header {header!r}"]
        x, v, e = (np.array([float(r[i]) for r in rows]) for i in (2, 3, 4))
        fails = []
        if not np.allclose(e, 0.5 * v * v + 0.5 * x * x, rtol=1e-12, atol=0):
            fails.append(f"{cmd.kind}: energy column disagrees with x, v")
        drift = float(np.max(np.abs(e - e[0])) / e[0])
        if not drift < 1e-4:
            fails.append(f"{cmd.kind}: relative energy drift {drift:.2e}")
        return fails


# --- wavepacket: the Crank-Nicolson kernel ----------------------------------------

CELLS = 512
DX = 0.125
WAVE_DT = 0.01            # the bundled model's timestep
SIGMA0 = 1.0              # initial packet width of the bundled model
PSI = ",".join(f"psi[{i}]" for i in range(CELLS))


def parse_complex(text: str) -> complex:
    """Read a complex scalar as `cml` prints it: ``<re><sign><im>i``."""
    body = text[:-1] if text.endswith("i") else ""
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            return complex(float(body[:k]), float(body[k:]))
    raise ValueError(f"not a complex scalar: {text!r}")


class Wavepacket(Workload):
    name = "wavepacket"
    metric = "steps_per_s"
    unit = "steps/s"
    traced_rounds_per_s = 0.6

    @staticmethod
    def command(steps: int, seed: int) -> Command:
        # Every cell is an observable, recorded at the first and last step
        # only, so the output carries the final state for the oracle.
        return Command("schrodinger_1d",
                       ("run", "builtin:schrodinger_1d", "--steps", str(steps),
                        "--record-every", str(steps), "--observables", PSI,
                        "--seed", str(seed)),
                       {"steps": steps})

    def warmup(self):
        return self.command(5, 0)

    def round(self, rng):
        steps = self.size(rng.randint(800, 1200))
        return [self.command(steps, rng.getrandbits(63))]

    def work(self, cmd, out):
        return cmd.params["steps"]

    @_guarded
    def check(self, cmd, out):
        header, rows = _csv_rows(out)
        steps = cmd.params["steps"]
        if header != f"step,time,{PSI}" or len(rows) != 2:
            return [f"{cmd.kind}: expected a header and two rows"]
        if int(rows[1][0]) != steps:
            return [f"{cmd.kind}: last row is step {rows[1][0]}"]
        t = float(rows[1][1])
        psi = np.array([parse_complex(c) for c in rows[1][2:]])
        x = (np.arange(CELLS) - CELLS // 2) * DX
        rho = np.abs(psi) ** 2 * DX
        norm = float(rho.sum())
        mean = float(np.sum(x * rho))
        var = float(np.sum((x - mean) ** 2 * rho))
        expected = SIGMA0 ** 2 * (1.0 + (t / (2.0 * SIGMA0 ** 2)) ** 2)
        fails = []
        if not abs(t - steps * WAVE_DT) < 1e-9:
            fails.append(f"{cmd.kind}: final time {t}")
        if not abs(norm - 1.0) < 1e-8:
            fails.append(f"{cmd.kind}: norm drift {norm - 1.0:.2e}")
        if not abs(var - expected) / expected < 0.01:
            fails.append(f"{cmd.kind}: variance {var:.4f}, "
                         f"closed form {expected:.4f}")
        return fails


# --- analyze: bounded consistency and completeness checks -------------------------


class Analyze(Workload):
    name = "analyze"
    metric = "states_per_s"
    unit = "states/s"
    traced_rounds_per_s = 0.3
    model = MODELS / "quadrants.cml"

    def __init__(self, scale=1.0):
        super().__init__(scale)
        self.samples = self.size(1500)
        self.runs = self.size(15)

    def command(self, strategy: str, seed: int, samples=None, runs=None):
        samples = self.samples if samples is None else samples
        runs = self.runs if runs is None else runs
        steps = 100
        expected = samples if strategy == "sample" else runs * steps
        return Command(f"analyze-{strategy}",
                       ("analyze", str(self.model), "--strategy", strategy,
                        "--samples", str(samples), "--runs", str(runs),
                        "--steps", str(steps), "--seed", str(seed)),
                       {"expected": expected})

    def warmup(self):
        return self.command("sample", 0, samples=20)

    def round(self, rng):
        return [self.command("sample", rng.getrandbits(63)),
                self.command("trace", rng.getrandbits(63))]

    def work(self, cmd, out):
        report = json.loads(out)
        return (report["consistency"]["statesChecked"]
                + report["completeness"]["statesChecked"])

    @_guarded
    def check(self, cmd, out):
        report = json.loads(out)
        expected = cmd.params["expected"]
        fails = []
        for part, status in (("consistency", "pass"),
                             ("completeness", "pass-bounded")):
            verdict = report[part]
            if verdict["status"] != status:
                fails.append(f"{cmd.kind}: {part} {verdict['status']}")
            if verdict["statesChecked"] != expected:
                fails.append(f"{cmd.kind}: {part} checked "
                             f"{verdict['statesChecked']} of {expected}")
        if report["determinism"] != {"deterministic": True, "randomLaws": []}:
            fails.append(f"{cmd.kind}: determinism {report['determinism']}")
        return fails


# --- branch: many-worlds execution and world-tree encoding ------------------------


def tree_stats(tree: dict):
    """(nodes, leaf weight, pruned weight, non-pruned leaf kinds)."""
    nodes, leaf, pruned, kinds = 0, 0.0, 0.0, set()
    stack = [tree["root"]]
    while stack:
        node = stack.pop()
        nodes += 1
        children = node.get("children", [])
        stack.extend(children)
        if node.get("pruned"):
            pruned += node["weight"]
        elif "termination" in node:
            leaf += node["weight"]
            kinds.add(node["termination"]["kind"])
    return nodes, leaf, pruned, kinds


class Branch(Workload):
    name = "branch"
    metric = "worlds_per_s"
    unit = "nodes/s"
    traced_rounds_per_s = 0.8
    model = MODELS / "walk.cml"
    width = 64

    def command(self, depth: int, seed: int) -> Command:
        # --steps exceeds --depth, so every surviving lineage ends at the
        # depth bound rather than the step budget.
        return Command("branch",
                       ("branch", str(self.model), "--depth", str(depth),
                        "--width", str(self.width), "--steps", str(depth + 1),
                        "--seed", str(seed)))

    def warmup(self):
        return self.command(8, 0)

    def round(self, rng):
        return [self.command(self.size(rng.randint(22, 26), floor=8),
                             rng.getrandbits(63))]

    def work(self, cmd, out):
        return tree_stats(json.loads(out))[0]

    @_guarded
    def check(self, cmd, out):
        tree = json.loads(out)
        _, leaf, pruned, kinds = tree_stats(tree)
        mass = tree["prunedMass"]
        fails = []
        if not mass > 0:
            fails.append(f"{cmd.kind}: width bound never pruned")
        if not abs(pruned - mass) < 1e-12:
            fails.append(f"{cmd.kind}: pruned stubs weigh {pruned}, "
                         f"prunedMass {mass}")
        if not abs(leaf + mass - 1.0) < 1e-12:
            fails.append(f"{cmd.kind}: leaf weight {leaf} + pruned mass "
                         f"{mass} != 1")
        if kinds != {"depth-bound"}:
            fails.append(f"{cmd.kind}: leaf terminations {sorted(kinds)}")
        return fails


WORKLOADS = {w.name: w for w in (Fringes, Trajectories, Wavepacket, Analyze,
                                 Branch)}
