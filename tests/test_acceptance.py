"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with:  pytest -v -s tests/test_acceptance.py
"""

import hashlib
import io
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from causalkit import (
    CheckStrategy,
    RngStream,
    RunConfig,
    branch_run,
    build_bundled_model,
    build_initial_state,
    ca_step,
    check_completeness,
    check_consistency,
    classify_determinism,
    load_model,
    run,
    run_ensemble,
    validstate,
    write_trace,
)
from causalkit.cli import main as cli_main
from causalkit.engine import eval_guard
from causalkit.quantum import grid_coordinates

from conftest import (
    BROKEN,
    FIXTURES,
    ca_momentum,
    ca_particles,
    ca_world_value,
    draw_model,
    draws,
    fixture_source,
)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


# --- 1: interference rule ------------------------------------------------------

BINS = 64
HALF_WIDTH = 60.0
SEPARATION = 5.0
DISTANCE = 100.0
WAVENUMBER = 2.0 * math.pi
CENTRAL = slice(BINS // 4, 3 * BINS // 4)


def closed_form_two_path(coherent: bool) -> np.ndarray:
    """Independent oracle: the two-path phase model evaluated directly."""
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


def detection_histogram(detector: str, trials: int, seed: int) -> np.ndarray:
    model, state = build_bundled_model("double_slit", {"detector": detector})
    counts = np.zeros(BINS)
    cfg = RunConfig(dt=1.0, max_steps=5, seed=seed)
    for term, final in run_ensemble(model, state, cfg, trials):
        assert term.kind == "halted"
        counts[final.values["detected"]] += 1
    return counts


# SHA-256 of the int64 little-endian count vectors of criterion 1
FRINGES_OFF_SHA256 = \
    "8a105b27162b6ed0bd7ebb07754a6694a040b86912fe3ea54ae5126f4083a64c"
FRINGES_ON_SHA256 = \
    "51be4cbc39e6d880bf0eda818841e3f54bc6b4485700ea7f13123cb14a23da21"


def counts_digest(counts: np.ndarray) -> str:
    return hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()


def visibility(counts: np.ndarray) -> float:
    central = counts[CENTRAL]
    return (central.max() - central.min()) / (central.max() + central.min())


def test_criterion_1_interference_rule():
    with criterion(1, "interference rule"):
        trials = 100_000
        t0 = time.time()
        off = detection_histogram("off", trials, seed=101)
        on = detection_histogram("on", trials, seed=202)
        elapsed = time.time() - t0
        vis_off = visibility(off)
        vis_on = visibility(on)
        assert vis_off > 0.8, f"coherent visibility {vis_off:.3f}"
        assert vis_on < 0.1, f"marked visibility {vis_on:.3f}"
        l1_off = np.abs(off / trials - closed_form_two_path(True)).sum()
        l1_on = np.abs(on / trials - closed_form_two_path(False)).sum()
        assert l1_off < 0.05, f"coherent L1 {l1_off:.4f}"
        assert l1_on < 0.05, f"marked L1 {l1_on:.4f}"
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
        # the exact counts, so every trial of the flagship ensemble is
        # pinned bit for bit, not only its statistics
        assert counts_digest(off) == FRINGES_OFF_SHA256
        assert counts_digest(on) == FRINGES_ON_SHA256
        print(f"  [visibility off={vis_off:.3f} on={vis_on:.3f}; "
              f"L1 off={l1_off:.4f} on={l1_on:.4f}; {elapsed:.1f}s]")


# --- 2: Born weights --------------------------------------------------------------


def test_criterion_2_born_weights():
    with criterion(2, "Born weights"):
        psi = draw_model("random({0, 1}, PSI(0.6, 0.8i))", "int")
        rng = RngStream(77)
        n = 100_000
        ones = sum(draws(psi, rng, n))
        sigma = math.sqrt(n * 0.36 * 0.64)
        assert abs(ones - 0.64 * n) < 3 * sigma
        # global phase invariance, exact on the branch weights
        rotated = draw_model("random({0, 1}, PSI(0.6 * exp(2.345i), "
                             "0.8i * exp(2.345i)))", "int")

        def leaf_weights(model):
            tree = branch_run(model, build_initial_state(model),
                              RunConfig(dt=1.0, max_steps=1),
                              depth_bound=1, width_bound=2)
            return np.array([leaf.weight for leaf in tree.leaves()])
        diff = np.abs(leaf_weights(psi) - leaf_weights(rotated)).max()
        assert diff <= 1e-12


# --- 3: consistency / completeness predicates ---------------------------------------


def test_criterion_3_consistency_completeness():
    with criterion(3, "consistency/completeness predicates"):
        overlap = load_model(fixture_source("overlap.cml"))
        verdict = check_consistency(overlap,
                                    CheckStrategy("sample", count=10_000,
                                                  seed=4))
        assert verdict.status == "fail"
        hits = [l.name for l in overlap.laws
                if eval_guard(l, verdict.witness)]
        assert len(hits) >= 2  # witness replays

        partition = load_model(fixture_source("partition.cml"))
        ok = check_consistency(partition,
                               CheckStrategy("sample", count=10_000, seed=5))
        assert ok.status == "pass" and ok.states_checked == 10_000

        trivial = load_model(fixture_source("guard_true.cml"))
        assert check_completeness(
            trivial, CheckStrategy("sample", count=10)).status == "pass-trivially"

        escaping = load_model(fixture_source("escaping.cml"))
        fail = check_completeness(escaping,
                                  CheckStrategy("sample", count=1000, seed=6))
        assert fail.status == "fail"
        assert not validstate(escaping, fail.witness)  # direct re-evaluation


# --- 4: determinism classification ---------------------------------------------------


def test_criterion_4_determinism_classification():
    with criterion(4, "determinism classification"):
        schrod, _ = build_bundled_model("schrodinger_1d")
        assert classify_determinism(schrod).deterministic
        dslit, _ = build_bundled_model("double_slit")
        verdict = classify_determinism(dslit)
        assert not verdict.deterministic
        assert "Detect" in verdict.random_laws


# --- 5: interpreter loop ---------------------------------------------------------------


def test_criterion_5_interpreter_loop():
    with criterion(5, "interpreter loop"):
        model, state = build_bundled_model("counter")
        cfg = RunConfig(dt=1.0, max_steps=100, seed=7)
        trace = run(model, state, cfg)
        assert trace.termination.kind == "halted"
        assert trace.rows[-1].step == 10
        assert trace.final_state.values["n"] == 10
        for row in trace.rows:
            assert row.time == row.step * cfg.dt  # exact multiples

        def serialized():
            buf = io.BytesIO()
            write_trace(run(model, state, cfg), "csv", buf)
            return buf.getvalue()

        assert serialized() == serialized()  # same seed, byte-identical


# --- 6: many-worlds branching -------------------------------------------------------------


def test_criterion_6_branching():
    with criterion(6, "many-worlds branching"):
        psi = load_model(fixture_source("psi_draw.cml"))
        state = build_initial_state(psi)
        tree = branch_run(psi, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=8, width_bound=64)
        leaves = sorted(tree.leaves(), key=lambda l: l.outcome)
        assert [l.outcome for l in leaves] == ["0", "1"]
        assert leaves[0].weight == pytest.approx(0.36, abs=1e-12)
        assert leaves[1].weight == pytest.approx(0.64, abs=1e-12)

        coins = load_model(fixture_source("two_coin.cml"))
        cstate = build_initial_state(coins)
        ctree = branch_run(coins, cstate, RunConfig(dt=1.0, max_steps=10),
                           depth_bound=2, width_bound=64)
        cleaves = ctree.leaves()
        assert len(cleaves) == 4
        assert all(l.weight == pytest.approx(0.25, abs=1e-12)
                   for l in cleaves)

        # weight conservation, including under pruning
        for width in (1, 2, 64):
            t = branch_run(coins, cstate, RunConfig(dt=1.0, max_steps=10),
                           depth_bound=8, width_bound=width)
            assert abs(t.leaf_weight_total() + t.pruned_mass - 1.0) < 1e-12

        # Monte Carlo marginals vs leaf weights at 1e4 runs, 3 sigma
        n = 10_000
        counts = {0: 0, 1: 0}
        for i in range(n):
            trace = run(psi, state, RunConfig(dt=1.0, max_steps=10, seed=i))
            counts[trace.final_state.values["outcome"]] += 1
        for leaf in leaves:
            w = leaf.weight
            sigma = math.sqrt(n * w * (1 - w))
            observed = counts[int(leaf.outcome)]
            assert abs(observed - n * w) < 3 * sigma


# --- 7: numerics ----------------------------------------------------------------------------


def test_criterion_7_numerics():
    with criterion(7, "numerics"):
        # harmonic oscillator: 10 periods at dt = 0.001
        model, state = build_bundled_model("harmonic_oscillator")
        dt = 0.001
        ten_periods = int(round(10 * 2 * math.pi / dt))
        cfg = RunConfig(dt=dt, max_steps=ten_periods, seed=0, record_every=1)
        trace = run(model, state, cfg)
        e0 = 0.5  # x0 = 1, v0 = 0
        worst = 0.0
        x_at_2pi = None
        for row in trace.rows:
            x = row.snapshot.values["x"]
            v = row.snapshot.values["v"]
            energy = 0.5 * v * v + 0.5 * x * x
            worst = max(worst, abs(energy - e0) / e0)
            if x_at_2pi is None and row.time >= 2 * math.pi:
                x_at_2pi = x
        assert worst < 1e-4, f"energy drift {worst:.2e}"
        assert abs(x_at_2pi - 1.0) < 1e-3

        # Schrodinger: norm drift < 1e-8 over 1000 Crank-Nicolson steps and
        # free-packet variance within 1% of the closed form
        smodel, sstate = build_bundled_model("schrodinger_1d")
        scfg = RunConfig(dt=0.01, max_steps=1000, record_every=1000)
        strace = run(smodel, sstate, scfg)
        psi = strace.final_state.values["psi"]
        norm = float(np.sum(np.abs(psi.amps) ** 2) * psi.dx)
        assert abs(norm - 1.0) < 1e-8
        x = grid_coordinates(len(psi.amps), psi.dx)
        rho = np.abs(psi.amps) ** 2 * psi.dx
        mean = float(np.sum(x * rho))
        var = float(np.sum((x - mean) ** 2 * rho))
        t = 1000 * 0.01
        sigma0 = 1.0
        expected = sigma0 ** 2 * (1.0 + (t / (2.0 * sigma0 ** 2)) ** 2)
        assert abs(var - expected) / expected < 0.01
        print(f"  [drift={worst:.2e}; x(2pi)-1={x_at_2pi - 1:.2e}; "
              f"norm-1={norm - 1:.2e}; var err={(var - expected) / expected:.2%}]")


# --- 8: entanglement correlation ---------------------------------------------------------------


def test_criterion_8_entanglement():
    with criterion(8, "entanglement correlation"):
        model, state = build_bundled_model("entangled_pair")
        exceptions = 0
        for seed in range(10_000):
            trace = run(model, state,
                        RunConfig(dt=1.0, max_steps=5, seed=seed,
                                  record_every=5))
            s1 = trace.final_state.values["s1"]
            s2 = trace.final_state.values["s2"]
            if s1 != -s2 or s1 not in (-1, 1):
                exceptions += 1
        assert exceptions == 0


# --- 9: cellular-automaton toy -------------------------------------------------------------------


def test_criterion_9_qftca_toy():
    with criterion(9, "cellular-automaton toy"):
        # momentum conserved exactly: 1e3 random worlds x 100 steps
        rng = np.random.default_rng(123)
        for _ in range(1000):
            n = int(rng.integers(4, 24))
            k = int(rng.integers(0, 8))
            particles = [(i, int(rng.integers(0, n)), int(rng.integers(-3, 4)),
                          int(rng.integers(0, 3))) for i in range(k)]
            world = ca_world_value(rng.normal(size=n), particles)
            p0 = ca_momentum(world)
            for _ in range(100):
                world = ca_step(world)
            assert ca_momentum(world) == p0

        # head-on fixture matches the committed hand-traced evolution
        data = json.loads(
            (FIXTURES / "ca_headon_trace.json").read_text())
        rows = data["steps"]
        world = ca_world_value(np.zeros(data["cells"]),
                               [(1, *rows[0][0]), (2, *rows[0][1])])
        for idx, expected in enumerate(rows):
            assert ca_particles(world) == expected, f"step {idx}"
            world = ca_step(world)


# --- 10: frontend robustness ------------------------------------------------------------------------


def test_criterion_10_frontend_robustness(capsys):
    with criterion(10, "frontend robustness"):
        broken = sorted(BROKEN.glob("*.cml"))
        assert len(broken) >= 20
        for path in broken:
            code = cli_main(["run", str(path)])
            captured = capsys.readouterr()
            assert code == 1, path.name
            first = captured.err.splitlines()[0]
            prefix, _, _ = first.partition(" ")
            location = prefix[len(str(path)) + 1:]
            line, col = location.rstrip(":").split(":")[:2]
            assert int(line) >= 1 and int(col) >= 1, path.name

        # every bundled .cml source parses, typechecks, and runs: seven
        # models, double_slit with one source per detector setting
        models_dir = Path(__file__).parents[1] / "src" / "causalkit" / "models"
        sources = sorted(models_dir.glob("*.cml"))
        assert len(sources) == 8
        for path in sources:
            model = load_model(path.read_text())
            state = build_initial_state(model)
            trace = run(model, state,
                        RunConfig(dt=model.default_timestep, max_steps=20))
            assert not trace.termination.is_error, path.name
        # and every bundled model runs via the CLI
        for name in ("counter", "free_particle", "harmonic_oscillator",
                     "schrodinger_1d", "double_slit", "entangled_pair",
                     "qftca_toy"):
            code = cli_main(["run", f"builtin:{name}", "--steps", "20",
                             "--out", "/dev/null"])
            capsys.readouterr()
            assert code == 0, name
