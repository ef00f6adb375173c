import numpy as np
import pytest

from causalkit import (
    BadParamError,
    RunConfig,
    UnknownModelError,
    branch_run,
    build_bundled_model,
    classify_determinism,
    list_bundled_models,
    run,
)

from causalkit import bundled
from causalkit.cli import main
from causalkit.errors import CausalKitError

from conftest import total_weight


class TestRegistry:
    def test_all_models_listed(self):
        assert set(list_bundled_models()) == {
            "counter", "free_particle", "harmonic_oscillator",
            "schrodinger_1d", "double_slit", "entangled_pair", "qftca_toy"}

    def test_unknown_model(self):
        with pytest.raises(UnknownModelError):
            build_bundled_model("warp_drive")

    def test_bad_param(self):
        with pytest.raises(BadParamError):
            build_bundled_model("double_slit", {"detector": "maybe"})
        with pytest.raises(BadParamError):
            build_bundled_model("double_slit", {"unknown_knob": "1"})
        with pytest.raises(BadParamError):
            build_bundled_model("counter", {"detector": "on"})

    def test_a_model_without_its_source_file(self, monkeypatch, capsys):
        # it is not listed, and building it is a toolkit error that names
        # the model and the file, so `cml run` prints it and exits 1
        monkeypatch.setitem(bundled._MODELS, "ghost", ("ghost.cml", 1.0))
        monkeypatch.setitem(bundled._MODELS, "half", (
            {"off": "counter.cml", "on": "missing.cml"}, 1.0))
        assert "ghost" not in list_bundled_models()
        assert "half" not in list_bundled_models()
        assert "counter" in list_bundled_models()
        text = ("cannot read bundled model 'ghost' source 'ghost.cml': "
                "No such file or directory")
        with pytest.raises(CausalKitError) as exc:
            build_bundled_model("ghost")
        assert str(exc.value) == text
        assert main(["run", "builtin:ghost"]) == 1
        assert capsys.readouterr() == ("", f"error: {text}\n")

    def test_every_model_runs_to_non_error_termination(self):
        for name in list_bundled_models():
            model, state = build_bundled_model(name)
            cfg = RunConfig(dt=model.default_timestep, max_steps=100, seed=0)
            trace = run(model, state, cfg)
            assert not trace.termination.is_error, (name, trace.termination)


class TestCounter:
    def test_runs_to_ten(self):
        model, state = build_bundled_model("counter")
        trace = run(model, state, RunConfig(dt=1.0, max_steps=50, seed=7))
        assert trace.final_state.values["n"] == 10
        assert trace.rows[-1].step == 10

    def test_deterministic(self):
        model, _ = build_bundled_model("counter")
        assert classify_determinism(model).deterministic


class TestDoubleSlit:
    def test_nondeterministic_with_detection_law(self):
        for detector in ("off", "on"):
            model, _ = build_bundled_model("double_slit",
                                           {"detector": detector})
            verdict = classify_determinism(model)
            assert not verdict.deterministic
            assert "Detect" in verdict.random_laws

    def test_detector_on_adds_which_path_law(self):
        off, _ = build_bundled_model("double_slit", {"detector": "off"})
        on, _ = build_bundled_model("double_slit", {"detector": "on"})
        assert [l.name for l in off.laws] == ["Detect"]
        assert [l.name for l in on.laws] == ["MarkPath", "Detect"]
        assert on.law("MarkPath").uses_random

    def test_halts_with_detected_bin(self):
        model, state = build_bundled_model("double_slit")
        trace = run(model, state, RunConfig(dt=1.0, max_steps=5, seed=1))
        assert trace.termination.kind == "halted"
        assert 0 <= trace.final_state.values["detected"] < 64

    def test_initial_amplitudes_normalized(self):
        _, state = build_bundled_model("double_slit")
        pw = state.values["pw"]
        assert total_weight(pw) == pytest.approx(1.0, abs=1e-9)
        assert pw.n_paths == 128

    def test_branchable_detection(self):
        model, state = build_bundled_model("double_slit", {"bins": "8"})
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=5),
                          depth_bound=2, width_bound=64)
        leaves = tree.leaves()
        assert abs(tree.leaf_weight_total() + tree.pruned_mass - 1.0) < 1e-12
        assert 1 < len(leaves) <= 8


class TestHarmonicOscillator:
    def test_cml_law_matches_velocity_verlet_op(self):
        # the inlined update in the .cml source must reproduce the
        # textbook integrator step for step: force -x, unit mass
        model, state = build_bundled_model("harmonic_oscillator")
        dt = 0.001
        trace = run(model, state, RunConfig(dt=dt, max_steps=200))
        x, v = 1.0, 0.0
        for _ in range(200):
            a0 = -x
            x1 = x + v * dt + 0.5 * a0 * dt * dt
            x, v = x1, v + 0.5 * (a0 - x1) * dt
        assert trace.final_state.values["x"] == pytest.approx(x, abs=1e-12)
        assert trace.final_state.values["v"] == pytest.approx(v, abs=1e-12)


class TestDoubleSlitBranchWeights:
    def test_branch_weights_equal_closed_form_exactly(self):
        # branching enumerates the detection distribution without Monte
        # Carlo noise; leaf weights must equal the two-path model's
        # probabilities to near machine precision
        import math
        bins, half_width, sep, dist, k = 16, 60.0, 5.0, 100.0, 2 * math.pi
        model, state = build_bundled_model(
            "double_slit", {"bins": str(bins)})
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=5),
                          depth_bound=2, width_bound=10_000)
        weights = np.zeros(bins)
        for leaf in tree.leaves():
            weights[leaf.snapshot.values["detected"]] += leaf.weight
        edges = np.linspace(-half_width, half_width, bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        amp = sum(np.exp(1j * k * np.sqrt(dist ** 2 + (centers - sy) ** 2))
                  for sy in (-sep / 2, sep / 2))
        probs = np.abs(amp) ** 2
        probs /= probs.sum()
        np.testing.assert_allclose(weights, probs, atol=1e-12)


class TestEntangledPair:
    def test_anticorrelated(self):
        model, state = build_bundled_model("entangled_pair")
        for seed in range(200):
            trace = run(model, state, RunConfig(dt=1.0, max_steps=5,
                                                seed=seed))
            s1 = trace.final_state.values["s1"]
            s2 = trace.final_state.values["s2"]
            assert s1 in (-1, 1)
            assert s1 == -s2

    def test_branch_gives_two_equal_worlds(self):
        model, state = build_bundled_model("entangled_pair")
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=5),
                          depth_bound=2, width_bound=8)
        leaves = tree.leaves()
        assert len(leaves) == 2
        for leaf in leaves:
            assert leaf.weight == pytest.approx(0.5, abs=1e-12)
            s1 = leaf.snapshot.values["s1"]
            s2 = leaf.snapshot.values["s2"]
            assert s1 == -s2


class TestQftcaToy:
    def test_default_head_on_configuration(self):
        model, state = build_bundled_model("qftca_toy")
        world = state.values["world"]
        particles = world.fields["particles"]
        assert [(p.fields["pos"], p.fields["vel"])
                for p in particles] == [(2, 1), (8, -1)]

    @pytest.mark.parametrize("cells", [16, 64])
    def test_cells_param(self, cells):
        model, state = build_bundled_model("qftca_toy",
                                           {"cells": str(cells)})
        assert len(state.values["world"].fields["phi"].values) == cells
        trace = run(model, state, RunConfig(dt=1.0, max_steps=2))
        assert trace.termination.kind == "max-steps"

    def test_momentum_invariant_through_interpreter(self):
        model, state = build_bundled_model("qftca_toy")
        cfg = RunConfig(dt=1.0, max_steps=30, seed=0, observables=(
            ("world", lambda s: s.values["world"]),))
        trace = run(model, state, cfg)
        for row in trace.rows:
            world, = row.values
            total = sum(p.fields["vel"]
                        for p in world.fields["particles"])
            assert total == 0


class TestSchrodinger1d:
    def test_norm_preserved_through_interpreter(self):
        model, state = build_bundled_model("schrodinger_1d")
        trace = run(model, state, RunConfig(dt=0.01, max_steps=100,
                                            record_every=100))
        psi = trace.final_state.values["psi"]
        norm = float(np.sum(np.abs(psi.amps) ** 2) * psi.dx)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_deterministic(self):
        model, _ = build_bundled_model("schrodinger_1d")
        assert classify_determinism(model).deterministic
