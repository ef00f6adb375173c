"""Differential tests: run_ensemble against the per-trial run loop.

Every trial of an ensemble must end exactly as ``run`` ends with the
trial's derived seed: same termination (kind, message, laws, witness) and
the same final state, value for value and time for time.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from causalkit import (
    RngStream,
    RunConfig,
    branch_run,
    build_bundled_model,
    build_initial_state,
    derive_seed,
    load_model,
    parse_expression,
    run,
    run_ensemble,
)
from causalkit.state import state_to_json

from conftest import fixture_source

VECTORS = json.loads(
    (Path(__file__).parent / "fixtures" / "rng_vectors.json").read_text())

WALK = """
model walk {
  state { x: int in [-1000, 1000]; }
  init { x = 0; }
  law Step { when true; then { x = x + random({-1, 1}, FLAT); } }
}
"""

GAUSS_WALK = """
model gauss_walk {
  state { x: real; n: int in [0, 1000]; }
  init { x = 0.0; n = 0; }
  halt when n >= 4;
  law Step {
    when true;
    then {
      x = x + random(GAUSS(0.0, 1.0)) + random([-2.0, 2.0], GAUSS(0.5, 1.0));
      n = n + 1;
    }
  }
}
"""

# Overlapping guards: only first-match mode can run it.
OVERLAP_WALK = """
model overlap_walk {
  state { x: int in [-100, 100]; }
  init { x = 0; }
  halt when x >= 3 || x <= -3;
  law Up { when x >= 0; then { x = x + random({-1, 2}, WEIGHTS(2, 1)); } }
  law Any { when true; then { x = x + random({-1, 1}, FLAT); } }
}
"""


def _state_key(s):
    return json.dumps(state_to_json(s), sort_keys=True)


def _termination_key(t):
    witness = None if t.witness is None else _state_key(t.witness)
    return (t.kind, t.message, t.laws, witness)


def assert_matches_run(model, init, cfg, trials):
    """Compare every ensemble trial with its own run; return the pairs."""
    pairs = list(run_ensemble(model, init, cfg, trials))
    assert len(pairs) == trials
    for t, (term, final) in enumerate(pairs):
        trace = run(model, init, replace(cfg, seed=derive_seed(cfg.seed, t)))
        assert _termination_key(term) == \
            _termination_key(trace.termination), f"trial {t}"
        assert final.time == trace.final_state.time, f"trial {t}"
        assert _state_key(final) == _state_key(trace.final_state), \
            f"trial {t}"
    return pairs


def _kinds(pairs):
    return {term.kind for term, _ in pairs}


class TestMatchesRun:
    @pytest.mark.parametrize("detector", ["off", "on"])
    def test_double_slit(self, detector):
        model, init = build_bundled_model("double_slit",
                                          {"detector": detector})
        pairs = assert_matches_run(model, init,
                                   RunConfig(dt=1.0, max_steps=5, seed=17),
                                   400)
        assert _kinds(pairs) == {"halted"}

    def test_entangled_pair(self):
        model, init = build_bundled_model("entangled_pair")
        pairs = assert_matches_run(model, init,
                                   RunConfig(dt=1.0, max_steps=5, seed=4),
                                   100)
        spins = {(f.values["s1"], f.values["s2"])
                 for _, f in pairs}
        assert spins == {(1, -1), (-1, 1)}

    def test_counter_deterministic_halts(self):
        model, init = build_bundled_model("counter")
        pairs = assert_matches_run(model, init,
                                   RunConfig(dt=1.0, max_steps=50), 10)
        assert _kinds(pairs) == {"halted"}
        # every trial ends on the same shared state object
        assert len({id(f) for _, f in pairs}) == 1

    def test_flat_walk_max_steps(self):
        model = load_model(WALK)
        pairs = assert_matches_run(model, build_initial_state(model),
                                   RunConfig(dt=0.5, max_steps=12, seed=8),
                                   200)
        assert _kinds(pairs) == {"max-steps"}

    def test_gauss(self):
        model = load_model(GAUSS_WALK)
        pairs = assert_matches_run(model, build_initial_state(model),
                                   RunConfig(dt=1.0, max_steps=10, seed=2),
                                   50)
        assert _kinds(pairs) == {"halted"}

    def test_categorical_and_continuous_in_one_transition(self):
        model = load_model(fixture_source("mixed_draws.cml"))
        pairs = assert_matches_run(model, build_initial_state(model),
                                   RunConfig(dt=1.0, max_steps=10, seed=6),
                                   300)
        xs = [f.values["x"] for _, f in pairs]
        assert any(x != int(x) for x in xs)   # some took the uniform branch
        assert any(x == int(x) for x in xs)   # some stayed categorical

    def test_errors_on_some_branches(self):
        # fallible.cml: a walk whose second draw divides by zero on some
        # branches (after the first draw was made), reaches x = -2 where
        # two laws apply, or x = 3 where none does
        model = load_model(fixture_source("fallible.cml"))
        pairs = assert_matches_run(model, build_initial_state(model),
                                   RunConfig(dt=1.0, max_steps=30, seed=1),
                                   200)
        assert {"no-applicable-law", "multiple-applicable",
                "eval-error"} <= _kinds(pairs)

    def test_first_match_mode(self):
        model = load_model(OVERLAP_WALK)
        pairs = assert_matches_run(
            model, build_initial_state(model),
            RunConfig(dt=1.0, max_steps=40, seed=12, mode="first-match"),
            200)
        assert "halted" in _kinds(pairs) <= {"halted", "max-steps"}
        strict = assert_matches_run(model, build_initial_state(model),
                                    RunConfig(dt=1.0, max_steps=40, seed=12),
                                    20)
        assert _kinds(strict) == {"multiple-applicable"}

    def test_nonzero_initial_time(self):
        model = load_model(WALK)
        init = replace(build_initial_state(model), time=2.5)
        assert_matches_run(model, init,
                           RunConfig(dt=0.1, max_steps=7, seed=3), 50)


class TestSharing:
    def test_memo_bounded_by_trials_on_continuous_walk(self):
        model = load_model(GAUSS_WALK.replace("halt when n >= 4;", ""))
        ens = run_ensemble(model, build_initial_state(model),
                           RunConfig(dt=1.0, max_steps=500, seed=0), 3)
        pairs = list(ens)
        assert _kinds(pairs) == {"max-steps"}
        assert len(ens.memo) <= 3

    def test_memo_never_exceeds_trials(self):
        model = load_model(WALK)
        ens = run_ensemble(model, build_initial_state(model),
                           RunConfig(dt=1.0, max_steps=30, seed=0), 20)
        list(ens)
        assert len(ens.memo) == 20

    def test_outcome_paths_share_one_trie(self, monkeypatch):
        import causalkit.interpreter as interpreter

        calls = []

        def counting_apply_law(*args, **kwargs):
            calls.append(args[0].name)
            return apply_law(*args, **kwargs)

        apply_law = interpreter.apply_law
        monkeypatch.setattr(interpreter, "apply_law", counting_apply_law)
        model = load_model(
            "model two_draws { state { a: int in [0, 2]; b: int in [0, 2]; } "
            "init { a = 0; b = 0; } "
            "law L { when true; then { a = random({1, 2}, FLAT); "
            "b = random({1, 2}, FLAT); } } }")
        pairs = list(run_ensemble(model, build_initial_state(model),
                                  RunConfig(dt=1.0, max_steps=1, seed=4),
                                  200))
        finals = {(f.values["a"], f.values["b"]) for _, f in pairs}
        assert finals == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert calls == ["L"] * 4

    def test_iterating_twice_gives_the_same_pairs(self):
        model, init = build_bundled_model("double_slit", {"detector": "on"})
        ens = run_ensemble(model, init, RunConfig(dt=1.0, max_steps=5), 50)
        first = [(t.kind, _state_key(f)) for t, f in ens]
        assert [(t.kind, _state_key(f)) for t, f in ens] == first

    def test_rejects_observables_and_empty_ensembles(self):
        model, init = build_bundled_model("counter")
        expr, _ = parse_expression("n")
        with pytest.raises(ValueError, match="observables"):
            run_ensemble(model, init,
                         RunConfig(dt=1.0, max_steps=5,
                                   observables=(("n", expr),)), 3)
        with pytest.raises(ValueError, match="trials"):
            run_ensemble(model, init, RunConfig(dt=1.0, max_steps=5), 0)


class TestMatchesBranchWeights:
    """Monte Carlo frequencies against the exact distribution that
    ``branch_run`` enumerates, so that the two executors check each other
    (McKeeman, "Differential Testing for Software", 1998)."""

    TRIALS = 20_000

    @staticmethod
    def _exact(detector: str) -> dict:
        model, init = build_bundled_model("double_slit",
                                          {"detector": detector})
        tree = branch_run(model, init, RunConfig(dt=1.0, max_steps=5),
                          depth_bound=4, width_bound=10_000)
        leaves = tree.leaves()
        assert len(leaves) == {"off": 64, "on": 128}[detector]
        assert tree.pruned_mass == 0.0
        exact: dict = {}
        for leaf in leaves:
            assert leaf.termination.kind == "halted"
            d = leaf.snapshot.values["detected"]
            exact[d] = exact.get(d, 0.0) + leaf.weight
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        return exact

    @staticmethod
    def _l1(counts: dict, trials: int, exact: dict) -> float:
        return sum(abs(counts.get(b, 0) / trials - exact.get(b, 0.0))
                   for b in set(counts) | set(exact))

    @pytest.mark.parametrize("detector", ["off", "on"])
    def test_double_slit_frequencies(self, detector):
        model, init = build_bundled_model("double_slit",
                                          {"detector": detector})
        counts: dict = {}
        for term, final in run_ensemble(
                model, init, RunConfig(dt=1.0, max_steps=5, seed=23),
                self.TRIALS):
            assert term.kind == "halted"
            d = final.values["detected"]
            counts[d] = counts.get(d, 0) + 1
        bins = 64
        # E[L1] <= sqrt(2 bins / (pi trials)) ~= 0.045; the bound is 1.5
        # times sqrt(bins / trials) ~= 0.085
        bound = 1.5 * (bins / self.TRIALS) ** 0.5
        assert self._l1(counts, self.TRIALS, self._exact(detector)) < bound
        # and the bound tells the two distributions apart
        other = self._exact("on" if detector == "off" else "off")
        assert self._l1(counts, self.TRIALS, other) > 2 * bound


class TestRekey:
    def test_rekey_reproduces_committed_vectors(self):
        s = RngStream(12345)
        for entry in VECTORS["streams"]:
            seed = int(entry["seed"], 16)
            for _ in range(300):   # past one buffer refill
                s.raw64()
            s.rekey(seed)
            assert s.draw_count == 0
            assert [format(s.raw64(), "#018x") for _ in range(16)] == \
                entry["raw64"]
            s.normal(0.0, 1.0)
            s.rekey(seed)
            assert [format(s.uniform01(), ".17g") for _ in range(4)] == \
                entry["uniform01"]
            s.rekey(seed)
            assert [format(s.normal(0.0, 1.0), ".17g")
                    for _ in range(4)] == entry["normal01"]
            assert s.draw_count == 8
            assert s.seed == seed
