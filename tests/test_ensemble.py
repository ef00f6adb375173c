"""Differential tests: run_ensemble against the per-trial run loop.

Every trial of an ensemble must end exactly as ``run`` ends with the
trial's derived seed: same termination (kind, message, laws, witness) and
the same final state, value for value and time for time.
"""

import json
import sys
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
import causalkit.interpreter as interpreter
from causalkit import engine, quantum
from causalkit.interpreter import _BATCH, _MIN_GROUP, Ensemble
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


# One draw, then a deterministic count: each of the two groups of trials
# reaches a new state object every step, all of them through the walk.
SPLIT_COUNT = """
model split_count {
  state { a: int in [0, 1]; n: int in [0, 1000]; }
  init { a = 0; n = 0; }
  law Split { when n == 0; then { a = random({0, 1}, FLAT); n = 1; } }
  law Count { when n > 0; then { n = n + 1; } }
}
"""

# The halt check itself fails where x = -2.
FALLIBLE_HALT = """
model fallible_halt {
  state { x: int in [-100, 100]; }
  init { x = 0; }
  halt when 1.0 / (x + 2) > 5.0;
  law Step { when true; then { x = x + random({-1, 1}, FLAT); } }
}
"""

# Three draws a step, most trials on the likeliest outcome: twelve words
# per trial, so groups of trials still share nodes in the third block.
SKEWED_DRAWS = """
model skewed_draws {
  state { x: int in [-100, 100]; n: int in [0, 10]; }
  init { x = 0; n = 0; }
  halt when n >= 4;
  law Step {
    when true;
    then {
      x = x + random({0, 1}, WEIGHTS(15, 1)) + random({0, 2}, WEIGHTS(15, 1))
            + random({0, 4}, WEIGHTS(15, 1));
      n = n + 1;
    }
  }
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


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial ran on its own")


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

    def test_walk_past_one_batch(self):
        # a full batch and three trials of the next, which starts with a
        # memo and tries the first batch filled
        model = load_model(WALK)
        assert_matches_run(model, build_initial_state(model),
                           RunConfig(dt=1.0, max_steps=6, seed=5),
                           _BATCH + 3)

    def test_memo_fills_mid_batch(self, monkeypatch):
        # both groups add an entry every step, so the 100 memo entries run
        # out at about step 50 of 80, while the groups are still being
        # routed
        entries = []

        def counting_entry(self, s):
            entry = real_entry(self, s)
            entries.append(entry is not None)
            return entry

        real_entry = Ensemble._entry
        monkeypatch.setattr(Ensemble, "_entry", counting_entry)
        model = load_model(SPLIT_COUNT)
        cfg = RunConfig(dt=1.0, max_steps=80, seed=9)
        ens = run_ensemble(model, build_initial_state(model), cfg, 100)
        list(ens)
        assert len(ens.memo) == 100
        assert entries.count(True) >= 100 and entries.count(False) == 2
        monkeypatch.undo()
        assert_matches_run(model, build_initial_state(model), cfg, 100)

    def test_more_than_one_block_of_words(self):
        model = load_model(SKEWED_DRAWS)
        pairs = assert_matches_run(model, build_initial_state(model),
                                   RunConfig(dt=1.0, max_steps=10, seed=14),
                                   600)
        assert _kinds(pairs) == {"halted"}
        assert len({f.values["x"] for _, f in pairs}) > 8

    def test_halt_check_fails_on_some_states(self):
        model = load_model(FALLIBLE_HALT)
        pairs = assert_matches_run(model, build_initial_state(model),
                                   RunConfig(dt=1.0, max_steps=10, seed=3),
                                   300)
        assert _kinds(pairs) == {"eval-error", "max-steps"}

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
        # one group of 20 trials reaches a new state every step for 30
        # steps
        model = load_model(SPLIT_COUNT.replace("{0, 1}", "{0}"))
        ens = run_ensemble(model, build_initial_state(model),
                           RunConfig(dt=1.0, max_steps=30, seed=0), 20)
        list(ens)
        assert len(ens.memo) == 20

    def test_resumed_trial_looks_up_no_entry(self, monkeypatch):
        # small batches of the walk leave groups under _MIN_GROUP at nodes
        # that draw; their trials step on alone, and only the walk itself
        # asks the memo
        callers = []

        def counting_entry(self, s):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_entry(self, s)

        real_entry = Ensemble._entry
        monkeypatch.setattr(Ensemble, "_entry", counting_entry)
        monkeypatch.setattr(interpreter, "_BATCH", 4 * _MIN_GROUP)
        model = load_model(WALK)
        cfg = RunConfig(dt=1.0, max_steps=12, seed=9)
        list(run_ensemble(model, build_initial_state(model), cfg, 200))
        assert callers and set(callers) == {"_advance"}
        monkeypatch.undo()
        assert_matches_run(model, build_initial_state(model), cfg, 200)

    def test_outcome_paths_share_one_trie(self, monkeypatch):
        calls = []

        def counting_apply_law(*args, **kwargs):
            calls.append(args[1].name)
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

    def test_explored_ensemble_runs_no_step(self, monkeypatch):
        # every group of this walk is large enough to be routed in batch,
        # so a second pass takes every exit from the memo and the trie
        model = load_model(WALK)
        ens = run_ensemble(model, build_initial_state(model),
                           RunConfig(dt=1.0, max_steps=3, seed=7), 400)
        first = [(t.kind, _state_key(f)) for t, f in ens]
        monkeypatch.setattr(interpreter, "_run_from", _no_trial)
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


# Guards that fail where the walk goes: none holds at x = 1, two at x = 2.
STUCK = """
model stuck {
  state { x: int in [0, 3]; }
  init { x = 0; }
  law Step { when x == 0; then { x = random({1, 2}, FLAT); } }
  law Two { when x == 2; then { x = 3; } }
  law Also { when x >= 2; then { x = 3; } }
}
"""

# The middle draw has one outcome of positive probability.
FORCED = """
model forced {
  state { x: int in [0, 1000]; }
  init { x = 0; }
  law L {
    when true;
    then {
      x = random({0, 1}, FLAT) + random({0, 10, 20}, WEIGHTS(0, 3, 0))
          + random({0, 100}, FLAT);
    }
  }
}
"""


@pytest.fixture
def counted(monkeypatch):
    """The interpreter's law selections, replays and trial steps, in call
    order: ("select", id(state), None) and ("replay", id(state), outcome
    path) of the shared walk, and ("apply", id(state), None) for each step
    a trial, or ``run``, takes on its own stream. ``_run_from`` calls a
    law's transition directly, so a step is counted there: while the
    fixture is active, a model's transitions count the calls given an
    ``RngStream``."""
    calls = []
    select, apply, transitions = (interpreter.select_law,
                                  interpreter.apply_law,
                                  engine.CausalModel.transitions.func)

    def counting_select(model, s, mode):
        calls.append(("select", id(s), None))
        return select(model, s, mode)

    def counting_apply(model, law, s, dt, source, time):
        calls.append(("replay", id(s), tuple(source.prefix)))
        return apply(model, law, s, dt, source, time)

    def counting(transition):
        def step(s, dt, rnd, time):
            if isinstance(rnd, RngStream):
                calls.append(("apply", id(s), None))
            return transition(s, dt, rnd, time)
        return step

    monkeypatch.setattr(interpreter, "select_law", counting_select)
    monkeypatch.setattr(interpreter, "apply_law", counting_apply)
    monkeypatch.setattr(engine.CausalModel, "transitions", property(
        lambda model: [counting(t) for t in transitions(model)]))
    return calls


def _replayed_paths(calls, state) -> list:
    return [path for kind, i, path in calls
            if kind == "replay" and i == id(state)]


class TestExploration:
    """A group of trials at a new trie node replays the law there once,
    with no stream; where the replay cannot say what the node does, the
    group's trials run on one at a time, as ``run`` would."""

    @staticmethod
    def trie(ens, state, *path):
        """The trie node at outcome ``path`` of ``state``'s entry."""
        node = ens.memo[id(state)].root
        for k in path:
            node = node.children[k]
        return node

    @pytest.mark.parametrize("detector", ["on", "off"])
    def test_double_slit_spends_no_trial(self, detector, counted,
                                         monkeypatch):
        # two batches, and at this seed every group of trials that draws
        # has at least _MIN_GROUP rows; a Detect draw of a collapsed state
        # has one outcome, so its groups of any size move on
        monkeypatch.setattr(interpreter, "_run_from", _no_trial)
        model, init = build_bundled_model("double_slit",
                                          {"detector": detector})
        pairs = list(run_ensemble(model, init,
                                  RunConfig(dt=1.0, max_steps=5, seed=0),
                                  8000))
        kinds = [kind for kind, _, _ in counted]
        finals = len({id(f) for _, f in pairs})
        if detector == "on":
            # one MarkPath per path, one Detect per collapsed state
            assert finals == 128 and kinds.count("replay") == 256
        else:
            assert kinds.count("replay") == finals > 32
        assert "apply" not in kinds

    @pytest.mark.parametrize("detector", ["on", "off"])
    def test_a_replayed_draw_builds_no_vector(self, detector, counted,
                                              monkeypatch):
        # the kernels build a Born or bin vector only for a draw that is
        # not replayed: once per pre-state that draws, not per outcome
        built = []
        detect, interact = quantum.pw_detect, quantum.pw_interact

        def counting_detect(pw, edges, rng, coherent=True):
            built.append(("bins", id(pw)))
            return detect(pw, edges, rng, coherent)

        class Spy:
            """``rng``, noting each draw made from a vector."""

            def __init__(self, pw, rng):
                self.pw, self.rng = pw, rng

            def replayed(self):
                return self.rng.replayed()

            def categorical(self, probs, labels=None):
                built.append(("born", id(self.pw)))
                return self.rng.categorical(probs, labels)

        monkeypatch.setattr(quantum, "pw_detect", counting_detect)
        monkeypatch.setattr(quantum, "pw_interact",
                            lambda pw, rng: interact(pw, Spy(pw, rng)))
        model, init = build_bundled_model("double_slit",
                                          {"detector": detector})
        cfg = RunConfig(dt=1.0, max_steps=5, seed=4)
        pairs = list(run_ensemble(model, init, cfg, 2000))
        finals = len({id(f) for _, f in pairs})
        replays = [kind for kind, _, _ in counted].count("replay")
        born = [pw for kind, pw in built if kind == "born"]
        bins = [pw for kind, pw in built if kind == "bins"]
        if detector == "on":
            # MarkPath draws from the initial collection's weights once;
            # each collapsed state's Detect builds its own bins once
            assert born == [id(init.values["pw"])]
            assert len(bins) == len(set(bins)) == finals > 64
            assert replays >= 2 * finals
        else:
            assert born == [] and bins == [id(init.values["pw"])]
            assert replays == finals > 32
        monkeypatch.undo()
        assert_matches_run(model, init, cfg, 300)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_small_ensemble_spends_no_trial(self, seed, monkeypatch):
        # 50 trials reach the initial state, up to 43 collapsed states and
        # as many detected leaves; the leaves halt, so they do not count
        # against the 50 entries and the memo never fills
        monkeypatch.setattr(interpreter, "_run_from", _no_trial)
        model, init = build_bundled_model("double_slit", {"detector": "on"})
        ens = run_ensemble(model, init,
                           RunConfig(dt=1.0, max_steps=5, seed=seed), 50)
        list(ens)
        assert ens.live <= 50 < len(ens.memo)
        monkeypatch.undo()
        assert_matches_run(model, init, RunConfig(dt=1.0, max_steps=5,
                                                  seed=seed), 50)

    def test_forced_outcome_reads_no_word(self, monkeypatch):
        # the middle draw has one outcome: every trial takes it without
        # reading its word, and the third draw still reads each trial's
        # third word
        model = load_model(FORCED)
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=1, seed=3)
        ens = run_ensemble(model, init, cfg, 400)
        monkeypatch.setattr(interpreter, "_run_from", _no_trial)
        pairs = list(ens)
        assert {f.values["x"] for _, f in pairs} == {10, 11, 110, 111}
        for first in (0, 1):
            middle = self.trie(ens, init, first)
            assert middle.forced == 1 and list(middle.children) == [1]
        assert self.trie(ens, init).forced is None
        monkeypatch.undo()
        assert_matches_run(model, init, cfg, 400)

    def test_failing_first_continuation(self, counted, monkeypatch):
        # fallible.cml from x = -1 (the first outcomes from x = 0): y = 1 /
        # (x + 1 + r) reads x = -1, so the first outcome r = 0 divides by
        # zero after either outcome of the x draw, and r = 1 does not;
        # small batches reach each failing node again and again, and it
        # keeps its error, so that no batch replays it
        monkeypatch.setattr(interpreter, "_BATCH", 4 * _MIN_GROUP)
        model = load_model(fixture_source("fallible.cml"))
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=30, seed=1)
        ens = run_ensemble(model, init, cfg, 200)
        list(ens)
        left = self.trie(ens, init, 0, 0).post
        assert left.values["x"] == -1
        for first in (0, 1):
            failed = self.trie(ens, left, first, 0)
            # the node keeps the termination of its error, not the error
            assert failed.error.kind == "eval-error"
            assert "division by zero" in failed.error.message
            assert failed.post is failed.probs is None
        # the root's replay ended at (0, 0) and marked it there, and the
        # replay of (1,) at (1, 0)
        paths = _replayed_paths(counted, left)
        assert paths[0] == () and (1,) in paths
        assert (0, 0) not in paths and (1, 0) not in paths
        assert len(set(paths)) == len(paths)
        assert_matches_run(model, init, cfg, 200)

    def test_continuous_draw_after_a_categorical_one(self, counted,
                                                     monkeypatch):
        # mixed_draws.cml from k = 2 (the last outcome from k = 0): the
        # replay takes k = 0 and then meets the uniform draw, so it records
        # the categorical draw and marks the live node of the uniform one,
        # which no later batch replays
        monkeypatch.setattr(interpreter, "_BATCH", 4 * _MIN_GROUP)
        model = load_model(fixture_source("mixed_draws.cml"))
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=10, seed=6)
        ens = run_ensemble(model, init, cfg, 300)
        list(ens)
        two = self.trie(ens, init, 2).post
        assert two.values["k"] == 2
        assert len(self.trie(ens, two).probs) == 3
        for k in (0, 1, 2):
            live = self.trie(ens, two, k)
            assert live.post is live.probs is None
        assert sorted(_replayed_paths(counted, two)) == [(), (1,), (2,)]
        assert_matches_run(model, init, cfg, 300)

    def test_failed_selection_at_a_new_entry(self, counted, monkeypatch):
        # x = 1 and x = 2 are new entries reached by over _MIN_GROUP
        # trials of every batch; the walk selects at each once, and every
        # group there ends with the termination of that one selection
        monkeypatch.setattr(interpreter, "_BATCH", 4 * _MIN_GROUP)
        model = load_model(STUCK)
        cfg = RunConfig(dt=1.0, max_steps=5, seed=2)
        trials = 16 * _MIN_GROUP
        pairs = assert_matches_run(model, build_initial_state(model), cfg,
                                   trials)
        first = [term.kind for term, _ in pairs[:4 * _MIN_GROUP]]
        assert min(first.count("no-applicable-law"),
                   first.count("multiple-applicable")) >= _MIN_GROUP
        assert [kind for kind, _, _ in counted].count("select") == 3

    @pytest.mark.parametrize("source, steps, kinds, paths", [
        (STUCK, 5, {"no-applicable-law", "multiple-applicable"}, 2),
        (FALLIBLE_HALT, 2, {"eval-error", "max-steps"}, 4)],
        ids=["stuck", "fallible_halt"])
    def test_failing_groups_settle_without_a_trial(self, source, steps,
                                                   kinds, paths, monkeypatch):
        # every group is large enough to be routed in batch: a group at a
        # failing law selection or halt check ends on the walk's one
        # termination, shared by its trials, as run ends
        model = load_model(source)
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=steps, seed=5)
        monkeypatch.setattr(interpreter, "_run_from", _no_trial)
        pairs = list(run_ensemble(model, init, cfg, 400))
        assert _kinds(pairs) == kinds
        assert len({id(pair) for pair in pairs}) == paths   # one per path
        monkeypatch.undo()
        assert_matches_run(model, init, cfg, 400)

    def test_live_node_is_replayed_once(self, counted, monkeypatch):
        # the first draw of GAUSS_WALK is continuous: the initial state's
        # root is live, and a group of every batch reaches it; each trial
        # then takes its four steps on its own stream
        monkeypatch.setattr(interpreter, "_BATCH", 16)
        model = load_model(GAUSS_WALK)
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=10, seed=2)
        list(run_ensemble(model, init, cfg, 200))
        kinds = [kind for kind, _, _ in counted]
        assert kinds.count("replay") == 1 and kinds.count("apply") == 4 * 200
        pairs = assert_matches_run(model, init, cfg, 200)
        assert _kinds(pairs) == {"halted"}


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

    @staticmethod
    def _outcome(term, final):
        return term.kind, tuple(final.values.items())

    @pytest.mark.parametrize("source, kinds, outcomes", [
        (STUCK, {"no-applicable-law", "multiple-applicable"}, 2),
        (fixture_source("uneven_draws.cml"), {"halted"}, 7)],
        ids=["stuck", "uneven_draws"])
    def test_error_and_halting_leaves(self, source, kinds, outcomes):
        # (termination kind, final values): failing law selections, and
        # halting states reached after different numbers of draws, which
        # the sample and the fork policy settle on the walk's shared paths
        model = load_model(source)
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=7, seed=29)
        tree = branch_run(model, init, cfg, depth_bound=12,
                          width_bound=10_000)
        assert tree.pruned_mass == 0.0
        exact: dict = {}
        for leaf in tree.leaves():
            key = self._outcome(leaf.termination, leaf.snapshot)
            exact[key] = exact.get(key, 0.0) + leaf.weight
        assert {kind for kind, _ in exact} == kinds
        assert len(exact) == outcomes
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
        counts: dict = {}
        for pair in run_ensemble(model, init, cfg, self.TRIALS):
            key = self._outcome(*pair)
            counts[key] = counts.get(key, 0) + 1
        bound = 1.5 * (outcomes / self.TRIALS) ** 0.5
        assert self._l1(counts, self.TRIALS, exact) < bound


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
