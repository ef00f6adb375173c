import pytest

from causalkit import (
    CheckStrategy,
    RngStream,
    RunConfig,
    analyze,
    build_bundled_model,
    build_initial_state,
    check_completeness,
    check_consistency,
    load_model,
    make_initial_state,
    report_to_json,
    run,
    sample_state,
    state_from_json,
    state_to_json,
    validstate,
)
from dataclasses import replace

from causalkit import analyzer
from causalkit.analyzer import (
    CompletenessVerdict,
    ConsistencyVerdict,
    _sampled_start,
    _sampled_states,
    enumerate_states,
    guard_disjunction_trivially_true,
    unsampleable_fields,
)
from causalkit.engine import apply_law, eval_guard, halts, select_law
from causalkit.errors import (
    CausalKitError,
    EnumerationCapError,
    MissingFieldError,
    NoValidInStateFoundError,
)
from causalkit.rng import derive_seed
from causalkit.state import Sampler

from conftest import BROKEN, FIXTURES, typed


class TestValidstate:
    def test_partition_covers_everything(self, load_fixture_model):
        model = load_fixture_model("partition.cml")
        rng = RngStream(1)
        for _ in range(1000):
            assert validstate(model, sample_state(model.schema, rng))

    def test_gap(self):
        model = load_model(
            "model m { state { x: real in [-5.0, 5.0]; } init { x = 1.0; } "
            "law L { when x < 0.0; then { x = x + 1.0; } } }")
        s = build_initial_state(model)
        assert not validstate(model, s)

    def test_guard_true_arbitrary_states(self, load_fixture_model):
        model = load_fixture_model("guard_true.cml")
        rng = RngStream(2)
        for _ in range(1000):
            assert validstate(model, sample_state(model.schema, rng))


class TestConsistency:
    def test_partition_passes(self, load_fixture_model):
        model = load_fixture_model("partition.cml")
        verdict = check_consistency(model, CheckStrategy("sample", count=10_000,
                                                         seed=3))
        assert verdict.status == "pass"
        assert verdict.states_checked == 10_000

    def test_overlap_fails_with_replayable_witness(self, load_fixture_model):
        # the overlap region (-1, 1) has probability 1/2 per uniform draw
        # over [-2, 2]; a witness is effectively certain within 10^4 draws
        model = load_fixture_model("overlap.cml")
        verdict = check_consistency(model, CheckStrategy("sample", count=10_000,
                                                         seed=4))
        assert verdict.status == "fail"
        assert set(verdict.laws) == {"Neg", "Pos"}
        x = verdict.witness.values["x"]
        assert -1.0 < x < 1.0  # interval-intersection oracle
        # replay: the witness itself makes >= 2 guards true
        hits = [l.name for l in model.laws
                if eval_guard(l, verdict.witness)]
        assert len(hits) >= 2

    def test_single_law_vacuous(self, load_fixture_model):
        model = load_fixture_model("guard_true.cml")
        verdict = check_consistency(model, CheckStrategy("sample", count=10))
        assert verdict.status == "pass"

    def test_enumerate_strategy(self):
        model = load_model(
            "model m { state { n: int in [0, 5]; b: bool; } init { n = 0; "
            "b = false; } "
            "law Low { when n < 3; then { n = n + 1; } } "
            "law High { when n >= 3; then { n = 0; } } }")
        verdict = check_consistency(model, CheckStrategy("enumerate"))
        assert verdict.status == "pass"
        assert verdict.states_checked == 12  # 6 ints x 2 bools

    def test_strategy_monotonicity(self):
        # if enumerate passes on an all-finite model, sampling passes too
        model = load_model(
            "model m { state { n: int in [0, 5]; } init { n = 0; } "
            "law Low { when n < 3; then { n = n + 1; } } "
            "law High { when n >= 3; then { n = 0; } } }")
        assert check_consistency(model, CheckStrategy("enumerate")).status == "pass"
        for seed in (0, 1, 2, 99):
            verdict = check_consistency(
                model, CheckStrategy("sample", count=2000, seed=seed))
            assert verdict.status == "pass"

    def test_trace_strategy_on_unsampleable_model(self):
        model, state = build_bundled_model("double_slit")
        verdict = check_consistency(
            model, CheckStrategy("trace", runs=5, steps_per_run=5, seed=0))
        assert verdict.status == "pass"

    @pytest.mark.parametrize("strategy", [
        CheckStrategy("enumerate"), CheckStrategy("sample", count=200),
        CheckStrategy("trace", runs=4, steps_per_run=5)])
    def test_halting_states_are_skipped(self, strategy):
        # Up and Top overlap only at n = 2, where the model halts, so run
        # never selects a law there
        model = load_model(
            "model m { state { n: int in [0, 3]; } init { n = 0; } "
            "halt when n >= 2; "
            "law Up { when n < 3; then { n = n + 1; } } "
            "law Top { when n >= 2; then { n = 0; } } }")
        verdict = check_consistency(model, strategy)
        assert verdict.status == "pass"
        if strategy.kind == "enumerate":
            assert verdict.states_checked == 2   # n = 0 and n = 1


class TestCompleteness:
    def test_guard_true_trivially(self, load_fixture_model):
        model = load_fixture_model("guard_true.cml")
        verdict = check_completeness(model, CheckStrategy("sample", count=10))
        assert verdict.status == "pass-trivially"

    def test_partition_pass_bounded(self, load_fixture_model):
        model = load_fixture_model("partition.cml")
        verdict = check_completeness(model,
                                     CheckStrategy("sample", count=2000, seed=5))
        assert verdict.status == "pass-bounded"
        assert verdict.states_checked > 0

    def test_escaping_transition_fail_witness(self, load_fixture_model):
        # in-states in [-1, 0) step to x+1 in [0, 1): outside the guard
        model = load_fixture_model("escaping.cml")
        verdict = check_completeness(model,
                                     CheckStrategy("sample", count=1000, seed=6))
        assert verdict.status == "fail"
        assert verdict.producing_law == "Step"
        x = verdict.witness.values["x"]
        assert 0.0 <= x < 1.0  # interval-arithmetic oracle
        # direct re-evaluation of the witness confirms validstate = false
        assert not validstate(model, verdict.witness)

    def test_escaping_found_by_trace_strategy_too(self, load_fixture_model):
        model = load_fixture_model("escaping.cml")
        verdict = check_completeness(
            model, CheckStrategy("trace", runs=10, steps_per_run=10, seed=2))
        assert verdict.status == "fail"
        assert verdict.producing_law == "Step"
        assert not validstate(model, verdict.witness)

    @pytest.mark.parametrize("kind", ["enumerate", "sample", "trace"])
    def test_halting_out_states_are_not_failures(self, load_fixture_model,
                                                 kind):
        # two_coin halts once both coins are drawn; no guard holds there
        model = load_fixture_model("two_coin.cml")
        verdict = check_completeness(model, CheckStrategy(
            kind, count=500, runs=10, steps_per_run=10, seed=0))
        assert verdict.status == "pass-bounded"
        assert verdict.states_checked > 0

    def test_trace_witness_is_the_runs_termination_witness(self):
        # `n` has no domain, so the trace runs start from the init block
        model = load_model(
            "model up { state { n: int; } init { n = 0; } "
            "law Up { when n < 10; then { n = n + 1; } } }",
            default_timestep=0.1)
        verdict = check_completeness(
            model, CheckStrategy("trace", runs=1, steps_per_run=20))
        assert verdict.status == "fail"
        assert verdict.producing_law == "Up"
        assert verdict.states_checked == 10
        trace = run(model, build_initial_state(model),
                    RunConfig(dt=0.1, max_steps=20, mode="first-match"))
        assert trace.termination.kind == "no-applicable-law"
        witness = trace.termination.witness
        assert (typed(verdict.witness.values["n"]) == typed(witness.values["n"])
                == typed(10))
        assert set(verdict.witness.values) == set(witness.values) == {"n"}
        # init.time + k*dt, not ten accumulated additions of 0.1
        assert verdict.witness.time == witness.time == 10 * 0.1

    def test_trace_starts_from_the_given_state(self, load_fixture_model):
        # the fixture's init leaves the path collection unset
        model = load_fixture_model("double_slit.cml")
        _, bundled = build_bundled_model("double_slit")
        state = make_initial_state(model.schema, {"pw": bundled.values["pw"],
                                                  "detected": -1})
        strategy = CheckStrategy("trace", runs=2, steps_per_run=5)
        with pytest.raises(MissingFieldError):
            check_completeness(model, strategy)
        verdict = check_completeness(model, strategy, state)
        assert verdict.status == "pass-bounded"
        assert verdict.states_checked == 2

    def test_witness_survives_serialization(self, load_fixture_model):
        model = load_fixture_model("escaping.cml")
        verdict = check_completeness(model,
                                     CheckStrategy("sample", count=1000, seed=6))
        back = state_from_json(state_to_json(verdict.witness), model.schema)
        assert not validstate(model, back)


class TestAnalyze:
    def test_guard_true_model_report(self, load_fixture_model):
        model = load_fixture_model("guard_true.cml")
        report = analyze(model, CheckStrategy("sample", count=500, seed=1))
        assert report.consistency.status == "pass"
        assert report.completeness.status == "pass-trivially"
        assert report.determinism.deterministic
        assert report.reality_conformance == "not-machine-checkable"

    def test_double_slit_nondeterministic_named_law(self):
        model, _ = build_bundled_model("double_slit")
        report = analyze(model, CheckStrategy("sample", count=100, seed=1))
        assert not report.determinism.deterministic
        assert "Detect" in report.determinism.random_laws

    def test_unsampleable_downgrade_recorded(self):
        model, _ = build_bundled_model("schrodinger_1d")
        report = analyze(model, CheckStrategy("sample", count=100, seed=1))
        notes = " ".join(report.computability_notes)
        assert "psi" in notes and "unsampleable" in notes
        assert "downgraded to trace" in notes
        assert report.consistency.status == "pass"

    def test_an_interval_wider_than_a_float_downgrades_to_trace(self):
        # hi - lo is inf: drawn states would all hold x = inf
        model = load_model(
            "model wide { state { x: real in [-1e308, 1e308]; } "
            "init { x = 0.0; } law Neg { when x < 0.0; then { x = 1.0; } } "
            "law Pos { when x >= 0.0; then { x = -1.0; } } }")
        assert unsampleable_fields(model) == ["x"]
        assert str(model.schema.sampler.errors["x"]) == \
            "field 'x' cannot be sampled: interval width overflows"
        report = analyze(model, CheckStrategy("sample", count=50, runs=2,
                                              steps_per_run=3, seed=1))
        assert report.computability_notes == (
            "field 'x' is unsampleable",
            "sample strategy downgraded to trace (unsampleable fields)")
        assert (report.consistency.status, report.consistency.states_checked) \
            == ("pass", 6)
        assert report.completeness.status == "pass-bounded"

    def test_non_toolkit_exception_in_a_guard_propagates(self,
                                                         load_fixture_model):
        # an error verdict is for toolkit errors; anything else is a bug
        model = load_fixture_model("partition.cml")

        def broken_guard(state):
            raise RuntimeError("bug in a guard")
        object.__setattr__(model.laws[0], "guard_fn", broken_guard)
        with pytest.raises(RuntimeError, match="bug in a guard"):
            analyze(model, CheckStrategy("sample", count=10, seed=1))

    def test_enumeration_cap_is_an_error_verdict(self):
        model = load_model(
            "model big { state { a: int in [0, 999]; b: int in [0, 999]; "
            "c: int in [0, 1]; } init { a = 0; b = 0; c = 0; } "
            "law L { when c == 0; then { } } law M { when c == 1; then { } } }")
        with pytest.raises(EnumerationCapError):
            list(enumerate_states(model))
        report = analyze(model, CheckStrategy("enumerate"))
        for verdict in (report.consistency, report.completeness):
            assert (verdict.status, verdict.message) \
                == ("error", "enumeration exceeds 1000000 states")

    def test_intrinsic_inventory(self):
        model, _ = build_bundled_model("schrodinger_1d")
        report = analyze(model, CheckStrategy("trace", runs=2,
                                              steps_per_run=2, seed=0))
        notes = " ".join(report.computability_notes)
        assert "schrodinger_step" in notes

    def test_analyze_never_raises_on_fixture_corpus(self, load_fixture_model):
        for path in sorted(FIXTURES.glob("*.cml")):
            model = load_fixture_model(path.name)
            report = analyze(model, CheckStrategy("sample", count=200, seed=2))
            assert report.model_name == model.name

    def test_report_json_shape(self, load_fixture_model):
        model = load_fixture_model("overlap.cml")
        report = analyze(model, CheckStrategy("sample", count=5000, seed=4))
        data = report_to_json(report)
        assert data["consistency"]["status"] == "fail"
        assert "witness" in data["consistency"]
        assert data["realityConformance"] == "not-machine-checkable"
        assert data["determinism"]["deterministic"] is True


class TestEnumerate:
    def test_enumeration_order_deterministic(self):
        model = load_model(
            "model m { state { n: int in [0, 2]; b: bool; } init { n = 0; "
            "b = false; } law L { when true; then { n = n; } } }")
        states = [(s.values["n"], s.values["b"])
                  for s in enumerate_states(model)]
        assert states == [(0, False), (0, True), (1, False), (1, True),
                          (2, False), (2, True)]

    def test_interval_real_not_enumerable(self, load_fixture_model):
        from causalkit import UnsampleableFieldError
        model = load_fixture_model("partition.cml")
        with pytest.raises(UnsampleableFieldError):
            list(enumerate_states(model))


QUADRANTS = (FIXTURES.parent.parent / "cmlbench" / "models"
             / "quadrants.cml").read_text(encoding="utf-8")


class TestOnePass:
    """analyze draws each state and runs each trace run once for both
    verdicts; a check asked for alone does only its own work."""

    @staticmethod
    def counted_runs(monkeypatch):
        """(mode, seed, termination kind) of every run the analyzer runs."""
        calls = []

        def counting_run(model, init, cfg):
            trace = real_run(model, init, cfg)
            calls.append((cfg.mode, cfg.seed, trace.termination.kind))
            return trace

        real_run = analyzer.run
        monkeypatch.setattr(analyzer, "run", counting_run)
        return calls

    def test_each_sampled_state_is_drawn_once(self, monkeypatch):
        drawn = []

        def counting_call(self, words):
            drawn.append(len(words))
            return real_call(self, words)

        real_call = Sampler.__call__
        monkeypatch.setattr(Sampler, "__call__", counting_call)
        model = load_model(QUADRANTS)
        report = analyze(model, CheckStrategy("sample", count=1500, seed=1))
        assert drawn == [1500]
        assert report.consistency.states_checked == 1500
        assert report.completeness.states_checked == 1500

    def test_each_trace_run_runs_once(self, monkeypatch):
        calls = self.counted_runs(monkeypatch)
        model = load_model(QUADRANTS)
        strategy = CheckStrategy("trace", runs=15, steps_per_run=20, seed=4)
        report = analyze(model, strategy)
        assert [mode for mode, _, _ in calls] == ["strict"] * 15
        assert report.completeness.states_checked == 15 * 20
        del calls[:]
        check_consistency(model, strategy)
        check_completeness(model, strategy)
        assert [mode for mode, _, _ in calls] == (["strict"] * 15
                                                  + ["first-match"] * 15)

    def test_multiple_applicable_run_runs_again_first_match(
            self, load_fixture_model, monkeypatch):
        calls = self.counted_runs(monkeypatch)
        model = load_fixture_model("overlap.cml")
        analyze(model, CheckStrategy("trace", runs=6, steps_per_run=30,
                                     seed=3))
        redone = [seed for mode, seed, kind in calls
                  if mode == "strict" and kind == "multiple-applicable"]
        assert redone
        assert len(calls) == 6 + len(redone)
        for seed in redone:
            at = calls.index(("strict", seed, "multiple-applicable"))
            assert calls[at + 1][:2] == ("first-match", seed)


# --- the two passes the one pass replaced ------------------------------------------
#
# Consistency and completeness as they were checked one after the other,
# each drawing its own states or running its own runs: the oracle of the
# one pass in ``analyzer._check``.


def _trace_runs(model, strategy, mode, init):
    """The trace strategy: one ``run`` per trace run, in ``mode``, from a
    sampled valid start state, or from ``init`` (default: the model's
    initial state) if the model has unsampleable fields."""
    can_sample = not unsampleable_fields(model)
    if not can_sample and init is None:
        init = build_initial_state(model)
    rng = RngStream(0)
    for r in range(strategy.runs):
        start = (_sampled_start(model, r, strategy, rng) if can_sample
                 else init)
        cfg = RunConfig(dt=model.default_timestep,
                        max_steps=strategy.steps_per_run,
                        seed=derive_seed(strategy.seed ^ 0x7472616365, r),
                        mode=mode)
        yield run(model, start, cfg)


def two_pass_consistency(model, strategy, init=None):
    if len(model.laws) == 1:
        return ConsistencyVerdict("pass", states_checked=0,
                                  message="single law: vacuously consistent")
    if strategy.kind == "trace":
        return _consistency_by_trace(model, strategy, init)
    states = (enumerate_states(model) if strategy.kind == "enumerate"
              else _sampled_states(model, strategy))
    checked = 0
    for s in states:
        if halts(model, s):   # run selects no law where the model halts
            continue
        hits = [law.name for law in model.laws if eval_guard(law, s)]
        if len(hits) > 1:
            return ConsistencyVerdict("fail", states_checked=checked,
                                      witness=s, laws=tuple(hits),
                                      seed=strategy.seed)
        checked += 1
    return ConsistencyVerdict("pass", states_checked=checked,
                              seed=strategy.seed)


def _consistency_by_trace(model, strategy, init):
    checked = 0
    for trace in _trace_runs(model, strategy, "strict", init):
        term = trace.termination
        if term.kind == "eval-error":
            return ConsistencyVerdict("error", message=term.message)
        checked += len(trace.rows) - 1
        witness, laws = term.witness, term.laws
        if term.kind == "max-steps":   # run selects no law at its last state
            witness = trace.final_state
            laws = tuple(law.name for law in model.laws
                         if eval_guard(law, witness))
        if len(laws) > 1:
            return ConsistencyVerdict("fail", states_checked=checked,
                                      witness=witness, laws=laws,
                                      seed=strategy.seed)
    return ConsistencyVerdict("pass", states_checked=checked,
                              seed=strategy.seed)


def two_pass_completeness(model, strategy, init=None):
    if guard_disjunction_trivially_true(model):
        return CompletenessVerdict("pass-trivially")
    if strategy.kind == "trace":
        return _completeness_by_trace(model, strategy, init)
    states = (enumerate_states(model) if strategy.kind == "enumerate"
              else _sampled_states(model, strategy))
    checked = 0
    found_valid = False
    rng = RngStream(0)
    for i, s in enumerate(states):
        hits = [law for law in model.laws if eval_guard(law, s)]
        if not hits:
            continue
        found_valid = True
        rng.rekey(derive_seed(strategy.seed ^ 0x6F7574, i))
        out = apply_law(hits[0], s, model.default_timestep, rng)
        checked += 1
        if not halts(model, out) and not validstate(model, out):
            return CompletenessVerdict("fail", states_checked=checked,
                                       witness=out,
                                       producing_law=hits[0].name,
                                       seed=strategy.seed)
    if not found_valid:
        raise NoValidInStateFoundError(
            "sampling produced no state satisfying any guard")
    return CompletenessVerdict("pass-bounded", states_checked=checked,
                               seed=strategy.seed)


def _completeness_by_trace(model, strategy, init):
    checked = 0
    for trace in _trace_runs(model, strategy, "first-match", init):
        term = trace.termination
        if term.kind == "eval-error":
            return CompletenessVerdict("error", message=term.message)
        steps = len(trace.rows) - 1
        checked += steps
        # a halted run is done; run selects no law at its last state
        stuck = (term.kind == "no-applicable-law"
                 or term.kind == "max-steps"
                 and not validstate(model, trace.final_state))
        if stuck and steps:
            law = select_law(model, trace.rows[-2].snapshot, "first-match")
            return CompletenessVerdict("fail", states_checked=checked,
                                       witness=trace.final_state,
                                       producing_law=law.name,
                                       seed=strategy.seed)
    return CompletenessVerdict("pass-bounded", states_checked=checked,
                               seed=strategy.seed)


def _outcome(check, *args):
    """A check's verdict, or the type and message of what it raised."""
    try:
        return check(*args)
    except CausalKitError as exc:
        return type(exc), str(exc)


# The halt check fails at x = -5, which no law steps to, and Up and Down
# overlap at x = 0.
FALLIBLE_HALT = """
model fallible_halt {
  state { x: int in [-5, 5]; }
  init { x = 0; }
  halt when 1.0 / (x + 5) > 5.0;
  law Up { when x >= 0; then { x = x - 1; } }
  law Down { when x <= 0; then { x = x + 1; } }
}
"""

# A transition that fails on half of its in-states.
FALLIBLE_LAW = """
model fallible_law {
  state { x: real in [-1.0, 1.0]; }
  init { x = 0.25; }
  law Root { when x < 0.5; then { x = sqrt(x); } }
  law Back { when x >= 0.5; then { x = x - 1.0; } }
}
"""

_CORPUS = ([path.name for path in sorted(FIXTURES.glob("*.cml"))]
           + [FALLIBLE_HALT, FALLIBLE_LAW])


def _corpus_model(entry):
    return load_model(entry if "model" in entry
                      else (FIXTURES / entry).read_text(encoding="utf-8"))


def _strategies(model):
    yield from (CheckStrategy("sample", count=200, seed=seed)
                for seed in range(3))
    yield CheckStrategy("trace", runs=6, steps_per_run=30, seed=1)
    try:
        finite = next(enumerate_states(model), None) is not None
    except CausalKitError:
        finite = False
    if finite:
        yield CheckStrategy("enumerate")


@pytest.mark.parametrize("entry", _CORPUS, ids=lambda e: e.split()[1]
                         if "model" in e else e)
def test_one_pass_matches_two_passes(entry):
    model = _corpus_model(entry)
    for strategy in _strategies(model):
        report = analyze(model, strategy)
        checks = (strategy if strategy.kind != "sample"
                  or not unsampleable_fields(model)
                  else replace(strategy, kind="trace"))
        verdicts = []
        for check, verdict in ((two_pass_consistency, ConsistencyVerdict),
                               (two_pass_completeness, CompletenessVerdict)):
            try:
                verdicts.append(check(model, checks))
            except CausalKitError as exc:
                verdicts.append(verdict("error", message=str(exc)))
        expected = replace(report, consistency=verdicts[0],
                           completeness=verdicts[1])
        assert report_to_json(report) == report_to_json(expected), strategy
        for one, two in ((check_consistency, two_pass_consistency),
                         (check_completeness, two_pass_completeness)):
            got, want = (_outcome(one, model, strategy),
                         _outcome(two, model, strategy))
            assert (got == want if isinstance(want, tuple)
                    else not isinstance(got, tuple)), strategy
