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
from causalkit.analyzer import enumerate_states
from causalkit.engine import eval_guard
from causalkit.errors import EnumerationCapError, MissingFieldError

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
