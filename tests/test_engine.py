import dataclasses
import math

import numpy as np
import pytest

from causalkit import (
    Domain,
    EvalError,
    MultipleApplicableError,
    NoApplicableLawError,
    RngStream,
    RunConfig,
    StateSchema,
    SystemState,
    TypeDesc,
    apply_law,
    branch_run,
    build_bundled_model,
    build_initial_state,
    classify_determinism,
    eval_guard,
    load_model,
    make_initial_state,
    run,
    sample_state,
    select_law,
    step,
)

from conftest import deep_equal, draw_model, draws, fixture_source


def real_state(model, **values):
    assignments = {k: float(v) for k, v in values.items()}
    return make_initial_state(model.schema, assignments)


class TestEvalGuard:
    def test_constant_true(self, load_fixture_model):
        model = load_fixture_model("guard_true.cml")
        s = real_state(model, x=3.0)
        assert eval_guard(model, model.laws[0], s) is True

    def test_boundary(self):
        model = load_model(
            "model m { state { n: int in [0, 200]; } init { n = 0; } "
            "law L { when n < 100; then { n = n + 1; } } }")
        s = make_initial_state(model.schema, {"n": 100})
        assert eval_guard(model, model.laws[0], s) is False

    def test_index_out_of_range_is_eval_error(self):
        model = load_model(
            "model m { state { xs: list(real, 3); ok: bool; } "
            "init { ok = false; } "
            "law L { when xs[5] > 0.0; then { ok = true; } } }")
        s = make_initial_state(model.schema, {
            "xs": (1.0, 2.0, 3.0),
            "ok": False})
        with pytest.raises(EvalError) as exc:
            eval_guard(model, model.laws[0], s)
        assert exc.value.law == "L"
        assert "out of range" in str(exc.value)

    def test_list_item_is_checked_only_where_it_is_evaluated(self):
        model = load_model(
            "model m { state { x: real; n: int; } init { x = 1e300; n = 0; } "
            "law L { when n > 0 && len([x * x]) == 1; then { n = 0; } } "
            "law M { when n == 0; then { n = 1; } } }")
        s = make_initial_state(model.schema, {"x": 1e300, "n": 0})
        assert select_law(model, s).name == "M"
        with pytest.raises(EvalError) as exc:
            select_law(model, make_initial_state(model.schema,
                                                 {"x": 1e300, "n": 1}))
        assert str(exc.value) == ("law 'L': non-finite value inf in a list "
                                  "literal at 1:94")

    def test_guard_purity_no_draws_no_mutation(self, load_fixture_model):
        # evaluating every guard of every fixture model on sampled states
        # consumes no randomness and leaves the state unchanged
        for name in ("overlap.cml", "partition.cml", "guard_true.cml",
                     "escaping.cml"):
            model = load_fixture_model(name)
            rng = RngStream(17)
            for _ in range(250):
                s = sample_state(model.schema, rng)
                before = rng.draw_count
                snapshot = dict(s.values)
                for law in model.laws:
                    eval_guard(model, law, s)
                assert rng.draw_count == before
                assert s.values == snapshot


class TestSelectLaw:
    def test_partition_boundary(self, load_fixture_model):
        model = load_fixture_model("partition.cml")
        s = real_state(model, x=0.0)
        assert select_law(model, s, "strict").name == "Down"

    def test_overlap_strict_raises_with_witness(self, load_fixture_model):
        model = load_fixture_model("overlap.cml")
        s = real_state(model, x=0.0)
        with pytest.raises(MultipleApplicableError) as exc:
            select_law(model, s, "strict")
        assert set(exc.value.law_names) == {"Neg", "Pos"}
        assert exc.value.witness is s

    def test_gap_strict_raises_no_applicable(self):
        model = load_model(
            "model m { state { x: real in [-5.0, 5.0]; } init { x = 2.0; } "
            "law L { when x < 0.0; then { x = x + 1.0; } } }")
        s = real_state(model, x=2.0)
        with pytest.raises(NoApplicableLawError) as exc:
            select_law(model, s, "strict")
        assert exc.value.witness is s

    def test_first_match_picks_declaration_order(self, load_fixture_model):
        model = load_fixture_model("overlap.cml")
        s = real_state(model, x=0.0)
        assert select_law(model, s, "first-match").name == "Neg"


class TestApplyLaw:
    def test_increment(self):
        model = load_model(
            "model m { state { n: int in [0, 100]; } init { n = 7; } "
            "law Inc { when true; then { n = n + 1; } } }")
        s0 = build_initial_state(model)
        s1 = apply_law(model, model.laws[0], s0, 1.0, RngStream(0))
        assert s1.values["n"] == 8
        assert s1.time == s0.time  # time advance is the interpreter's job
        assert s0.values["n"] == 7  # s0 untouched

    def test_swap_simultaneous_semantics(self, load_fixture_model):
        model = load_fixture_model("swap.cml")
        rng = RngStream(23)
        for _ in range(1000):
            a, b = rng.uniform(-10, 10), rng.uniform(-10, 10)
            s0 = real_state(model, a=a, b=b)
            s1 = apply_law(model, model.laws[0], s0, 1.0, rng)
            assert s1.values["a"] == b
            assert s1.values["b"] == a

    def test_degenerate_weights_always_zero(self):
        model = load_model(
            "model m { state { n: int in {0, 1}; } init { n = 1; } "
            "law L { when true; then { n = random({0, 1}, WEIGHTS(1.0, 0.0)); } } }")
        s0 = build_initial_state(model)
        rng = RngStream(1)
        for _ in range(200):
            s1 = apply_law(model, model.laws[0], s0, 1.0, rng)
            assert s1.values["n"] == 0

    def test_dt_available_in_transition(self):
        model = load_model(
            "model m { state { x: real in [0.0, 10.0]; } init { x = 0.0; } "
            "law L { when true; then { x = x + dt; } } }")
        s0 = build_initial_state(model)
        s1 = apply_law(model, model.laws[0], s0, 0.25, RngStream(0))
        assert s1.values["x"] == 0.25

    def test_for_loop_updates_each_element(self, load_fixture_model):
        from causalkit import VRecord
        model = load_fixture_model("drift_particles.cml")

        def particle(m, x, v):
            return VRecord("P", {"m": float(m), "x": x, "v": v})

        s0 = make_initial_state(model.schema, {
            "ps": (particle(1, 0.0, 1.0), particle(1, 5.0, -2.0),
                   particle(2, 1.0, 0.0)),
            "count": 0})
        s1 = apply_law(model, model.law("Drift"), s0, 0.5, RngStream(0))
        xs = [p.fields["x"] for p in s1.values["ps"]]
        assert xs == [0.5, 4.0, 1.0]
        assert s1.values["count"] == 1

    def test_division_by_zero_is_eval_error(self):
        model = load_model(
            "model m { state { x: real in [0.0, 1.0]; } init { x = 0.0; } "
            "law L { when true; then { x = 1.0 / x; } } }")
        s0 = build_initial_state(model)
        with pytest.raises(EvalError) as exc:
            apply_law(model, model.laws[0], s0, 1.0, RngStream(0))
        assert "division by zero" in str(exc.value)
        assert exc.value.law == "L"


MERGE_MODEL = (
    "model merge { record CaParticle { id: int; pos: int; vel: int; "
    "species: int; } record CaWorld { phi: vector(4); "
    "particles: list(CaParticle); alpha: real; } "
    "state { li: list(int); vr: vector(4); w: CaWorld; } "
    "init { li = [1, 2, 3]; vr = fill(4, 0.25); w = ca_world(4, 0.2); } "
    "law L { when true; then { %s } } }")


@pytest.mark.parametrize("body, read, expected", [
    ("li = [7, 8, 9]; li[0] = li[2];", lambda v: list(v["li"]),
     [3, 8, 9]),
    ("vr[0] = 1.0; vr[0] = 2.0;", lambda v: v["vr"].values[0], 2.0),
    ("w.phi = fill(4, 1.0); w.phi[1] = 0.0;",
     lambda v: v["w"].fields["phi"].values.tolist(), [1.0, 0.0, 1.0, 1.0]),
])
def test_writes_to_one_root_merge_in_source_order(body, read, expected):
    # a read sees the pre-state, a later write to a root builds on the
    # earlier ones, and the pre-state's values are left as they were
    model = load_model(MERGE_MODEL % body)
    s0 = build_initial_state(model)
    s1 = apply_law(model, model.laws[0], s0, 1.0, RngStream(0))
    assert read(s1.values) == expected
    assert deep_equal(s0, build_initial_state(model))


class TestStep:
    def test_counter_step(self):
        model = load_model(fixture_source("guard_true.cml"))
        s0 = build_initial_state(model)
        s1 = step(model, s0, 1.0, RngStream(0))
        assert s1.time == 1.0
        assert s1.values["x"] == 0.5

    def test_strict_mode_propagates_overlap(self, load_fixture_model):
        model = load_fixture_model("overlap.cml")
        s0 = real_state(model, x=0.0)
        with pytest.raises(MultipleApplicableError):
            step(model, s0, 1.0, RngStream(0), "strict")

    def test_repeat_run_same_seed_identical(self, load_fixture_model):
        model = load_fixture_model("psi_draw.cml")
        s0 = build_initial_state(model)
        a = step(model, s0, 1.0, RngStream(42))
        b = step(model, s0, 1.0, RngStream(42))
        assert deep_equal(a, b, tol=0.0)

    def test_seed_determinism_long_sequences(self, load_fixture_model):
        model = load_fixture_model("swap.cml")

        def run_states(seed):
            rng = RngStream(seed)
            s = real_state(model, a=1.0, b=2.0)
            out = []
            for i in range(1000):
                s = step(model, s, 0.5, rng)
                out.append(s)
            return out

        for sa, sb in zip(run_states(5), run_states(5)):
            assert deep_equal(sa, sb, tol=0.0)


class TestSampleRandom:
    """Each draw form, applied through a one-law model. A categorical draw
    takes one word of the stream and a normal draw two, so each seed
    gives the same draws as sampling the form directly did."""

    def test_flat_interval_mean(self):
        # law of large numbers against the closed-form mean of U[0,1)
        rng = RngStream(101)
        n = 100_000
        total = sum(draws(draw_model("random([0.0, 1.0], FLAT)"), rng, n))
        assert abs(total / n - 0.5) < 0.01

    def test_psi_born_weights(self):
        # |0.6|^2 = 0.36 and |0.8i|^2 = 0.64; empirical frequency within
        # 3 sigma of the binomial at 1e5 draws
        rng = RngStream(102)
        model = draw_model("random({0, 1}, PSI(0.6, 0.8i))", "int")
        n = 100_000
        ones = sum(draws(model, rng, n))
        sigma = math.sqrt(0.36 * 0.64 * n)
        assert abs(ones - 0.64 * n) < 3 * sigma

    @staticmethod
    def draw_error(draw: str, kind: str = "real") -> str:
        model = draw_model(draw, kind)
        term = run(model, build_initial_state(model),
                   RunConfig(dt=1.0, max_steps=1)).termination
        assert term.kind == "eval-error"
        return term.message

    def test_zero_weights_error(self):
        assert self.draw_error("random({0, 1}, WEIGHTS(0.0, 0.0))", "int") == \
            "law 'Draw': random: weights sum to zero at 1:81"

    # the bounds read the state (x = 0.0), so the range is checked as it
    # draws; constant empty ranges are bad-random diagnostics

    def test_empty_interval_error(self):
        assert self.draw_error("random([1.0, x + 1.0], FLAT)") == \
            "law 'Draw': random: continuous FLAT requires lo < hi at 1:82"

    def test_empty_truncated_gauss_fails_before_a_draw(self):
        # rejected before the first of the 100,000 rejection tries
        assert self.draw_error("random([1.0, x], GAUSS(0.0, 1.0))") == \
            ("law 'Draw': random: truncated GAUSS requires lo < hi, got lo "
             "1.0 and hi 0.0 at 1:82")

    def test_gauss_requires_positive_sigma(self):
        assert self.draw_error("random(GAUSS(0.0, 0.0))") == \
            "law 'Draw': random: GAUSS sigma must be > 0 at 1:82"

    def test_negative_weight_error(self):
        # the weight reads the state (x = 0), so it is checked as it draws
        assert self.draw_error("random({0, 1}, WEIGHTS(x - 1, 1))", "int") == \
            "law 'Draw': random: weights must be >= 0 at 1:81"

    def test_improbable_truncated_gauss_error(self):
        # every one of the 100,000 rejection tries misses [100, 101]
        assert self.draw_error("random([100.0, 101.0], GAUSS(0.0, 1.0))") == \
            ("law 'Draw': random: truncated GAUSS: acceptance region too "
             "improbable at 1:82")

    def test_gauss_unbounded_and_truncated(self):
        rng = RngStream(103)
        xs = draws(draw_model("random(GAUSS(0.0, 1.0))"), rng, 20_000)
        assert abs(sum(xs) / len(xs)) < 0.03
        truncated = draw_model("random([0.0, 1.0], GAUSS(0.0, 1.0))")
        ys = draws(truncated, rng, 2000)
        assert all(0.0 <= y <= 1.0 for y in ys)

    def test_psi_normalization_invariance(self):
        # scaling all amplitudes by a common complex factor leaves the
        # branch weights of the categorical draw identical
        def leaf_weights(f):
            model = draw_model(f"random({{0, 1, 2}}, PSI({f}0.5, {f}0.5i, "
                               f"{f}(-0.70710678118654752)))", "int")
            tree = branch_run(model, build_initial_state(model),
                              RunConfig(dt=1.0, max_steps=1),
                              depth_bound=1, width_bound=4)
            return [leaf.weight for leaf in tree.leaves()]
        base = leaf_weights("")
        scaled = leaf_weights("2.3 * exp(0.77i) * ")
        np.testing.assert_allclose(base, [0.25, 0.25, 0.5], atol=1e-12)
        np.testing.assert_allclose(base, scaled, rtol=0.0, atol=1e-12)


class TestClassifyDeterminism:
    def test_counter_deterministic(self, load_fixture_model):
        model = load_fixture_model("guard_true.cml")
        assert classify_determinism(model).deterministic

    def test_psi_draw_nondeterministic(self, load_fixture_model):
        model = load_fixture_model("psi_draw.cml")
        verdict = classify_determinism(model)
        assert not verdict.deterministic
        assert verdict.random_laws == ("Draw",)
        assert str(verdict) == "nondeterministic(Draw)"

    def test_a_deterministic_verdict_prints_as_such(self, load_fixture_model):
        verdict = classify_determinism(load_fixture_model("guard_true.cml"))
        assert str(verdict) == "deterministic"


# refusals that only a bare host call reaches: the CLI and RunConfig refuse
# the same first
class TestHostRefusals:
    SOURCE = ("model m { state { x: real in [-1.0, 1.0]; } init { x = 0.0; } "
              "law Drift { when x >= 0.0; then { x = x - dt; } } "
              "law Kick { when x < 0.0; "
              "then { x = random([0.0, 1.0], FLAT); } } }")

    @pytest.mark.parametrize("change, text", [
        ({"laws": ()}, "a causal model needs at least one law"),
        ({"default_timestep": 0.0}, "timestep must be positive"),
        ({"default_timestep": math.nan}, "timestep must be positive"),
        ("twice", "law names must be unique"),
    ])
    def test_a_causal_model_refuses(self, change, text):
        model = load_model(self.SOURCE)
        if change == "twice":
            change = {"laws": (model.laws[0], model.laws[0])}
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(model, **change)
        assert type(exc.value) is ValueError
        assert str(exc.value) == text

    def test_an_unknown_law_name_is_a_key_error(self):
        with pytest.raises(KeyError) as exc:
            load_model(self.SOURCE).law("Nope")
        assert exc.value.args == ("Nope",)

    def test_a_law_that_reads_dt_needs_one(self):
        model = load_model(self.SOURCE)
        s0 = build_initial_state(model)
        with pytest.raises(EvalError) as exc:
            apply_law(model, model.law("Drift"), s0, None, RngStream(0))
        assert str(exc.value) == \
            "law 'Drift': 'dt' is not available here at 1:105"

    def test_a_law_that_draws_needs_a_random_source(self):
        model = load_model(self.SOURCE)
        s0 = make_initial_state(model.schema, {"x": -0.5})
        with pytest.raises(EvalError) as exc:
            apply_law(model, model.law("Kick"), s0, 1.0, None)
        assert str(exc.value) == \
            "law 'Kick': random() is not allowed here at 1:149"

    def test_a_stochastic_intrinsic_needs_a_random_source(self):
        model, init = build_bundled_model("double_slit")
        with pytest.raises(EvalError) as exc:
            apply_law(model, model.law("Detect"), init, 1.0, None)
        assert str(exc.value) == ("law 'Detect': stochastic intrinsic "
                                  "'pw_detect' is not allowed here at 21:18")

    def test_select_law_refuses_an_unknown_mode(self):
        model = load_model(self.SOURCE)
        with pytest.raises(ValueError) as exc:
            select_law(model, build_initial_state(model), "sideways")
        assert str(exc.value) == "unknown mode 'sideways'"

    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_step_refuses_a_dt_that_is_not_positive(self, dt):
        model = load_model(self.SOURCE)
        with pytest.raises(ValueError) as exc:
            step(model, build_initial_state(model), dt, RngStream(0))
        assert str(exc.value) == "dt must be positive"
