"""Feature-level checks of the expression language and statements."""

import math

import numpy as np
import pytest

from causalkit import (
    RngStream,
    RunConfig,
    SinkError,
    StateSchema,
    TypeDesc,
    VCGrid,
    VVector,
    apply_law,
    build_initial_state,
    load_model,
    make_initial_state,
    run,
    write_trace,
)

from conftest import SchemaMismatchError, deep_equal


def one_shot(field_decls, init, body, dt=1.0, assignments=None):
    """Build a one-law model, apply the law once, return the new state."""
    src = (f"model t {{ state {{ {field_decls} }} init {{ {init} }} "
           f"law L {{ when true; then {{ {body} }} }} }}")
    model = load_model(src)
    if assignments:
        state = make_initial_state(model.schema, assignments)
    else:
        state = build_initial_state(model)
    return apply_law(model, model.laws[0], state, dt, RngStream(0))


class TestExpressions:
    def test_power_operator(self):
        s = one_shot("x: real in [0.0, 100.0]; n: int in [0, 100];",
                     "x = 3.0; n = 2;", "x = x ^ 2.0; n = n ^ 3;")
        assert s.values["x"] == 9.0
        assert s.values["n"] == 8

    def test_unary_minus_and_precedence(self):
        s = one_shot("x: real in [-100.0, 100.0];", "x = 0.0;",
                     "x = -2.0 ^ 2.0 + 3.0 * 4.0;")
        # -(2^2) + 12 = 8 under standard precedence
        assert s.values["x"] == 8.0

    def test_complex_arithmetic(self):
        s = one_shot("z: complex;", "z = complex(1.0, 2.0);",
                     "z = conj(z) * 2.0i + exp(complex(0.0, 0.0));")
        # conj(1+2i) = 1-2i; (1-2i)*2i = 4+2i; + exp(0) = 5+2i
        assert s.values["z"] == pytest.approx(5 + 2j)

    def test_abs2_and_re_im(self):
        s = one_shot("a: real in [0.0, 100.0]; b: real in [-10.0, 10.0];",
                     "a = 0.0; b = 0.0;",
                     "a = abs2(complex(3.0, 4.0)); b = im(complex(1.0, -2.5));")
        assert s.values["a"] == 25.0
        assert s.values["b"] == -2.5

    def test_imaginary_literal(self):
        s = one_shot("z: complex;", "z = 0.5i;", "z = z * z;")
        assert s.values["z"] == pytest.approx(-0.25)

    def test_laplacian_periodic(self):
        schema_src = "psi: cgrid(4, 0.5);"
        model = load_model(
            f"model t {{ state {{ {schema_src} }} init {{ }} "
            "law L { when true; then { psi = laplacian(psi); } } }")
        amps = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        state = make_initial_state(model.schema,
                                   {"psi": VCGrid(amps, 0.5)})
        out = apply_law(model, model.laws[0], state, 1.0, RngStream(0))
        expected = (np.roll(amps, 1) + np.roll(amps, -1) - 2 * amps) / 0.25
        np.testing.assert_allclose(out.values["psi"].amps, expected)

    def test_sum_and_len(self):
        s = one_shot("v: vector(3); total: real in [-100.0, 100.0]; "
                     "n: int in [0, 10];",
                     "v = fill(3, 2.5); total = 0.0; n = 0;",
                     "total = sum(v); n = len(v);")
        assert s.values["total"] == 7.5
        assert s.values["n"] == 3

    def test_vector_element_read_and_write(self):
        s = one_shot("v: vector(3); x: real in [-10.0, 10.0];",
                     "v = fill(3, 1.0); x = 0.0;",
                     "x = v[2] + 1.0; v[0] = 5.0;")
        assert s.values["x"] == 2.0
        np.testing.assert_allclose(s.values["v"].values, [5.0, 1.0, 1.0])

    def test_gauss_one_arg_unbounded(self):
        src = ("model t { state { x: real in [-100.0, 100.0]; } "
               "init { x = 0.0; } "
               "law L { when true; then { x = random(GAUSS(0.0, 1.0)); } } }")
        model = load_model(src)
        state = build_initial_state(model)
        rng = RngStream(4)
        draws = [apply_law(model, model.laws[0], state, 1.0, rng).values["x"]
                 for _ in range(5000)]
        assert abs(sum(draws) / len(draws)) < 0.05

    def test_random_interval_with_dynamic_bounds(self):
        src = ("model t { state { lo: real in [0.0, 1.0]; "
               "x: real in [0.0, 100.0]; } "
               "init { lo = 0.25; x = 0.0; } "
               "law L { when true; "
               "then { x = random([lo, lo + 0.5], FLAT); } } }")
        model = load_model(src)
        state = build_initial_state(model)
        rng = RngStream(5)
        for _ in range(500):
            out = apply_law(model, model.laws[0], state, 1.0, rng)
            assert 0.25 <= out.values["x"] < 0.75


class TestStatements:
    def test_if_else(self):
        src = ("model t { state { x: real in [-10.0, 10.0]; } "
               "init { x = 3.0; } "
               "law L { when true; then { "
               "if x > 0.0 { x = x - 1.0; } else { x = x + 1.0; } } } }")
        model = load_model(src)
        s = build_initial_state(model)
        s = apply_law(model, model.laws[0], s, 1.0, RngStream(0))
        assert s.values["x"] == 2.0
        down = make_initial_state(model.schema, {"x": -3.0})
        out = apply_law(model, model.laws[0], down, 1.0, RngStream(0))
        assert out.values["x"] == -2.0

    def test_elif_chain(self):
        src = ("model t { state { n: int in [0, 10]; tag: int in [0, 9]; } "
               "init { n = 5; tag = 0; } "
               "law L { when true; then { "
               "if n < 3 { tag = 1; } else if n < 7 { tag = 2; } "
               "else { tag = 3; } } } }")
        model = load_model(src)
        s = apply_law(model, model.laws[0], build_initial_state(model), 1.0,
                      RngStream(0))
        assert s.values["tag"] == 2

    def test_nested_for_writes(self):
        src = ("model t { record R { x: real; } "
               "state { rs: list(R, 2); } init { } "
               "law L { when true; then { "
               "for r in rs { r.x = r.x * 2.0; } } } }")
        model = load_model(src)
        from causalkit import VRecord
        state = make_initial_state(model.schema, {
            "rs": (VRecord("R", {"x": 1.0}), VRecord("R", {"x": 3.0}))})
        out = apply_law(model, model.laws[0], state, 1.0, RngStream(0))
        assert [r.fields["x"] for r in out.values["rs"]] == [2.0, 6.0]

    def test_whole_loop_variable_assignment(self):
        # P_i = f(P_i) style: assigning the loop variable replaces the element
        src = ("model t { state { xs: list(real, 3); } init { } "
               "law L { when true; then { "
               "for x in xs { x = x + 10.0; } } } }")
        model = load_model(src)
        state = make_initial_state(model.schema, {"xs": (1.0, 2.0, 3.0)})
        out = apply_law(model, model.laws[0], state, 1.0, RngStream(0))
        assert list(out.values["xs"]) == [11.0, 12.0, 13.0]


class TestPwIntrinsics:
    def test_pw_propagate_through_cml(self):
        from causalkit import PwCollection
        src = ("model t { state { pw: pwcollection(position: real, "
               "velocity: real); } init { } "
               "law Move { when true; then { pw = pw_propagate(pw, dt); } } }")
        model = load_model(src)
        pw = PwCollection((("position", "real"), ("velocity", "real")),
                          [1.0], {"position": [[0.0]], "velocity": [[2.0]]})
        state = make_initial_state(model.schema, {"pw": pw})
        out = apply_law(model, model.laws[0], state, 0.5, RngStream(0))
        assert out.values["pw"].attr_array("position").tolist() == [1.0]
        assert not model.laws[0].uses_random

    def test_pw_propagate_requires_attributes(self):
        from causalkit.frontend.lower import compile_model
        src = ("model t { state { pw: pwcollection(spin: int); } init { } "
               "law Move { when true; then { pw = pw_propagate(pw, dt); } } }")
        model, diags = compile_model(src)
        assert model is None
        assert any("position" in d.message for d in diags)

    def test_pw_propagate_requires_a_real_position(self):
        # a moved position is a real, so an int position cannot hold it
        from causalkit.frontend.lower import compile_model
        src = ("model t { state { pw: pwcollection(position: int, "
               "velocity: real); } init { } "
               "law Move { when true; then { pw = pw_propagate(pw, dt); } } }")
        model, diags = compile_model(src)
        assert model is None
        assert any("position: real" in d.message for d in diags)


class TestMisc:
    def test_deep_equal_schema_mismatch(self):
        a = make_initial_state(
            StateSchema(fields={"x": TypeDesc.real()}), {"x": 1.0})
        b = make_initial_state(
            StateSchema(fields={"y": TypeDesc.real()}), {"y": 1.0})
        with pytest.raises(SchemaMismatchError):
            deep_equal(a, b, tol=0.0)

    def test_write_trace_sink_error(self):
        from causalkit import build_bundled_model
        model, state = build_bundled_model("counter")
        trace = run(model, state, RunConfig(dt=1.0, max_steps=2))
        with pytest.raises(SinkError):
            write_trace(trace, "csv", "/nonexistent-dir/x/y.csv")

    def test_constants_fold_in_domains_and_exprs(self):
        src = ("model t { const n_max: int = 5; "
               "state { n: int in [0, 100]; } init { n = n_max; } "
               "law L { when n < n_max * 2; then { n = n + 1; } } }")
        model = load_model(src)
        s = build_initial_state(model)
        assert s.values["n"] == 5
