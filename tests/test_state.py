import json

import numpy as np
import pytest

from causalkit import (
    Domain,
    MissingFieldError,
    RngStream,
    SchemaError,
    StateSchema,
    TypeDesc,
    TypeMismatchError,
    UnsampleableFieldError,
    VCGrid,
    VList,
    VRecord,
    deep_equal,
    make_initial_state,
    sample_state,
    state_from_json,
    state_to_json,
)


def int_schema():
    return StateSchema(fields={"n": TypeDesc.int_(Domain(lo=0, hi=100))})


class TestMakeInitialState:
    def test_direct_construction(self):
        s = make_initial_state(int_schema(), {"n": 0})
        assert s.time == 0.0
        assert s.values["n"] == 0

    def test_missing_field(self):
        with pytest.raises(MissingFieldError):
            make_initial_state(int_schema(), {})

    def test_type_mismatch(self):
        schema = StateSchema(fields={"x": TypeDesc.real()})
        with pytest.raises(TypeMismatchError):
            make_initial_state(schema, {"x": True})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError):
            make_initial_state(int_schema(), {"n": 0, "zz": 1})

    def test_nested_record_checked(self):
        schema = StateSchema(
            fields={"p": TypeDesc.record_ref("P")},
            records={"P": (("x", TypeDesc.real()),)})
        good = make_initial_state(
            schema, {"p": VRecord("P", {"x": 1.0})})
        assert good.values["p"].fields["x"] == 1.0
        with pytest.raises(TypeMismatchError):
            make_initial_state(schema, {"p": VRecord("P", {"x": 1})})


class TestSchemaInvariants:
    def test_unresolved_record(self):
        with pytest.raises(SchemaError):
            StateSchema(fields={"p": TypeDesc.record_ref("Nope")})

    def test_cyclic_records(self):
        with pytest.raises(SchemaError):
            StateSchema(fields={},
                        records={"A": (("b", TypeDesc.record_ref("B")),),
                                 "B": (("a", TypeDesc.record_ref("A")),)})

    def test_field_constant_overlap(self):
        with pytest.raises(SchemaError):
            StateSchema(fields={"x": TypeDesc.real()},
                        constants={"x": (TypeDesc.real(), 1.0)})

    def test_bad_domain(self):
        with pytest.raises(SchemaError):
            Domain(lo=2.0, hi=-2.0)
        with pytest.raises(SchemaError):
            Domain(values=())

    def test_vector_length(self):
        with pytest.raises(SchemaError):
            TypeDesc.vector(0)
        with pytest.raises(SchemaError):
            TypeDesc.cgrid(8, 0.0)


class TestSampleState:
    def test_real_interval(self):
        schema = StateSchema(fields={"x": TypeDesc.real(Domain(lo=0.0, hi=1.0))})
        rng = RngStream(1)
        for _ in range(100):
            s = sample_state(schema, rng)
            assert 0.0 <= s.values["x"] <= 1.0

    def test_bool_both_seen(self):
        schema = StateSchema(fields={"b": TypeDesc.bool_()})
        rng = RngStream(2)
        seen = {sample_state(schema, rng).values["b"]
                for _ in range(100)}
        assert seen == {False, True}

    def test_cgrid_unsampleable(self):
        schema = StateSchema(fields={"psi": TypeDesc.cgrid(64, 0.1)})
        with pytest.raises(UnsampleableFieldError) as exc:
            sample_state(schema, RngStream(0))
        assert exc.value.name == "psi"

    def test_undomained_real_unsampleable(self):
        schema = StateSchema(fields={"x": TypeDesc.real()})
        with pytest.raises(UnsampleableFieldError):
            sample_state(schema, RngStream(0))

    def test_domains_respected_many_draws(self):
        # every drawn value lies inside its declared domain
        schema = StateSchema(fields={
            "x": TypeDesc.real(Domain(lo=-2.0, hi=3.0)),
            "n": TypeDesc.int_(Domain(lo=-5, hi=5)),
            "k": TypeDesc.int_(Domain(values=(2, 4, 8))),
        })
        rng = RngStream(3)
        for _ in range(10_000):
            s = sample_state(schema, rng)
            assert -2.0 <= s.values["x"] <= 3.0
            assert -5 <= s.values["n"] <= 5
            assert s.values["k"] in (2, 4, 8)

    def test_list_needs_bound(self):
        schema = StateSchema(fields={
            "xs": TypeDesc.list_of(TypeDesc.real(Domain(lo=0, hi=1)))})
        with pytest.raises(UnsampleableFieldError):
            sample_state(schema, RngStream(0))
        bounded = StateSchema(fields={
            "xs": TypeDesc.list_of(TypeDesc.real(Domain(lo=0, hi=1)), bound=4)})
        s = sample_state(bounded, RngStream(0))
        assert len(s.values["xs"].items) == 4

    def test_time_domain(self):
        schema = StateSchema(fields={"b": TypeDesc.bool_()},
                             time_domain=Domain(lo=1.0, hi=2.0))
        s = sample_state(schema, RngStream(5))
        assert 1.0 <= s.time <= 2.0
        plain = StateSchema(fields={"b": TypeDesc.bool_()})
        assert sample_state(plain, RngStream(5)).time == 0.0


def random_schema(rng: RngStream) -> StateSchema:
    """Random sampleable schema: scalar fields with assorted domains."""
    fields = {}
    for i in range(1 + rng.randint_below(5)):
        kind = rng.randint_below(4)
        name = f"f{i}"
        if kind == 0:
            lo = rng.uniform(-10, 0)
            fields[name] = TypeDesc.real(Domain(lo=lo, hi=lo + rng.uniform(0.1, 10)))
        elif kind == 1:
            lo = rng.randint_below(10) - 5
            fields[name] = TypeDesc.int_(Domain(lo=lo, hi=lo + rng.randint_below(20)))
        elif kind == 2:
            fields[name] = TypeDesc.bool_()
        else:
            values = tuple(range(1 + rng.randint_below(4)))
            fields[name] = TypeDesc.int_(Domain(values=values))
    return StateSchema(fields=fields)


class TestConstructionTotality:
    def test_sampled_states_satisfy_schema_match(self):
        # any state from sample_state passes the construction-time check
        from causalkit.state import check_value
        rng = RngStream(31)
        for _ in range(200):
            schema = random_schema(rng)
            s = sample_state(schema, rng)
            assert set(s.values) == set(schema.fields)
            for name, td in schema.fields.items():
                check_value(s.values[name], td, schema, where=name)
            assert deep_equal(s, s, 0.0)


class TestDeepEqual:
    def test_identity_zero_tol(self):
        s = make_initial_state(int_schema(), {"n": 3})
        assert deep_equal(s, s, tol=0.0)

    def test_tolerance(self):
        schema = StateSchema(fields={"x": TypeDesc.real()})
        a = make_initial_state(schema, {"x": 1.0})
        b = make_initial_state(schema, {"x": 1.0 + 1e-12})
        c = make_initial_state(schema, {"x": 2.0})
        assert deep_equal(a, b, tol=1e-9)
        assert not deep_equal(a, c, tol=1e-9)

    def test_reflexive_symmetric_on_sampled(self):
        schema = StateSchema(fields={
            "x": TypeDesc.real(Domain(lo=-1, hi=1)),
            "n": TypeDesc.int_(Domain(lo=0, hi=9)),
            "b": TypeDesc.bool_(),
        })
        rng = RngStream(11)
        for _ in range(50):
            a = sample_state(schema, rng)
            b = sample_state(schema, rng)
            assert deep_equal(a, a, 0.0)
            assert deep_equal(a, b, 0.0) == deep_equal(b, a, 0.0)

    def test_grid_comparison(self):
        schema = StateSchema(fields={"psi": TypeDesc.cgrid(4, 0.5)})
        a = make_initial_state(schema, {"psi": VCGrid(np.ones(4), 0.5)})
        b = make_initial_state(
            schema, {"psi": VCGrid(np.ones(4) + 1e-12, 0.5)})
        assert deep_equal(a, b, tol=1e-9)
        assert not deep_equal(a, b, tol=0.0)


class TestStateJson:
    def test_round_trip(self):
        schema = StateSchema(
            fields={"x": TypeDesc.real(),
                    "ns": TypeDesc.list_of(TypeDesc.int_()),
                    "psi": TypeDesc.cgrid(3, 0.5)})
        s = make_initial_state(schema, {
            "x": 2.5,
            "ns": VList([1, 2]),
            "psi": VCGrid(np.array([1 + 2j, 0, -1j]), 0.5),
        })
        data = state_to_json(s)
        back = state_from_json(data, schema)
        assert deep_equal(s, back, tol=0.0)


PW_TYPE = TypeDesc.pwcollection([("slit", TypeDesc.int_()),
                                  ("position", TypeDesc.real())])


def _pw_json(amp, position):
    return (f'{{"kind": "pw", "attrs": [["slit", "int"], ["position", '
            f'"real"]], "paths": [{{"amp": {amp}, "particles": '
            f'[{{"slit": 0, "position": {position}}}]}}]}}')


# JSON text allows NaN and Infinity; no state may hold them
@pytest.mark.parametrize("td, text, message", [
    (TypeDesc.real(), '{"kind": "real", "v": NaN}',
     "field 'f': expected a finite value, got nan"),
    (TypeDesc("complex"), '{"kind": "complex", "re": 1.0, "im": -Infinity}',
     "field 'f': expected a finite value, got -inf"),
    (TypeDesc.vector(2), '{"kind": "vector", "v": [1.0, Infinity]}',
     "field 'f': expected a finite value, got inf"),
    (TypeDesc.cgrid(2, 0.5),
     '{"kind": "cgrid", "dx": 0.5, "re": [0.0, NaN], "im": [0.0, 0.0]}',
     "field 'f': expected a finite value, got nan"),
    (PW_TYPE, _pw_json("[NaN, 0.0]", "0.0"),
     "field 'f': expected a finite value, got nan"),
    (PW_TYPE, _pw_json("[1.0, 0.0]", "NaN"),
     "field 'f': expected a finite value, got nan"),
    (TypeDesc.list_of(TypeDesc.real()),
     '{"kind": "list", "items": [{"kind": "real", "v": 1.0}, '
     '{"kind": "real", "v": -Infinity}]}',
     "field 'f': expected a finite value, got -inf"),
])
def test_state_from_json_rejects_non_finite_values(td, text, message):
    data = {"time": 0.0, "values": {"f": json.loads(text)}}
    with pytest.raises(TypeMismatchError) as exc:
        state_from_json(data, StateSchema(fields={"f": td}))
    assert str(exc.value) == message


def test_state_from_json_rejects_a_cgrid_of_another_dx():
    data = {"time": 0.0, "values": {"psi": {
        "kind": "cgrid", "dx": 0.7, "re": [1.0, 0.0], "im": [0.0, 0.0]}}}
    with pytest.raises(TypeMismatchError) as exc:
        state_from_json(data, StateSchema(fields={
            "psi": TypeDesc.cgrid(2, 0.5)}))
    assert str(exc.value) == \
        "field 'psi': expected cgrid(2, 0.5), got cgrid(2, 0.7)"


class TestPwJson:
    SCHEMA = StateSchema(fields={"pw": TypeDesc.pwcollection(
        [("slit", TypeDesc.int_()), ("position", TypeDesc.real())])})

    @staticmethod
    def data(**particle):
        return {"time": 0.0, "values": {"pw": {
            "kind": "pw", "attrs": [["slit", "int"], ["position", "real"]],
            "normalized": True,
            "paths": [{"amp": [1.0, 0.0], "particles": [particle]}]}}}

    def test_loads_a_fitting_collection(self):
        state = state_from_json(self.data(slit=1, position=-2.5), self.SCHEMA)
        pw = state.values["pw"].pw
        assert pw.attr_array("slit").tolist() == [1]
        assert pw.attr_array("position").tolist() == [-2.5]

    @pytest.mark.parametrize("particle", [{"slit": 0.5, "position": 0.0},
                                          {"slit": 0, "position": "left"}])
    def test_an_attribute_that_does_not_fit_its_kind_is_rejected(self,
                                                                 particle):
        with pytest.raises(TypeMismatchError):
            state_from_json(self.data(**particle), self.SCHEMA)

    def test_missing_and_undeclared_attributes_are_rejected(self):
        from causalkit import MissingAttributeError
        with pytest.raises(MissingAttributeError):
            state_from_json(self.data(slit=0), self.SCHEMA)
        with pytest.raises(TypeMismatchError):
            state_from_json(self.data(slit=0, position=0.0, side=1),
                            self.SCHEMA)


@pytest.mark.parametrize("name, params", [
    ("double_slit", {"detector": "off"}), ("double_slit", {"detector": "on"}),
    ("entangled_pair", {}), ("qftca_toy", {})])
@pytest.mark.parametrize("steps", [0, 2])
def test_state_json_is_a_fixed_point(name, params, steps):
    from causalkit import RunConfig, build_bundled_model, run
    model, state = build_bundled_model(name, params)
    if steps:
        state = run(model, state, RunConfig(dt=1.0, max_steps=steps,
                                            seed=3)).final_state
    data = state_to_json(state)
    back = state_from_json(data, model.schema)
    assert state_to_json(back) == data
    assert deep_equal(state, back)


def test_check_value_names_the_first_mismatch_in_value_order():
    from causalkit.state import VCGrid, VList, VRecord, VVector, check_value

    p_decl = (("m", TypeDesc.real()), ("x", TypeDesc.real()))
    w_decl = (("p", TypeDesc.record_ref("P")),
              ("ps", TypeDesc.list_of(TypeDesc.record_ref("P"))),
              ("n", TypeDesc.int_()), ("v", TypeDesc.vector(2)),
              ("g", TypeDesc.cgrid(2, 0.5)))
    schema = StateSchema(fields={"w": TypeDesc.record_ref("W")},
                         records={"P": p_decl, "W": w_decl})

    def p(m=1.0, x=2.0):
        return VRecord("P", {"m": m, "x": x})

    def w(**fields):
        return VRecord("W", {"p": p(), "ps": VList([p(), p()]), "n": 3,
                             "v": VVector([1.0, 2.0]),
                             "g": VCGrid([1, 2], 0.5), **fields})

    cases = [
        (w(p=p(m=1)), "'w.p.m': expected real, got int"),
        (w(ps=VList([p(), p(x=True)])), "'w.ps.x': expected real, got bool"),
        (w(v=VVector([1.0])), "'w.v': expected vector(2), got vector(1)"),
        (w(g=VCGrid([1, 2], 0.25)),
         "'w.g': expected cgrid(2, 0.5), got cgrid(2, 0.25)"),
        (w(ps=p()), "'w.ps': expected list(P), got P"),
        (w(ps=VList([p(), 3])), "'w.ps': expected P, got int"),
        (w(p=VRecord("P", {"m": 1.0})), "'w.p': expected P, got P"),
        # fields are walked in the value's order, not the declaration's
        (VRecord("W", {"n": 2.5, "p": p(m=1), "ps": VList([]),
                       "v": VVector([1.0, 2.0]), "g": VCGrid([1, 2], 0.5)}),
         "'w.n': expected int, got real"),
        (VList([]), "'w': expected W, got list"),
    ]
    check_value(w(), schema.fields["w"], schema, where="w")
    for value, message in cases:
        with pytest.raises(TypeMismatchError) as exc:
            check_value(value, schema.fields["w"], schema, where="w")
        assert str(exc.value) == f"field {message}"
    assert schema.checker(schema.fields["w"]) is schema.checker(
        schema.fields["w"])
