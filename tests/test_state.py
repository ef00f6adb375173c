import dataclasses
import gc
import hashlib
import json
import math
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import (
    Domain,
    MissingFieldError,
    RngStream,
    SchemaError,
    StateSchema,
    SystemState,
    TypeDesc,
    TypeMismatchError,
    UnsampleableFieldError,
    VCGrid,
    VList,
    VRecord,
    VVector,
    build_bundled_model,
    make_initial_state,
    sample_state,
    state_from_json,
    state_to_json,
)
from causalkit.analyzer import CheckStrategy, _sampled_states, \
    unsampleable_fields
from causalkit.rng import derive_seed
from causalkit.state import PAYLOAD_TYPES

from conftest import deep_equal


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


class TestImmutability:
    """States and the composites a step builds store through their slot
    descriptors and stay frozen: the ensemble memo keys on id(state)."""

    def test_system_state(self):
        s = make_initial_state(int_schema(), {"n": 3})
        for name in ("schema", "time", "values"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, None)
        later = dataclasses.replace(s, time=2.5)
        assert later == SystemState(s.schema, 2.5, {"n": 3}) != s
        assert (later.schema, later.values) == (s.schema, s.values)
        assert dataclasses.replace(s) == s

    @pytest.mark.parametrize("time", [math.inf, -math.inf, math.nan])
    def test_system_state_time_must_be_finite(self, time):
        with pytest.raises(SchemaError, match="state time must be finite"):
            SystemState(int_schema(), time, {"n": 0})
        s = make_initial_state(int_schema(), {"n": 0})
        with pytest.raises(SchemaError, match="state time must be finite"):
            dataclasses.replace(s, time=time)

    @pytest.mark.parametrize("value, name, changed", [
        (VRecord("P", {"x": 1.0}), "fields", {"x": 2.0}),
        (VList([1, 2]), "items", [3]),
        (VVector([1.0, 2.0]), "values", [3.0]),
    ])
    def test_composites(self, value, name, changed):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, changed)
        later = dataclasses.replace(value, **{name: changed})
        assert type(later) is type(value)
        assert list(getattr(later, name)) == list(changed)

    def test_composites_convert_what_they_store(self):
        assert VList([1, 2]).items == (1, 2)
        vector = VVector([1, 2])
        assert vector.values.dtype == np.float64
        assert list(vector.values) == [1.0, 2.0]


class TestSchemaInvariants:
    def test_unresolved_record(self):
        with pytest.raises(SchemaError):
            StateSchema(fields={"p": TypeDesc.record_ref("Nope")})

    def test_cyclic_records(self):
        with pytest.raises(SchemaError):
            StateSchema(fields={},
                        records={"A": (("b", TypeDesc.record_ref("B")),),
                                 "B": (("a", TypeDesc.record_ref("A")),)})

    def test_cycle_is_named_where_the_search_meets_it_again(self):
        # A -> B -> C -> list of B: the search from A meets B again; D is
        # reached twice along acyclic paths, which is no cycle
        leaf = (("x", TypeDesc.int_()),)
        records = {"A": (("b", TypeDesc.record_ref("B")),
                         ("d", TypeDesc.record_ref("D"))),
                   "B": (("d", TypeDesc.record_ref("D")),
                         ("c", TypeDesc.record_ref("C"))),
                   "C": (("bs", TypeDesc.list_of(TypeDesc.record_ref("B"))),),
                   "D": leaf}
        with pytest.raises(SchemaError, match="through 'B'"):
            StateSchema(fields={}, records=records)
        StateSchema(fields={}, records={**records, "C": leaf})
        with pytest.raises(SchemaError, match="through 'S'"):
            StateSchema(fields={}, records={"S": (
                ("s", TypeDesc.list_of(TypeDesc.record_ref("S"))),)})

    @pytest.mark.parametrize("name", ["counter", "harmonic_oscillator",
                                      "qftca_toy", "double_slit"])
    def test_a_dropped_schema_is_freed_without_the_collector(self, name):
        model, init = build_bundled_model(name)
        schema = weakref.ref(model.schema)
        gc.disable()
        try:
            del model, init
            assert schema() is None
        finally:
            gc.enable()

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
        # a record of another name, and payloads of a near type
        (w(p=VRecord("W", {"m": 1.0, "x": 2.0})), "'w.p': expected P, got W"),
        (w(n=True), "'w.n': expected int, got bool"),
        (w(n=VList([])), "'w.n': expected int, got list"),
        # an item of a list(P) in the other order, both fields wrong
        (w(ps=VList([p(), VRecord("P", {"x": 1, "m": True})])),
         "'w.ps.x': expected real, got int"),
    ]
    check_value(w(), schema.fields["w"], schema, where="w")
    for value, message in cases:
        with pytest.raises(TypeMismatchError) as exc:
            check_value(value, schema.fields["w"], schema, where="w")
        assert str(exc.value) == f"field {message}"
    assert schema.checker(schema.fields["w"]) is schema.checker(
        schema.fields["w"])


# every kind sample_state draws: real and int intervals, an int interval
# over all of int64, finite int, real, complex and bool sets, a bool with no
# domain, a vector, a bounded list of records and a time domain
EVERY_KIND = StateSchema(
    fields={
        "r": TypeDesc.real(Domain(lo=-2.5, hi=3.0)),
        "n": TypeDesc.int_(Domain(lo=-5, hi=5)),
        "big": TypeDesc.int_(Domain(lo=-2**63, hi=2**63 - 1)),
        "fi": TypeDesc.int_(Domain(values=(2, 4, 8))),
        "fr": TypeDesc.real(Domain(values=(0.5, -1.25, 3))),
        "fc": TypeDesc("complex", domain=Domain(values=(1 + 2j, -0.5j, 2))),
        "fb": TypeDesc("bool", domain=Domain(values=(False, True, 1))),
        "b": TypeDesc.bool_(),
        "v": TypeDesc.vector(3, Domain(lo=-1.0, hi=1.0)),
        "ps": TypeDesc.list_of(TypeDesc.record_ref("P"), bound=3),
    },
    records={"P": (("x", TypeDesc.real(Domain(lo=0.0, hi=1e300))),
                   ("k", TypeDesc.int_(Domain(values=(1, 2, 3)))),
                   ("on", TypeDesc.bool_()))},
    time_domain=Domain(lo=0.0, hi=10.0))


def _digest(states) -> str:
    text = json.dumps([state_to_json(s) for s in states])
    return hashlib.sha256(text.encode()).hexdigest()


def test_sampled_states_of_every_kind_are_pinned():
    # one stream drawn on (its words cross 256-word buffers), and the
    # analyzer's states of one stream per key (crossing a 4,096-key chunk)
    rng = RngStream(17)
    assert _digest(sample_state(EVERY_KIND, rng) for _ in range(300)) == (
        "1d203101554c4266b2519487fc2f5b70f85341a6a9048df75b1ec33ad5c7a57f")
    assert rng.draw_count == 300 * 21
    model = SimpleNamespace(schema=EVERY_KIND)
    states = list(_sampled_states(model, CheckStrategy(count=4200, seed=23)))
    assert _digest(states) == (
        "e0aa8f4a43ed5ed97cb9955731616b21fe66382ec9cc8315aa104c7bf9c37997")


# --- the sampler against a value-by-value oracle -----------------------------


def oracle_state(schema: StateSchema, rng: RngStream) -> SystemState:
    """``sample_state`` drawn one value at a time from ``rng``, in the
    sampler's order: fields, then the time coordinate."""
    values = {name: oracle_value(td, schema, rng, name)
              for name, td in schema.fields.items()}
    t = 0.0
    if schema.time_domain is not None:
        t = oracle_raw(schema.time_domain, "real", rng, "time")
    return SystemState(schema, float(t), values)


def oracle_raw(domain: Domain, kind: str, rng: RngStream, name: str):
    if domain.is_finite:
        return domain.values[rng.randint_below(len(domain.values))]
    try:
        if kind == "int":
            lo, hi = int(domain.lo), int(domain.hi)
            return lo + rng.randint_below(hi - lo + 1)
        width_ok = math.isfinite(domain.hi - domain.lo)
    except OverflowError:
        width_ok = False
    if not width_ok:
        raise UnsampleableFieldError(name, "interval width overflows")
    return rng.uniform(domain.lo, domain.hi)


def oracle_value(td: TypeDesc, schema: StateSchema, rng: RngStream,
                 name: str):
    kind = td.kind
    if kind in ("cgrid", "pwcollection"):
        raise UnsampleableFieldError(name, f"{kind} fields are unsampleable")
    if kind == "bool":
        if td.domain is not None:
            return bool(oracle_raw(td.domain, kind, rng, name))
        return rng.randint_below(2) == 1
    if kind in ("real", "int", "complex"):
        if td.domain is None:
            raise UnsampleableFieldError(name)
        if kind == "complex" and not td.domain.is_finite:
            raise UnsampleableFieldError(name, "complex needs a finite domain")
        # a finite domain may list ints for a real or complex field
        return PAYLOAD_TYPES[kind](oracle_raw(td.domain, kind, rng, name))
    if kind == "vector":
        if td.domain is None or td.domain.is_finite:
            raise UnsampleableFieldError(name, "vector needs an interval domain")
        return VVector([oracle_raw(td.domain, "real", rng, name)
                        for _ in range(td.length)])
    if kind == "list":
        if td.bound is None:
            raise UnsampleableFieldError(name, "list needs a length bound")
        return VList([oracle_value(td.element, schema, rng, name)
                      for _ in range(td.bound)])
    if kind == "record":
        return VRecord(td.record, {
            fname: oracle_value(ftd, schema, rng, f"{name}.{fname}")
            for fname, ftd in schema.records[td.record]})
    raise UnsampleableFieldError(name, f"cannot sample kind '{kind}'")


def oracle_errors(schema: StateSchema) -> dict:
    """Field name -> message of each field the oracle cannot draw."""
    out = {}
    for name, td in schema.fields.items():
        try:
            oracle_value(td, schema, RngStream(0), name)
        except UnsampleableFieldError as exc:
            out[name] = str(exc)
    return out


def _json(states) -> str:
    return json.dumps([state_to_json(s) for s in states])


BOUNDS = st.sampled_from([0.0, -1.0, 1e308, 2.5, -1e308, 1e-300, -1e307])
FINITE = {"int": st.integers(-2 ** 70, 2 ** 70),
          "real": st.floats(allow_nan=False, allow_infinity=False)
          | st.integers(-9, 9),
          "complex": st.complex_numbers(allow_nan=False, allow_infinity=False,
                                        max_magnitude=1e300),
          "bool": st.booleans() | st.integers(0, 1)}


@st.composite
def interval(draw, kind):
    if kind == "int":
        lo = draw(st.sampled_from([0, -5, -2 ** 63, 2 ** 62, -2 ** 70,
                                   -1e308, 2 ** 63 - 1]))
        top = draw(st.sampled_from([0, 3, 2 ** 63 - 1, 2 ** 64, 1e308]))
        return Domain(lo=lo, hi=max(lo, top))
    lo, hi = sorted([draw(BOUNDS), draw(BOUNDS)])
    return Domain(lo=lo, hi=hi)


@st.composite
def type_descs(draw, records, depth=0):
    # mostly sampleable kinds, so that most schemas can be drawn
    kinds = ["real", "int", "bool", "vector", "complex", "cgrid", "list",
             "record"]
    kind = draw(st.sampled_from(kinds if depth < 2 else kinds[:4]))
    if kind == "cgrid":
        return TypeDesc.cgrid(2, 0.5)
    if kind == "list":
        return TypeDesc.list_of(draw(type_descs(records, depth + 1)),
                                bound=draw(st.sampled_from([2, 0, 3, None])))
    if kind == "record":
        fields = tuple((f"a{j}", draw(type_descs(records, depth + 1)))
                       for j in range(draw(st.integers(1, 3))))
        name = f"R{len(records)}"
        records[name] = fields
        return TypeDesc.record_ref(name)
    shape = draw(st.sampled_from(["interval", "finite", "interval",
                                  "none"]))
    if kind == "vector":
        domain = None if shape == "none" else draw(interval("real"))
        return TypeDesc.vector(draw(st.integers(1, 3)), domain)
    if shape == "none" and kind != "complex":
        return TypeDesc(kind)
    if shape == "finite" or kind == "complex":
        values = draw(st.lists(FINITE[kind], min_size=1, max_size=4))
        return TypeDesc(kind, domain=Domain(values=tuple(values)))
    return TypeDesc(kind, domain=draw(interval(kind)))


@st.composite
def schemas(draw):
    records = {}
    fields = {f"f{i}": draw(type_descs(records))
              for i in range(draw(st.integers(1, 4)))}
    time = draw(st.sampled_from([None, Domain(lo=0.0, hi=3.0),
                                 Domain(values=(1, 2.5))]))
    return StateSchema(fields=fields, records=records, time_domain=time)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(schemas(), st.integers(0, 2 ** 64 - 1),
       st.sampled_from([1, 2, 5, 4096, 4097, 4100]))
def test_sampler_draws_what_the_oracle_draws(schema, seed, count):
    # the same fields are unsampleable, with the same messages
    errors = {n: str(e) for n, e in schema.sampler.errors.items()}
    assert errors == oracle_errors(schema)
    model = SimpleNamespace(schema=schema)
    assert unsampleable_fields(model) == list(errors)
    if errors:
        return
    # one stream drawn on
    rng, want = RngStream(seed), RngStream(seed)
    assert _json(sample_state(schema, rng) for _ in range(3)) == \
        _json(oracle_state(schema, want) for _ in range(3))
    assert rng.draw_count == want.draw_count == 3 * schema.sampler.width
    # one stream per key: the first and last state of each chunk
    states = list(_sampled_states(model, CheckStrategy(count=count,
                                                       seed=seed)))
    assert len(states) == count
    for i in sorted({i for i in (0, 1, 4095, 4096) if i < count}
                    | {count - 1}):
        rng.rekey(derive_seed(seed, i))
        assert _json([states[i]]) == _json([oracle_state(schema, rng)])


@pytest.mark.parametrize("td", [
    TypeDesc.real(Domain(lo=-1e308, hi=1e308)),
    TypeDesc.int_(Domain(lo=-1e308, hi=1e308)),
    TypeDesc.vector(2, Domain(lo=-1e308, hi=1e308)),
    TypeDesc.list_of(TypeDesc.real(Domain(lo=-1e308, hi=1e308)), bound=2),
])
def test_an_interval_wider_than_a_float_is_unsampleable(td):
    schema = StateSchema(fields={"x": td})
    with pytest.raises(UnsampleableFieldError) as exc:
        sample_state(schema, RngStream(0))
    assert str(exc.value) == \
        "field 'x' cannot be sampled: interval width overflows"


def test_a_time_domain_wider_than_a_float_is_rejected():
    with pytest.raises(SchemaError, match="time domain width overflows"):
        StateSchema(fields={}, time_domain=Domain(lo=-1e308, hi=1e308))
