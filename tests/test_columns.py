"""The analyzer's column fast-forward against the per-state path.

``analyze --strategy sample`` checks the states of a model that
``engine._compile_columns`` covers a batch at a time, and checks per state
only the rows that may close a verdict. Its reports must equal the
per-state path's on the same model (the model's ``columns`` set to None)
and the two-pass oracle of ``test_analyzer``, byte for byte; and its
columns must equal, row by row and bit for bit, what the per-state
functions give.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit import load_model
from causalkit.analyzer import (
    CheckStrategy,
    CompletenessVerdict,
    ConsistencyVerdict,
    _hits,
    _sampled_blocks,
    analyze,
    report_to_json,
    validstate,
)
from causalkit.engine import apply_law, halts
from causalkit.errors import CausalKitError, EvalError
from causalkit.state import Sampler

from conftest import FIXTURES
from test_analyzer import (_sampled_states, two_pass_completeness,
                           two_pass_consistency)

QUADRANTS = (Path(__file__).parent.parent / "cmlbench" / "models"
             / "quadrants.cml")


def _loaded(source: str, per_state: bool = False):
    model = load_model(source)
    if per_state:
        model.__dict__["columns"] = None   # the per-state path alone
    return model


def _oracle(model, strategy) -> dict:
    """The report of the two checks done one after the other, per state."""
    report = analyze(model, strategy)
    verdicts = []
    for check, verdict in ((two_pass_consistency, ConsistencyVerdict),
                           (two_pass_completeness, CompletenessVerdict)):
        try:
            verdicts.append(check(model, strategy))
        except CausalKitError as exc:
            verdicts.append(verdict("error", message=str(exc)))
    return report_to_json(replace(report, consistency=verdicts[0],
                                  completeness=verdicts[1]))


def _column_report(model, strategy) -> tuple:
    """(the report, how many states the pass built to check per state)."""
    built, real_call = [], Sampler.__call__

    def counting_call(self, schema, words):
        built.append(len(words))
        return real_call(self, schema, words)

    Sampler.__call__ = counting_call
    try:
        return report_to_json(analyze(model, strategy)), sum(built)
    finally:
        Sampler.__call__ = real_call


def assert_same_reports(source: str, count: int, seed: int):
    """The column pass's report is the per-state path's and the oracle's,
    and it checks per state only rows that close a verdict: at most one
    per verdict that a state closes."""
    model = _loaded(source)
    assert model.columns is not None
    strategy = CheckStrategy("sample", count=count, seed=seed)
    got, built = _column_report(model, strategy)
    closed = [v for v in (got["consistency"], got["completeness"])
              if v["status"] == "fail" or v["status"] == "error"
              and not v["message"].startswith("sampling produced no state")]
    assert built <= len(closed)
    per_state = _loaded(source, per_state=True)
    assert got == report_to_json(analyze(per_state, strategy))
    assert got == _oracle(per_state, strategy)


def _same(a, b) -> bool:
    """Equal payloads of one type; a real by its bits (-0.0 is not 0.0)."""
    if type(a) is float:
        return type(b) is float and math.copysign(1, a) == math.copysign(
            1, b) and (a == b or a != a and b != b)
    return type(a) is type(b) and a == b


def assert_columns_match_the_per_state_functions(model, count: int):
    """Each row of one batch: the halt condition, what the selectors find,
    the first law's post-state where its writes are finite, and the
    post-state's halt condition and validity."""
    schema = model.schema
    _, words = next(_sampled_blocks(model, CheckStrategy(count=count)))
    with np.errstate(all="ignore"):
        c = model.columns(schema.sampler.columns(words)[0],
                          model.default_timestep, len(words))
    for i, s in enumerate(_sampled_states(model, CheckStrategy(count=count))):
        hits = _hits(model, s)
        assert (c.halt[i], c.applied[i], c.multiple[i]) == (
            halts(model, s), bool(hits), len(hits) > 1)
        if not hits:
            continue
        try:
            out = apply_law(model, hits[0], s, model.default_timestep,
                            None)
        except EvalError as exc:
            assert "non-finite value" in exc.message
            assert not c.finite[i]
            continue
        assert c.finite[i]
        for name, value in out.values.items():
            assert _same(c.post[name][i].item(), value), (i, name)
        assert (c.post_halt[i], c.post_valid[i]) == (
            halts(model, out), validstate(model, out))


# --- generated models -----------------------------------------------------------------

REALS = ("0.0", "-0.0", "0.25", "0.5", "1.0", "2.0", "1.0e308")
DOMAINS = {"real": ("[-2.0, 2.0]", "[0.0, 1.0]", "[-1.0e308, 0.5e308]"),
           "int": ("[-3, 12]", "{-2, 0, 5}", "[0, 1]"),
           "bool": ("", "in {true}")}
INITS = {"real": "0.0", "int": "0", "bool": "true"}


@st.composite
def column_models(draw) -> str:
    """CML source of a model the column pass covers: one to three int,
    real and bool fields; one to four laws whose guards are comparisons
    joined by &&, || and !, and whose bodies assign each field at most
    once from +, -, * and literals, some of them overflowing; and
    perhaps a halt condition."""
    kinds = draw(st.lists(st.sampled_from(["real", "real", "int", "bool"]),
                          min_size=1, max_size=3))
    names = [f"f{i}" for i in range(len(kinds))]
    fields = dict(zip(names, kinds))
    of = lambda kind: [n for n, k in fields.items() if k == kind]

    def real(depth):
        # an int is read into real arithmetic, and bare only where it is
        # compared or written: int arithmetic is not covered
        leaves = st.sampled_from(of("real") + [f"({n} * 1.0)" for n in
                                               of("int")] + list(REALS))
        if depth == 0:
            return draw(leaves)
        form = draw(st.sampled_from(["leaf", "op", "op", "neg"]))
        if form == "leaf":
            return draw(leaves)
        if form == "neg":
            return f"-({real(depth - 1)})"
        op = draw(st.sampled_from("+-*"))
        return f"({real(depth - 1)} {op} {real(depth - 1)})"

    def boolean(depth):
        form = draw(st.sampled_from(
            ["cmp", "cmp", "field", "not", "and", "or"] if depth else
            ["cmp", "field"]))
        if form == "field" and of("bool"):
            return draw(st.sampled_from(of("bool")))
        if form in ("not", "and", "or"):
            if form == "not":
                return f"!({boolean(depth - 1)})"
            op = "&&" if form == "and" else "||"
            return f"({boolean(depth - 1)} {op} {boolean(depth - 1)})"
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
        right = draw(st.sampled_from([real(1), *of("int"), "-2", "5"]))
        return f"({reads()} {op} {right})"

    def reads():
        """A real or an int that reads a field."""
        field = draw(st.sampled_from(of("real") + of("int") or ["0.5"]))
        if field in of("int") or draw(st.booleans()):
            return field
        op = draw(st.sampled_from("+-*"))
        return f"({field} {op} {real(1)})"

    def value(kind):
        if kind == "real":   # sometimes past the largest float
            return draw(st.sampled_from([real(2), f"({reads()} * 1.0e308)"]))
        if kind == "int":
            return draw(st.sampled_from(of("int") + ["-2", "0", "5", "1"]))
        return boolean(1)

    decls, inits = [], []
    for name, kind in fields.items():
        domain = draw(st.sampled_from(DOMAINS[kind]))
        in_ = f" in {domain}" if kind != "bool" else f" {domain}"
        decls.append(f"{name}: {kind}{in_.rstrip()};")
        inits.append(f"{name} = {INITS[kind]};")
    laws = []
    for i in range(draw(st.integers(1, 4))):
        targets = draw(st.lists(st.sampled_from(names), unique=True,
                                max_size=len(names)))
        body = " ".join(f"{t} = {value(fields[t])};" for t in targets)
        laws.append(f"law L{i} {{ when {boolean(2)}; then {{ {body} }} }}")
    halt = draw(st.one_of(st.none(), st.builds(lambda: boolean(1))))
    return "\n".join([
        "model generated {",
        f"  state {{ {' '.join(decls)} }}",
        f"  init {{ {' '.join(inits)} }}",
        *([f"  halt when {halt};"] if halt else []),
        *(f"  {law}" for law in laws), "}"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(source=column_models(), seed=st.integers(0, 2**31),
       count=st.sampled_from([1, 7, 300]))
def test_generated_models_report_as_the_per_state_path(source, seed, count):
    assert_same_reports(source, count, seed)
    assert_columns_match_the_per_state_functions(load_model(source), 64)


# out-states that halt where no guard holds, and in-states that halt where
# guards overlap: neither closes a verdict, so neither is checked per state
@pytest.mark.parametrize("source", [
    "model m { state { x: real in [0.0, 1.0]; } init { x = 0.0; } "
    "halt when x > 1.5; law Jump { when x < 1.0; then { x = 2.0; } } }",
    "model m { state { x: real in [0.0, 1.0]; } init { x = 0.0; } "
    "halt when x > 0.5; law A { when x > 0.25; then { x = 0.0; } } "
    "law B { when x > 0.75; then { x = 0.0; } } }",
], ids=["halting out-states", "halting overlaps"])
def test_halting_states_are_counted_in_columns(source):
    assert_same_reports(source, 1500, 2)


# --- the fixtures it covers -------------------------------------------------------------


def _covered():
    paths = sorted(FIXTURES.glob("*.cml")) + [QUADRANTS]
    return [p for p in paths
            if load_model(p.read_text(encoding="utf-8")).columns is not None]


COVERED = _covered()


def test_the_column_pass_covers_these_fixtures():
    assert [p.name for p in COVERED] == [
        "escaping.cml", "fractional_int_bounds.cml", "guard_true.cml",
        "negative_zero.cml",
        "no_valid_state.cml", "overflow_write.cml", "overlap.cml",
        "partition.cml", "rare_overlap.cml", "swap.cml", "toggling_halt.cml",
        "quadrants.cml"]


@pytest.mark.parametrize("path", COVERED, ids=lambda p: p.name)
def test_covered_fixtures_report_as_the_per_state_path(path):
    source = path.read_text(encoding="utf-8")
    for count, seed in ((1, 0), (1500, 1), (5000, 3)):
        assert_same_reports(source, count, seed)
    assert_columns_match_the_per_state_functions(load_model(source), 300)


# --- what it does not cover ----------------------------------------------------------------


def _model(state: str, body: str, guard: str = "x < 0.5") -> str:
    return (f"model m {{ state {{ {state} }} init {{ }} "
            f"law L {{ when {guard}; then {{ {body} }} }} }}")


@pytest.mark.parametrize("source", [
    _model("x: real in [-1.0, 1.0];", "x = sqrt(x + 2.0);"),      # a call
    _model("x: real in [-1.0, 1.0];", "x = x / 2.0;"),            # may fail
    _model("n: int in [0, 3];", "n = n + 1;", "n < 2"),           # int +
    _model("n: int in [0, 3];", "n = -n;", "n < 2"),              # int -
    _model("x: real in [-1.0, 1.0];", "x = x ^ 2.0;"),            # power
    _model("x: real in [-1.0, 1.0];", "if x < 0.0 { x = 1.0; }"),
    _model("x: real in [-1.0, 1.0];", "let y = x; x = y;"),
    _model("x: real in [-1.0, 1.0];", "x = 1.0; x = 2.0;"),      # twice
    _model("x: real in [-1.0, 1.0];",
           "x = random([0.0, 1.0], FLAT);"),                      # a draw
    _model("x: real in [-1.0, 1.0]; z: complex in {1.0, 2.0};", "x = 0.0;"),
    _model("x: real in [-1.0, 1.0]; v: vector(2) in [0.0, 1.0];",
           "x = v[0];"),
    _model("x: real;", "x = 0.0;"),                               # no domain
    _model("n: int in [0, 1152921504606846976];", "n = 1;", "n < 2"),
    _model("x: real in [-1.0, 1.0];", "x = 0.0;", "x < 9007199254740993"),
], ids=["call", "divide", "int add", "int negate", "power", "if", "let",
        "twice", "draw", "complex field", "vector field", "no domain",
        "int domain past 2^53", "int constant past 2^53"])
def test_what_the_column_pass_leaves_per_state(source):
    model = load_model(source)
    assert model.columns is None
    assert "columns" not in model.source   # no command but analyze emits it


def test_a_complex_value_in_a_guard_leaves_the_model_per_state():
    # no field is complex, but a guard computes one from a constant
    source = ("model m { const c: complex = 1i; "
              "state { x: real in [-1.0, 1.0]; } init { x = 0.0; } "
              "law Pos { when x + c != c - 1.0 && x >= 0.0; "
              "then { x = x - 0.5; } } "
              "law Neg { when x < 0.25; then { x = x + 0.5; } } }")
    model = load_model(source)
    assert model.columns is None
    strategy = CheckStrategy("sample", count=300, seed=4)
    got = report_to_json(analyze(model, strategy))
    assert got["consistency"]["status"] == "fail"
    assert got == _oracle(model, strategy)


def test_the_column_function_is_emitted_once_and_kept():
    model = load_model(QUADRANTS.read_text(encoding="utf-8"))
    assert "columns" not in vars(model)
    analyze(model, CheckStrategy("sample", count=10))
    columns = vars(model)["columns"]
    analyze(model, CheckStrategy("sample", count=10, seed=1))
    assert model.columns is columns
