"""Scalar values are plain payloads whose Python type is their declared
kind's, and a write of a non-finite real or complex ends the run."""

from __future__ import annotations

import json

import pytest

from causalkit import (
    CmlError,
    ContinuousRandomError,
    MissingFieldError,
    RngStream,
    RunConfig,
    VList,
    VRecord,
    branch_run,
    build_bundled_model,
    build_initial_state,
    list_bundled_models,
    load_model,
    make_initial_state,
    run,
    run_ensemble,
    sample_state,
)
from causalkit.analyzer import unsampleable_fields
from causalkit.cli import main
from causalkit.engine import compile_observable
from causalkit.frontend.parser import parse_expression
from causalkit.frontend.typecheck import check_standalone_expr

from conftest import FIXTURES, fixture_source

# the exact Python type of each scalar kind (bool is a subclass of int,
# and numpy scalars subclass float and complex, so isinstance would pass
# values this must reject)
EXACT = {"int": int, "real": float, "bool": bool, "complex": complex}


def _assert_payloads(value, td, schema, where):
    if td.kind in EXACT:
        assert type(value) is EXACT[td.kind], (where, type(value), value)
    elif td.kind == "list":
        for i, item in enumerate(value.items):
            _assert_payloads(item, td.element, schema, f"{where}[{i}]")
    elif td.kind == "record":
        for name, ftd in schema.records[td.record]:
            _assert_payloads(value.fields[name], ftd, schema,
                             f"{where}.{name}")


def _assert_state(state):
    for name, td in state.schema.fields.items():
        _assert_payloads(state.values[name], td, state.schema, name)


def _loadable_fixtures():
    """Fixture models that load and build their own initial state."""
    out = []
    for path in sorted(FIXTURES.glob("*.cml")):
        try:
            model = load_model(fixture_source(path.name))
            out.append((path.name, model, build_initial_state(model)))
        except (CmlError, MissingFieldError):
            continue
    return out


def _models():
    bundled = [(name, *build_bundled_model(name))
               for name in list_bundled_models()]
    return bundled + _loadable_fixtures()


def test_every_state_holds_exact_payload_types():
    sampled = 0
    loaded = _models()
    for name, model, init in loaded:
        _assert_state(init)
        cfg = RunConfig(dt=model.default_timestep, max_steps=4,
                        record_every=1)
        trace = run(model, init, cfg)
        assert trace.termination.kind != "eval-error", name
        for row in trace.rows:
            _assert_state(row.snapshot)
        _assert_state(trace.final_state)
        try:
            tree = branch_run(model, init, cfg, depth_bound=4, width_bound=8)
        except ContinuousRandomError:
            pass
        else:
            for leaf in tree.leaves():
                _assert_state(leaf.snapshot)
        if not unsampleable_fields(model):
            _assert_state(sample_state(model.schema, RngStream(3)))
            sampled += 1
    assert len(loaded) >= 10 and sampled >= 5


def test_an_empty_list_sums_to_its_element_kind():
    model = load_model(
        "model m { state { l: list(real); x: real; } init { x = 1.0; } "
        "law L { when true; then { x = sum(l); } } }")
    state = make_initial_state(model.schema, {"l": VList([]), "x": 1.0})
    trace = run(model, state, RunConfig(dt=1.0, max_steps=1))
    x = trace.final_state.values["x"]
    assert type(x) is float and x == 0.0


# --- non-finite writes -------------------------------------------------------------

BLOWUP = """model blowup {
  state { x: real in [0, 1]; }
  init { x = 0.5; }
  law Grow {
    when true;
    then { x = x * 10.0; }
  }
}
"""

BLOWUP_MESSAGE = "law 'Grow': non-finite value inf written to 'x' at 6:12"

CANCEL = """model cancel {
  state { x: real; }
  init { x = 1e300; }
  law Square {
    when true;
    then { x = x*x - x*x; }
  }
}
"""


def test_overflow_ends_run_loudly():
    model = load_model(BLOWUP)
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=400))
    term = trace.termination
    assert (term.kind, term.message) == ("eval-error", BLOWUP_MESSAGE)
    # 10^308 is the last finite power of ten; the run stops at it
    assert trace.final_state.values["x"] == pytest.approx(5e307)


def test_overflow_ends_ensemble_trials_and_branches():
    model = load_model(BLOWUP)
    init = build_initial_state(model)
    cfg = RunConfig(dt=1.0, max_steps=400)
    results = list(run_ensemble(model, init, cfg, 3))
    assert [(t.kind, t.message) for t, _ in results] == \
        [("eval-error", BLOWUP_MESSAGE)] * 3
    tree = branch_run(model, init, cfg, depth_bound=4, width_bound=4)
    (leaf,) = tree.leaves()
    assert (leaf.termination.kind, leaf.termination.message) == \
        ("eval-error", BLOWUP_MESSAGE)


def test_overflow_exits_1_with_valid_jsonl(tmp_path, capsys):
    path = tmp_path / "blowup.cml"
    path.write_text(BLOWUP, encoding="utf-8")
    code = main(["run", str(path), "--steps", "400", "--format", "jsonl"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "eval-error" in err and "non-finite" in err
    for line in out.splitlines():   # strict JSON: no Infinity or NaN
        json.loads(line, parse_constant=lambda c: pytest.fail(c))


def test_nan_ends_run():
    model = load_model(CANCEL)
    term = run(model, build_initial_state(model),
               RunConfig(dt=1.0, max_steps=5)).termination
    assert term.kind == "eval-error"
    assert term.message == \
        "law 'Square': non-finite value nan written to 'x' at 6:12"


@pytest.mark.parametrize("decl, init, write, target", [
    ("v: vector(2);", "v = fill(2, 1.0);", "v[1] = v[1] * 1e308 * 10.0;",
     "v[1]"),
    ("l: list(real);", "l = [1.0, 2.0];", "l[0] = l[0] * 1e308 * 10.0;",
     "l[0]"),
    ("g: cgrid(2, 1.0);", "g = gauss_packet(2, 1.0, 0.0, 1.0, 0.0);",
     "g[0] = complex(1e308 * 10.0, 0.0);", "g[0]"),
    ("z: complex;", "z = 0.5i;", "z = z * 1e308 * 1e308;", "z"),
    ("l: list(real);", "l = [1.0, 2.0];",
     "for e in l { e = e * 1e308 * 10.0; }", "e"),
])
def test_element_writes_are_checked(decl, init, write, target):
    model = load_model(f"model m {{ state {{ {decl} }} init {{ {init} }} "
                       f"law W {{ when true; then {{ {write} }} }} }}")
    term = run(model, build_initial_state(model),
               RunConfig(dt=1.0, max_steps=2)).termination
    assert term.kind == "eval-error"
    assert term.message.startswith("law 'W': non-finite value ")
    assert f" written to '{target}' at 1:" in term.message


def test_record_member_writes_are_checked():
    model = load_model(
        "model m { record R { a: real; } state { r: R; } init { } "
        "law W { when true; then { r.a = r.a * 1e308 * 10.0; } } }")
    s = make_initial_state(model.schema, {"r": VRecord("R", {"a": 1.0})})
    term = run(model, s, RunConfig(dt=1.0, max_steps=2)).termination
    assert term.kind == "eval-error"
    assert term.message == \
        "law 'W': non-finite value inf written to 'r.a' at 1:86"


# --- non-finite observables ---------------------------------------------------------

OVERFLOW_OBSERVABLE = ("non-finite value inf in observable "
                       "'((n * 1e+308) * 10.0)' at 1:8")


def test_non_finite_observable_ends_run_with_valid_jsonl(capsys):
    code = main(["run", "builtin:counter", "--observables", "n*1e308*10.0",
                 "--format", "jsonl", "--steps", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    lines = [json.loads(line, parse_constant=lambda c: pytest.fail(c))
             for line in out.splitlines()]
    assert [row["values"] for row in lines[:-1]] == \
        [{"n*1e308*10.0": 0.0}]
    assert lines[-1]["terminationReason"] == \
        {"kind": "eval-error", "message": OVERFLOW_OBSERVABLE}
    assert OVERFLOW_OBSERVABLE in err


def test_non_finite_observable_fails_histogram(capsys):
    code = main(["histogram", "builtin:counter", "--observables",
                 "n*1e308*10.0", "--trials", "5", "--steps", "2"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err == f"trial 0 terminated: eval-error: {OVERFLOW_OBSERVABLE}\n"


def test_non_finite_complex_observable_ends_run():
    model, init = build_bundled_model("counter")
    expr, _ = parse_expression("complex(0.0, n * 1e308 * 10.0)")
    check_standalone_expr(expr, model.schema)
    cfg = RunConfig(dt=1.0, max_steps=2, observables=(
        ("z", compile_observable(expr, model.schema)),))
    trace = run(model, init, cfg)
    assert [row.values for row in trace.rows] == [(0j,)]
    assert trace.termination.kind == "eval-error"
    assert trace.termination.message.startswith(
        "non-finite value infj in observable 'complex(")


# --- non-finite draw parameters -----------------------------------------------------

# one draw per form whose parameter or bound overflows, as a constant
# (folded when the model is built) or as an expression of the state
DRAWS = [
    ("random({0.0, big * 10.0}, FLAT)", "value inf"),
    ("random([0.0, big * 10.0], FLAT)", "hi inf"),
    ("random({0, 1}, WEIGHTS(big * 10.0, 1.0))", "weight inf"),
    ("random({0, 1}, PSI(big * 10.0, 1.0))", "amplitude inf"),
    ("random(GAUSS(0.0, big * 10.0))", "sigma inf"),
    ("random([-big * 10.0, 1.0], GAUSS(0.0, 1.0))", "lo -inf"),
]


def _draw_model(draw: str) -> str:
    """The draw feeds an ``if`` through a let, so no write checks it."""
    return ("model m {\n  const big: real = 1e308;\n"
            "  state { x: real; n: int in [0, 10]; }\n"
            "  init { x = 0.0; n = 0; }\n  halt when n >= 1;\n"
            "  law Draw { when n < 1; then {\n"
            f"    let r = {draw};\n"
            "    if r > 0 { x = 1.0; }\n    n = n + 1;\n  } }\n}\n")


@pytest.mark.parametrize("read", ["", "(x + 1.0) * "],
                         ids=["constant", "state"])
@pytest.mark.parametrize("draw, what", DRAWS, ids=[d[1] for d in DRAWS])
def test_non_finite_draw_parameter_ends_every_command(draw, what, read,
                                                      tmp_path, capsys):
    path = tmp_path / "m.cml"
    path.write_text(_draw_model(draw.replace("big", read + "big")),
                    encoding="utf-8")
    message = f"law 'Draw': random: non-finite {what} at 7:13"
    assert main(["run", str(path)]) == 1
    assert capsys.readouterr().err == f"terminated: eval-error: {message}\n"
    assert main(["histogram", str(path), "--observables", "x",
                 "--trials", "3"]) == 1
    assert capsys.readouterr() == \
        ("", f"trial 0 terminated: eval-error: {message}\n")
    assert main(["branch", str(path)]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["root"]["termination"] == {"kind": "eval-error",
                                           "message": message}


def test_empty_truncated_gauss_ends_branch(capsys, tmp_path):
    # the upper bound reads the state, so the range is checked as it draws
    path = tmp_path / "m.cml"
    path.write_text(_draw_model("random([1.0, x], GAUSS(0.0, 1.0))"),
                    encoding="utf-8")
    assert main(["branch", str(path)]) == 0
    tree = json.loads(capsys.readouterr().out)
    assert tree["root"]["termination"] == {
        "kind": "eval-error",
        "message": "law 'Draw': random: truncated GAUSS requires lo < hi, "
                   "got lo 1.0 and hi 0.0 at 7:13"}


@pytest.mark.parametrize("draw, message", [
    ("random({0, 1}, WEIGHTS(1e308, 1e308))", "weight sum inf"),
    ("random({0, 1}, PSI(1e200, 1.0))", "amplitude sum inf"),
    ("random([-1e308, 1e308], FLAT)", "interval width inf"),
    ("random(GAUSS(1.7e308, 1e308))", "draw inf"),   # z > 0 at seed 0
])
def test_finite_parameters_that_overflow_end_the_run(draw, message):
    model = load_model(_draw_model(draw))
    term = run(model, build_initial_state(model),
               RunConfig(dt=1.0, max_steps=1, seed=0)).termination
    assert (term.kind, term.message) == \
        ("eval-error", f"law 'Draw': random: non-finite {message} at 7:13")
