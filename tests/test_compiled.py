"""Compiled closures: record member writes, the int '^' rule, step-0
observables, and the compile-once contract."""

from __future__ import annotations

import contextlib
import io
import time

import pytest

from causalkit import (
    RngStream,
    RunConfig,
    apply_law,
    branch_run,
    build_initial_state,
    load_model,
    make_initial_state,
    run,
    run_ensemble,
)
from causalkit import engine
from causalkit.cli import main
from causalkit.engine import compile_observable
from causalkit.frontend import parse_expression
from causalkit.frontend.lower import compile_model
from causalkit.frontend.typecheck import check_standalone_expr
from causalkit.state import VList, VRecord

from conftest import FIXTURES, typed

RECORDS = """
model recs {
  record P { m: real; x: real; v: real; }
  record W { p: P; n: int; }
  state { ps: list(P, 3); w: W; count: int; }
  init { count = 0; }
  law Drift {
    when true;
    then {
      for p in ps { p.x = p.x + p.v * dt; }
      ps[1].v = ps[1].v * -1;
      w.n = w.n + 1;
      w.p.m = w.p.m + count;
      count = count + 1;
    }
  }
}
"""


def _p(m, x, v):
    return VRecord("P", {"m": float(m), "x": float(x), "v": float(v)})


def test_record_member_writes():
    model = load_model(RECORDS)
    s = make_initial_state(model.schema, {
        "ps": VList([_p(1, 0, 1), _p(2, 1, -0.5), _p(3, 2, 0.25)]),
        "w": VRecord("W", {"p": _p(1, 0, 0), "n": 0}),
        "count": 0})
    for _ in range(2):
        s = apply_law(model.laws[0], s, 0.5, RngStream(0))
    ps = [p.fields for p in s.values["ps"].items]
    assert [typed(p["x"]) for p in ps] == [typed(1.0), typed(1.0), typed(2.25)]
    assert typed(ps[1]["v"]) == typed(-0.5)
    w = s.values["w"].fields
    assert typed(w["n"]) == typed(2)
    assert typed(w["p"].fields["m"]) == typed(2.0)   # int promoted on write
    assert typed(s.values["count"]) == typed(2)


def test_list_literal_items_take_the_element_type():
    model = load_model(
        "model ml { state { lr: list(real); lz: list(complex); } "
        "init { lr = [1, 2.5]; lz = [2, 0.5i]; } "
        "law L { when true; then { lr = [3, lr[1]]; } } }")
    s = build_initial_state(model)
    assert typed(s.values["lr"]) == typed(VList([1.0, 2.5]))
    assert typed(s.values["lz"]) == typed(VList([2 + 0j, 0.5j]))
    s = apply_law(model.laws[0], s, 1.0, None)
    assert typed(s.values["lr"]) == typed(VList([3.0, 2.5]))


# --- the int '^' rule ------------------------------------------------------------

POWER = """
model pow {{
  state {{ n: int; }}
  init {{ n = {init}; }}
  law P {{ when true; then {{ n = {rhs}; }} }}
}}
"""


def _power_model(init, rhs):
    return load_model(POWER.format(init=init, rhs=rhs))


@pytest.mark.parametrize("init, rhs, message", [
    (2, "n ^ (0 - 1)", "int '^' needs a non-negative exponent"),
    (2, "n ^ 63", "int '^' overflows int64"),
    (7, "n ^ n", "int '^' overflows int64"),
])
def test_int_power_errors_end_the_run(init, rhs, message):
    model = _power_model(init, rhs)
    start = time.perf_counter()
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=5))
    assert time.perf_counter() - start < 5.0
    term = trace.termination
    assert term.kind == "eval-error"
    assert term.message == f"law 'P': {message} at 5:35"


def test_int_power_in_range():
    model = _power_model(-2, "n ^ 63")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=1))
    assert trace.termination.kind == "max-steps"
    assert typed(trace.final_state.values["n"]) == typed(-2 ** 63)
    model = _power_model(-1, "n ^ 1000000001")
    s = build_initial_state(model)
    assert typed(apply_law(model.laws[0], s, 1.0, None).values["n"]) == typed(-1)


def test_int_power_hang_case_is_bounded():
    model = _power_model(7, "n ^ n")
    start = time.perf_counter()
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=100))
    assert time.perf_counter() - start < 1.0
    # 7 ^ 7 fits; 823543 ^ 823543 is refused before it is computed
    assert typed(trace.final_state.values["n"]) == typed(7 ** 7)
    assert trace.termination.kind == "eval-error"


def test_int_power_errors_in_branch_and_ensemble():
    model = _power_model(2, "n ^ (0 - 1)")
    init = build_initial_state(model)
    cfg = RunConfig(dt=1.0, max_steps=5)
    tree = branch_run(model, init, cfg, depth_bound=4, width_bound=4)
    assert tree.root.termination.kind == "eval-error"
    assert "int '^'" in tree.root.termination.message
    (term, final), = run_ensemble(model, init, cfg, 1)
    assert term.kind == "eval-error"
    assert term.message == tree.root.termination.message


def _cml(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_int_power_cli(tmp_path):
    path = tmp_path / "pow.cml"
    path.write_text(POWER.format(init=2, rhs="n ^ (0 - 1)"))
    code, out, err = _cml(["run", str(path), "--observables", "n"])
    assert code == 1
    assert out == "step,time,n\n0,0,2\n"
    assert err == ("terminated: eval-error: law 'P': int '^' needs a "
                   "non-negative exponent at 5:35\n")
    # as an observable: an error, never a real in an int column
    code, out, err = _cml(["run", str(path), "--steps", "1",
                           "--observables", "n ^ (0 - 1)"])
    assert code == 1
    assert out == "step,time,n ^ (0 - 1)\n"
    assert "int '^' needs a non-negative exponent at 1:3" in err


CONST_POWER = """model c {{
  const c: {ty} = {value};
  state {{ x: int{domain}; }}
  init {{ x = 0; }}
  law L {{ when {guard}; then {{ x = c; }} }}
}}
"""


def _timed_compile(value, guard, ty="int", domain=""):
    start = time.perf_counter()
    model, diags = compile_model(CONST_POWER.format(
        value=value, guard=guard, ty=ty, domain=domain))
    assert time.perf_counter() - start < 1.0
    return model, [d for d in diags if d.severity == "error"]


def test_constant_folding_keeps_the_int_power_rule():
    model, errors = _timed_compile("7 ^ 7 ^ 7", "true")
    assert model is None
    (d,) = errors
    # the initializer's location: its outermost operator, the first '^'
    assert (d.code, d.loc.line, d.loc.col) == ("bad-constant", 2, 20)
    assert d.message == "initializer of constant 'c': int '^' overflows int64"
    model, errors = _timed_compile("0 - 2 ^ (0 - 1)", "true")
    assert "needs a non-negative exponent" in errors[0].message
    # a guard over constants is folded for a warning, then left to run time
    model, errors = _timed_compile("1", "9 ^ 9 ^ 9 > 0")
    assert model is not None and not errors
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=1))
    assert "int '^' overflows int64" in trace.termination.message
    model, errors = _timed_compile("2 ^ 62", "true")
    assert typed(model.schema.constants["c"][1]) == typed(2 ** 62)


NEGATIVE_POWER = ("initializer of constant 'c': power of a negative base "
                  "with fractional exponent")


@pytest.mark.parametrize("ty, value, domain, code, message, loc", [
    # folded with the compiler's operators, so with its errors
    ("complex", "(0.0 - 1.0) ^ 0.5", "", "bad-constant", NEGATIVE_POWER,
     (2, 34)),
    ("real", "(0.0 - 8.0) ^ (1.0 / 3.0)", "", "bad-constant", NEGATIVE_POWER,
     (2, 31)),
    ("real", "1.0 / 0", "", "bad-constant",
     "initializer of constant 'c': division by zero", (2, 23)),
    # typed like any other expression
    ("bool", "1 == true", "", "type-mismatch",
     "'==' needs numeric operands, got int and bool", (2, 21)),
    ("int", "1 + true", "", "type-mismatch",
     "'+' needs numeric operands, got int and bool", (2, 20)),
    ("int", "1", " in [0, 1 + true]", "type-mismatch",
     "'+' needs numeric operands, got int and bool", (3, 27)),
    # a constant expression sees no state fields
    ("int", "x + 1", "", "unknown-name", "unknown name 'x'", (2, 18)),
    ("int", "1", " in [0, x]", "unknown-name", "unknown name 'x'", (3, 25)),
], ids=["complex-power", "real-power", "divide-by-zero", "int-eq-bool",
        "int-plus-bool", "bound-int-plus-bool", "field-in-constant",
        "field-in-bound"])
def test_constant_expressions_are_typechecked(ty, value, domain, code,
                                              message, loc):
    model, errors = _timed_compile(value, "true", ty, domain)
    assert model is None
    (d,) = errors
    assert (d.code, d.message, (d.loc.line, d.loc.col)) == (code, message, loc)


# --- step-0 observables ------------------------------------------------------------


def test_step_zero_observable_error_is_a_termination():
    model = load_model((FIXTURES / "builtins.cml").read_text())
    expr, _ = parse_expression("sqrt(r)")
    assert check_standalone_expr(expr, model.schema)[0] is not None
    cfg = RunConfig(dt=1.0, max_steps=3,
                    observables=(("sqrt(r)",
                                  compile_observable(expr, model.schema)),))
    init = build_initial_state(model)
    trace = run(model, init, cfg)
    assert trace.rows == ()
    assert trace.termination.kind == "eval-error"
    assert trace.termination.message == "sqrt of a negative number at 1:1"
    assert trace.final_state is init
    code, out, err = _cml(["run", str(FIXTURES / "builtins.cml"),
                           "--observables", "sqrt(r)"])
    assert (code, out) == (1, "step,time,sqrt(r)\n")
    assert err == "terminated: eval-error: sqrt of a negative number at 1:1\n"


# --- compile once, no tree walker --------------------------------------------------


def test_the_tree_walker_is_gone():
    for name in ("eval_expr", "_eval_binary", "_eval_index", "_eval_call",
                 "_eval_random", "build_random_spec", "_exec_block",
                 "_resolve_target"):
        assert not hasattr(engine, name), name


def test_each_node_is_compiled_once(monkeypatch):
    calls = []
    compile_node = engine._compile

    def counting(e, scope):
        calls.append(id(e))
        return compile_node(e, scope)

    monkeypatch.setattr(engine, "_compile", counting)
    model = load_model((FIXTURES / "language.cml").read_text())
    assert calls and len(calls) == len(set(calls))
    n = len(calls)
    s = build_initial_state(model)
    for law in model.laws:
        engine.eval_guard(law, s)
    s = apply_law(model.law("Even"), s, 1.0, RngStream(0))
    engine.halts(model, s)
    assert len(calls) == n
