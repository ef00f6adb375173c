"""Generated code: record member writes, the int '^' rule, step-0
observables, the compile-once contract, the kept source, observable
lists with runs of one template, and the generated source of every
bundled model, fixture and benchmark observable list, pinned.

The pinned sources are digests in `fixtures/source_golden.json`. After
adding a model or a fixture, pin it with

    PYTHONPATH=src python tests/test_compiled.py

which records digests only for sources not yet in the fixture. Run it
before changing the program, so the new digests come from the
reference tree. After a change meant to alter some generated sources,
re-pin exactly those with

    PYTHONPATH=src python tests/test_compiled.py --repin KEY [KEY ...]

which refuses a key that names no generated source and leaves every
other digest as it is.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import linecache
import pickle
import re
import time
from collections import Counter

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
from causalkit import engine, intrinsics
from causalkit.bundled import build_bundled_model, list_bundled_models
from causalkit.cli import _compile_observables, main
from causalkit.analyzer import guard_disjunction_trivially_true
from causalkit.errors import EvalError
from causalkit.engine import Law, compile_observable
from causalkit.frontend import parse_expression
from causalkit.frontend.ast_nodes import Assign, Lit, Loc, Name, walk
from causalkit.frontend.lower import compile_model
from causalkit.frontend.typecheck import check_standalone_expr
from causalkit.state import TypeDesc, VRecord

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
        "ps": (_p(1, 0, 1), _p(2, 1, -0.5), _p(3, 2, 0.25)),
        "w": VRecord("W", {"p": _p(1, 0, 0), "n": 0}),
        "count": 0})
    for _ in range(2):
        s = apply_law(model, model.laws[0], s, 0.5, RngStream(0))
    ps = [p.fields for p in s.values["ps"]]
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
    assert typed(s.values["lr"]) == typed((1.0, 2.5))
    assert typed(s.values["lz"]) == typed((2 + 0j, 0.5j))
    s = apply_law(model, model.laws[0], s, 1.0, None)
    assert typed(s.values["lr"]) == typed((3.0, 2.5))


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


@pytest.mark.parametrize("init, rhs, op", [
    (3037000500, "n * n", "*"),
    (9223372036854775807, "n + 1", "+"),
    (-9223372036854775807, "n - 2", "-"),
])
def test_int_arithmetic_overflow_ends_the_run(init, rhs, op):
    model = _power_model(init, rhs)
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=5))
    assert trace.termination.kind == "eval-error"
    assert trace.termination.message \
        == f"law 'P': int '{op}' overflows int64 at 5:35"


def test_int_negation_follows_the_int64_rule():
    model = _power_model("0 - 9223372036854775807", "-n")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=3))
    assert trace.termination.kind == "max-steps"
    assert typed(trace.final_state.values["n"]) == typed(2 ** 63 - 1)
    # the least int64 has no negation in int64
    model = _power_model("0 - 9223372036854775807 - 1", "-n")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=3))
    assert trace.termination.kind == "eval-error"
    assert trace.termination.message \
        == "law 'P': int '-' overflows int64 at 5:33"


def test_int_power_in_range():
    model = _power_model(-2, "n ^ 63")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=1))
    assert trace.termination.kind == "max-steps"
    assert typed(trace.final_state.values["n"]) == typed(-2 ** 63)
    model = _power_model(-1, "n ^ 1000000001")
    s = build_initial_state(model)
    s = apply_law(model, model.laws[0], s, 1.0, None)
    assert typed(s.values["n"]) == typed(-1)


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


def test_int_overflow_before_a_mixed_operation_cli(tmp_path):
    # an int past int64 stops the run before `n + 0.5` can overflow a float
    path = tmp_path / "grow.cml"
    path.write_text("model grow { state { n: int; x: real; }\n"
                    "init { n = 3; x = 0.0; }\n"
                    "law Sq { when true; then { n = n * n; x = n + 0.5; } } }")
    code, out, err = _cml(["run", str(path), "--steps", "12",
                           "--observables", "n"])
    assert code == 1
    assert out.splitlines()[-1] == "5,5,1853020188851841"
    assert err == ("terminated: eval-error: law 'Sq': int '*' overflows "
                   "int64 at 3:34\n")


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
    ("int", "9223372036854775807 + 1", "", "bad-constant",
     "initializer of constant 'c': int '+' overflows int64", (2, 38)),
    ("int", "-(0 - 9223372036854775807 - 1)", "", "bad-constant",
     "initializer of constant 'c': int '-' overflows int64", (2, 18)),
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
], ids=["complex-power", "real-power", "divide-by-zero", "int-plus-overflow",
        "int-negate-overflow", "int-eq-bool",
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


# --- compile once, no tree walker or closures -----------------------------------


def test_the_tree_walker_is_gone():
    for name in ("eval_expr", "_eval_binary", "_eval_index", "_eval_call",
                 "_eval_random", "build_random_spec", "_exec_block",
                 "_resolve_target", "RandomSpec", "sample_random",
                 "_random_spec", "_COMPILERS", "_STATEMENTS", "_Const",
                 "Env", "_Scope", "_compile", "_compile_transition"):
        assert not hasattr(engine, name), name


def test_generated_source_is_kept_and_shown_in_tracebacks():
    import gc
    import linecache
    import traceback
    import weakref

    model = load_model(POWER.format(init=2, rhs="n ^ (0 - 1)"))
    assert "def select_strict(s):" in model.source
    apply = model.transitions[0]
    filename = apply.__code__.co_filename
    assert linecache.getlines(filename) == model.source.splitlines(True)
    # a statement's lines carry its CML line:col; the failing one shows
    assert any(line.endswith("  # 5:29") and " = _f" in line
               for line in model.source.splitlines())
    with pytest.raises(EvalError) as exc:
        apply_law(model, model.laws[0], build_initial_state(model), 1.0, None)
    text = "".join(traceback.format_exception(exc.value))
    assert filename in text and "  # 5:29" in text
    # nothing generated refers back to the model: dropping it frees it at
    # once, without waiting for the cycle collector, and its source with it
    gc.disable()
    try:
        ref = weakref.ref(model)
        del apply, exc
        assert filename in linecache.cache
        del model
        assert ref() is None
        assert filename not in linecache.cache
    finally:
        gc.enable()


QUADRANTS = FIXTURES.parent.parent / "cmlbench" / "models" / "quadrants.cml"


def _compiled(monkeypatch) -> Counter:
    """What engine compiles from now on, counted by the first word of
    each module's label: init, step, guard, columns or observables."""
    counts = Counter()
    compile_ = engine._exec

    def counting(source, ns, what, *args):
        counts[what.split()[0]] += 1
        return compile_(source, ns, what, *args)
    monkeypatch.setattr(engine, "_exec", counting)
    return counts


@pytest.mark.parametrize("argv, compiled", [
    # the sample strategy checks quadrants' states in columns only
    (["analyze", str(QUADRANTS), "--strategy", "sample", "--samples", "1500"],
     {"init": 1, "columns": 1}),
    (["analyze", str(QUADRANTS), "--strategy", "trace", "--runs", "15"],
     {"init": 1, "step": 1}),
    (["run", "builtin:harmonic_oscillator", "--steps", "2000",
      "--observables", "x"], {"init": 1, "step": 1, "observables": 1}),
])
def test_a_command_compiles_what_it_runs_once(monkeypatch, argv, compiled):
    counts = _compiled(monkeypatch)
    code, out, err = _cml(argv)
    assert (code, err) == (0, "")
    assert counts == compiled


def test_a_lone_guard_is_compiled_on_its_first_evaluation(monkeypatch):
    model = load_model(QUADRANTS.read_text(encoding="utf-8"))
    s = build_initial_state(model)
    counts = _compiled(monkeypatch)
    law = model.laws[1]
    assert not engine.eval_guard(model, law, s)
    assert not engine.eval_guard(model, law, s)
    # the guard's line is written with the step code, then compiled alone
    assert counts == {"step": 1, "guard": 1}
    engine.eval_guard(model, model.laws[0], s)
    assert counts == {"step": 1, "guard": 2}


def test_a_model_compiles_its_step_code_on_first_use_and_frees_it():
    import gc
    import weakref

    model = load_model(QUADRANTS.read_text(encoding="utf-8"))
    s = build_initial_state(model)
    assert "fns" not in vars(model.code)   # not compiled yet
    assert apply_law(model, model.laws[0], s, 1.0, None).values["x"] == 0.125
    assert engine.eval_guard(model, model.laws[0], s)
    filenames = {fn.__code__.co_filename
                 for fn in (model.transitions[0], model.code.guard(0))}
    assert all(name in linecache.cache for name in filenames)
    gc.disable()
    try:
        ref = weakref.ref(model)
        del model
        assert ref() is None
        assert not any(name in linecache.cache for name in filenames)
    finally:
        gc.enable()


def test_a_model_keeps_the_laws_it_is_given():
    a = load_model(QUADRANTS.read_text(encoding="utf-8"))
    laws = tuple(Law(law.name, law.guard, law.transition) for law in a.laws)
    b = engine.CausalModel("b", a.schema, laws, a.init, a.halt)
    assert all(own is law for own, law in zip(b.laws, laws))
    assert [law.uses_random for law in b.laws] == [False] * len(laws)


def test_a_law_of_another_model_is_refused():
    a = load_model(QUADRANTS.read_text(encoding="utf-8"))
    b = load_model(POWER.format(init=2, rhs="n + 1"))
    s = build_initial_state(a)
    # a hand-built law equal to the model's is its law, and so is a
    # pickled copy: a law holds no compiled code
    for law in (Law(a.laws[0].name, a.laws[0].guard, a.laws[0].transition),
                pickle.loads(pickle.dumps(a.laws[0]))):
        assert law is not a.laws[0] and engine.eval_guard(a, law, s)
        assert apply_law(a, law, s, 1.0, None).values["x"] == 0.125
    message = f"^law '{b.laws[0].name}' is not a law of model 'quadrants'$"
    with pytest.raises(ValueError, match=message):
        engine.eval_guard(a, b.laws[0], s)
    with pytest.raises(ValueError, match=message):
        apply_law(a, b.laws[0], s, 1.0, None)
    # a law of the model's name that differs from it is refused too
    other = Law(a.laws[0].name, a.laws[1].guard, a.laws[0].transition)
    with pytest.raises(ValueError, match="is not a law of model"):
        apply_law(a, other, s, 1.0, None)


def test_models_sharing_laws_keep_their_own_code():
    import dataclasses
    import gc
    import linecache

    a = load_model("model m { const k: int = 1; state { n: int; } "
                   "init { n = 0; } law L { when n < k + 1; then { "
                   "n = n + k; } } }")
    td, _ = a.schema.constants["k"]
    b = dataclasses.replace(a, schema=dataclasses.replace(
        a.schema, constants={"k": (td, 2)}))
    c = engine.CausalModel("c", a.schema, a.laws)
    s = build_initial_state(a)
    for model, n in ((a, 1), (b, 2), (c, 1)):
        assert engine.step(model, s, 1.0, None).values["n"] == n
        assert apply_law(model, a.laws[0], s, 1.0, None).values["n"] == n
        assert engine.eval_guard(model, model.laws[0], s)
    assert c.laws[0] is a.laws[0]
    assert b.laws[0] is not a.laws[0] and b.laws[0] == a.laws[0]
    # a's code and source outlive the models built on its laws
    filename = a.transitions[0].__code__.co_filename
    del b, c
    gc.collect()
    assert apply_law(a, a.laws[0], s, 1.0, None).values["n"] == 1
    assert linecache.getlines(filename) == a.source.splitlines(True)


def with_constant(model, name: str, value):
    """``model`` rebuilt on a copy of its schema that gives constant
    ``name`` the payload ``value``."""
    td, _ = model.schema.constants[name]
    return dataclasses.replace(model, schema=dataclasses.replace(
        model.schema, constants={**model.schema.constants,
                                 name: (td, value)}))


def test_a_model_on_other_constants_folds_its_own_everywhere():
    a = load_model("model m { const k: int = 1; state { n: int; } "
                   "init { n = k; } halt when n >= 3 * k + 1; "
                   "law L { when k > 0; then { let j = k + 1; "
                   "if j > 2 { n = n + j; } else { n = n + 1; } } } }")
    b = with_constant(a, "k", 2)
    # init, halt, the let and the if all read b's k: 2, 5, 8, halted
    s = build_initial_state(b)
    assert s.values["n"] == 2 and not engine.halts(b, s)
    s = engine.step(b, s, 1.0, None)
    assert s.values["n"] == 5 and not engine.halts(b, s)
    s = engine.step(b, s, 1.0, None)
    assert s.values["n"] == 8 and engine.halts(b, s)
    # b typed copies of a's parts; a keeps its own folds and code
    assert b.laws[0] == a.laws[0] and b.laws[0].guard is not a.laws[0].guard
    assert b.init == a.init and b.init[0][1] is not a.init[0][1]
    assert b.halt == a.halt and b.halt is not a.halt
    s = build_initial_state(a)
    assert s.values["n"] == 1
    assert engine.step(a, s, 1.0, None).values["n"] == 2
    # a model on its laws' own constants shares their nodes
    c = engine.CausalModel("c", a.schema, a.laws, a.init, a.halt)
    assert c.laws[0].guard is a.laws[0].guard and c.halt is a.halt


def test_a_guard_on_other_constants_is_judged_on_them():
    a = load_model("model m { const k: int = 1; state { n: int; } "
                   "init { n = 0; } law L { when k > 1; then { n = 1; } } }")
    assert not guard_disjunction_trivially_true(a)
    assert guard_disjunction_trivially_true(with_constant(a, "k", 2))


@pytest.mark.parametrize("law, init, k, message", [
    # in a statement, and in an expression typed alone
    ("v = fill(k, 1.0);", "fill(2, 0.0)", 3,
     r"assignment: expected vector\(2\), got vector\(3\) at 1:"),
    ("v = v;", "fill(k, 0.0)", 0,
     r"fill: n must be an int constant >= 1 at 1:"),
])
def test_a_type_rule_broken_by_other_constants_is_refused(law, init, k,
                                                          message):
    a = load_model("model m { const k: int = 2; state { v: vector(2); } "
                   f"init {{ v = {init}; }} law L {{ when true; then {{ "
                   f"{law} }} }} }}")
    with pytest.raises(ValueError, match="^" + message):
        with_constant(a, "k", k)


def test_a_node_never_typed_emits_as_it_stands():
    # a hand-built literal guard is constant, a constant's name reads the
    # schema's payload (not dt, the one other name)
    a = load_model("model m { const k: int = 5; state { n: int; } "
                   "init { n = 0; } law L { when n < 1; then { n = 1; } } }")
    loc, td = Loc(1, 1), a.schema.fields["n"]
    law = Law("H", Lit(loc, ty=TypeDesc.bool_(), value=True, kind="bool"),
              [Assign(loc, Name(loc, ty=td, id="n"),
                      Name(loc, ty=td, id="k"))])
    model = engine.CausalModel("h", a.schema, (law,))
    assert guard_disjunction_trivially_true(model)
    s = build_initial_state(a)
    assert apply_law(model, model.laws[0], s, None, None).values["n"] == 5


def test_each_node_is_emitted_at_most_once_at_first_use(monkeypatch):
    calls = []
    emit = engine._Emitter.expr

    def counting(emitter, e):
        calls.append(id(e))
        return emit(emitter, e)

    monkeypatch.setattr(engine._Emitter, "expr", counting)
    model = load_model((FIXTURES / "language.cml").read_text())
    # building the model emits its init block only
    assert calls and set(calls) <= {id(node) for node in walk(
        [e for _, e in model.init])}
    n = len(calls)
    s = build_initial_state(model)
    for law in model.laws:
        engine.eval_guard(model, law, s)
    # the first guard emitted the step code: the guards, the transitions
    # and the halt condition, each node once
    step = {id(node) for node in walk([[law.guard, law.transition]
                                       for law in model.laws] + [model.halt])}
    assert {id(law.guard) for law in model.laws} <= set(calls[n:]) <= step
    assert len(calls) == len(set(calls))
    n = len(calls)
    for law in model.laws:
        engine.eval_guard(model, law, s)
    s = apply_law(model, model.law("Even"), s, 1.0, RngStream(0))
    engine.select_law(model, s, "first-match")
    engine.halts(model, s)
    assert len(calls) == n


def test_loops_nested_deeper_than_python_allows_in_one_function():
    # Python refuses more than 20 nested loops and trys in one function;
    # the generated transition moves the deeper loop bodies into functions
    n = 30
    loops = "".join(f"for q{i} in li {{ " for i in range(n))
    model = load_model(
        "model m { state { x: real; li: list(int); } "
        "init { x = 0.0; li = [3]; } law L { when true; then { "
        f"{loops} x = x + 1.0; q{n - 1} = q0 * 10 + q{n - 1}; "
        + "} " * n + "} } }")
    s = build_initial_state(model)
    s = apply_law(model, model.laws[0], s, 1.0, None)
    assert typed(s.values["x"]) == typed(1.0)
    assert typed(s.values["li"]) == typed((33,))


# --- observable lists: one loop per run of one template -----------------------------


def _labelled(model, texts) -> list:
    out = []
    for text in texts:
        expr, _ = parse_expression(text)
        assert check_standalone_expr(expr, model.schema)[0] is not None
        out.append((text, expr))
    return out


def _compiles(monkeypatch) -> list:
    """The sources engine compiles from now on."""
    sources = []

    def counting(source, *args):
        sources.append(source)
        return compile(source, *args)
    monkeypatch.setattr(engine, "compile", counting, raising=False)
    return sources


def _values(observe, state):
    """(the typed values) or the EvalError's text."""
    try:
        return [typed(x) for x in observe(state)]
    except EvalError as exc:
        return str(exc)


# each list, on the initial state of builtins.cml, as (texts, whether one
# run of it is a loop); each value or error is that of the observable
# compiled alone, the first to fail in list order is the one reported
RUN_LISTS = [
    ([f"li[{i}]" for i in range(4)], True),        # out of range at 1:3
    (["g[0]", "g[7]", "g[8]", "g[9]"], True),
    # lr[1] is non-finite at its own 1:20, and lr[9] would raise
    ([f"lr[{a} - {b}] * 1e308 * 3.0"
      for a, b in ((2, 2), (10, 9), (20, 18), (90, 81))], True),
    (["k + 1", "k + 2", "k - 3", "k * 4", "k ^ 2", "k ^ 70"], True),
    (["r / 1", "r / 2", "r / 0", "r / 4"], True),
    (["-1 * k", "-20 * k", "k", "k", "k"], True),
    (["abs2(z)", "re(z)", "im(z)", "conj(z)"], True),
    (["sum(fill(3, 1.0))", "sum(fill(4, 1.0))", "complex(k, 1)",
      "complex(k, 25)", "len(li) + 1", "len(li) + 10"], True),
    (["v[0]", "re(g[1])", "v[2]", "abs2(g[3])", "v[3]"], False),
    (["r", "k", "z", "n"], False),
]


@pytest.mark.parametrize("texts, loops", RUN_LISTS)
def test_a_run_gives_the_values_and_errors_of_its_observables(texts, loops):
    model = load_model((FIXTURES / "builtins.cml").read_text())
    state = build_initial_state(model)
    labelled = _labelled(model, texts)
    expected = []
    for _, e in labelled:
        value = _values(lambda s: (compile_observable(e, model.schema)(s),),
                        state)
        if isinstance(value, str):
            expected = value
            break
        expected += value
    observables = engine.compile_observables(labelled, model.schema)
    assert ("for (" in observables.source) == loops
    assert _values(observables.row, state) == expected


@pytest.mark.parametrize("cells", [8, 64, 512])
def test_a_run_is_compiled_once_whatever_its_length(monkeypatch, cells):
    model, state = build_bundled_model("schrodinger_1d", {})
    labelled = _labelled(model, [f"psi[{i}]" for i in range(cells)])
    sources = _compiles(monkeypatch)
    observables = engine.compile_observables(labelled, model.schema)
    assert len(sources) == 1
    assert observables.row(state) == tuple(
        complex(a) for a in state.values["psi"].amps[:cells])


@pytest.mark.parametrize("texts, parts", [
    ("x,v,0.5*v*v+0.5*x*x".split(","), 1),
    ([f"x + {i}.5" for i in range(130)], 3),   # 64 observables a part
])
def test_a_list_of_distinct_shapes_is_straight_line_code(monkeypatch, texts,
                                                         parts):
    model, state = build_bundled_model("harmonic_oscillator", {})
    sources = _compiles(monkeypatch)
    observables = engine.compile_observables(_labelled(model, texts),
                                             model.schema)
    assert len(sources) == parts
    assert "for " not in observables.source
    assert observables.source.count("  # 1:") == len(texts)


# --- draws: one sampler per form ----------------------------------------------------


@pytest.mark.parametrize("draw, prepared", [
    ("random({-1, 1}, FLAT)", 1),           # constant: prepared once
    ("random({-1, x}, FLAT)", 20),          # reads the state: every draw
])
def test_a_constant_draw_is_prepared_once(monkeypatch, draw, prepared):
    calls = []
    flat_set = intrinsics.DRAWS["FLAT", "set"]

    def counting(params, values, loc):
        calls.append(values)
        return flat_set.build(params, values, loc)

    monkeypatch.setitem(intrinsics.DRAWS, ("FLAT", "set"),
                        dataclasses.replace(flat_set, build=counting))
    model = load_model("model w { state { x: int; } init { x = 0; } "
                       f"law S {{ when true; then {{ x = x + {draw}; }} }} }}")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=20))
    assert trace.termination.kind == "max-steps"
    assert len(calls) == prepared


def test_an_invalid_constant_draw_fails_only_when_it_runs():
    model = load_model(
        "model m { state { n: int; } init { n = 0; } "
        "law A { when n == 0; then { n = 1; } } "
        "law B { when n == 1; then { n = random({0, 1}, WEIGHTS(0, 0)); } } }")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=3, record_every=1,
                          observables=(("n", lambda s: s.values["n"]),)))
    assert [row.values for row in trace.rows] == [(0,), (1,)]
    assert trace.termination.message == \
        "law 'B': random: weights sum to zero at 1:116"
    # (an empty constant range is not left to the draw: it is a bad-random
    # diagnostic, see tests/test_frontend.py)
    model = load_model(
        "model m { state { x: real; n: int; } init { x = 0.0; n = 0; } "
        "law A { when n == 0; then { n = 1; } } "
        "law B { when n == 1; then { x = random([0.0, 1.0], GAUSS(0, 0)); } } }")
    trace = run(model, build_initial_state(model),
                RunConfig(dt=1.0, max_steps=3, record_every=1,
                          observables=(("n", lambda s: s.values["n"]),)))
    assert [row.values for row in trace.rows] == [(0,), (1,)]
    assert trace.termination.message == \
        "law 'B': random: GAUSS sigma must be > 0 at 1:134"


# --- the generated source, pinned ---------------------------------------------------

SOURCE_GOLDEN = FIXTURES / "source_golden.json"
# a name the emitter makes: a bound object (_k3, _at1, ...), a local or a
# loop variable (t7, o2, l5, ...) or a template's hole (h0)
_GENERATED = re.compile(r"\b(_put|_at|_[a-z]|[a-z])(\d+)\b")
# pin name -> (model, observable list): the lists of the benchmark's
# `trajectories` and `wavepacket` commands, and a run whose observables
# differ in an int promoted to real
OBSERVABLES = {
    "builtin:harmonic_oscillator observables": (
        "harmonic_oscillator", "x,v,0.5*v*v+0.5*x*x"),
    "builtin:qftca_toy observables": (
        "qftca_toy", "world.particles[0].vel + world.particles[1].vel"),
    "builtin:schrodinger_1d observables": (
        "schrodinger_1d", ",".join(f"psi[{i}]" for i in range(512))),
    "builtin:harmonic_oscillator promoted int items": (
        "harmonic_oscillator", "sum([x, 1]),sum([x, 2]),sum([x, 3])"),
}


def _renumbered(source: str) -> str:
    """``source`` with each generated name numbered by its first
    appearance among the names of its prefix, so that a change in how
    many names are made before it leaves the text alone."""
    seen: dict = {}   # prefix -> {name: its new name}

    def renamed(m):
        names = seen.setdefault(m.group(1), {})
        return names.setdefault(m.group(0), f"{m.group(1)}{len(names)}")
    return _GENERATED.sub(renamed, source)


def _model_source(model) -> str:
    """The source a model generates: its step code's, then its init
    block's."""
    init = model.init_fn.__code__.co_filename
    return model.source + "".join(linecache.getlines(init))


def _generated_sources() -> dict:
    """Pin name -> the generated source it names, renumbered."""
    sources = {}
    for name in list_bundled_models():
        for params in ([{"detector": "off"}, {"detector": "on"}]
                       if name == "double_slit" else [{}]):
            model, _ = build_bundled_model(name, params)
            label = "".join(f" {k}={v}" for k, v in params.items())
            sources[f"builtin:{name}{label}"] = _model_source(model)
    for path in sorted(FIXTURES.glob("*.cml")):
        model, _ = compile_model(path.read_text(encoding="utf-8"))
        if model is not None:
            sources[f"tests/fixtures/{path.name}"] = _model_source(model)
    for label, (name, spec) in OBSERVABLES.items():
        model, _ = build_bundled_model(name, {})
        observables, _ = _compile_observables(spec, model.schema)
        sources[label] = observables.source
    model = load_model(QUADRANTS.read_text(encoding="utf-8"))
    conditions = model.columns.args[0]
    sources["cmlbench/models/quadrants.cml columns"] = "".join(
        linecache.getlines(conditions.__code__.co_filename))
    return {k: _renumbered(v) for k, v in sources.items()}


def _digests() -> dict:
    return {k: hashlib.sha256(v.encode("utf-8")).hexdigest()
            for k, v in _generated_sources().items()}


def test_every_generated_source_matches_its_pinned_digest():
    pinned = json.loads(SOURCE_GOLDEN.read_text(encoding="utf-8"))
    assert _digests() == pinned


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="Pin the digests of generated sources not yet pinned.")
    parser.add_argument("--repin", nargs="+", default=[], metavar="KEY",
                        help="also pin these keys again")
    args = parser.parse_args()
    digests = _digests()
    unknown = [k for k in args.repin if k not in digests]
    if unknown:
        parser.error(f"no generated source is named {', '.join(unknown)}")
    records = json.loads(SOURCE_GOLDEN.read_text(encoding="utf-8")) \
        if SOURCE_GOLDEN.exists() else {}
    added = {k: v for k, v in digests.items() if k not in records}
    repinned = {k: digests[k] for k in args.repin if k in records}
    records.update(added)
    records.update(repinned)
    SOURCE_GOLDEN.write_text(json.dumps(records, indent=2, sort_keys=True)
                             + "\n", encoding="utf-8")
    print(f"{len(added)} added, {len(repinned)} re-pinned, "
          f"{len(records) - len(added) - len(repinned)} kept in "
          f"{SOURCE_GOLDEN}")
