"""Differential test of expression evaluation against a frozen reference.

``fixtures/expr_golden.json`` holds seeded, randomly generated well-typed
expressions over the int, real, bool and complex fields and constants of
``MODEL``, each with what the tree-walking evaluator that preceded the
closure compiler produced on the model's initial state: the
``format_scalar`` text of the value, or the message and ``line:col`` of the
evaluation error. The test replays every expression through the compiler.

``generate`` is the generator the fixture was made from. Integer '^' is
generated only with a leaf base and a literal exponent 0..3, so that
every recorded result lies in the range the int '^' rule allows.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from causalkit import build_initial_state, load_model
from causalkit.engine import compile_observable
from causalkit.errors import EvalError
from causalkit.frontend import parse_expression
from causalkit.frontend.typecheck import check_standalone_expr
from causalkit.interpreter import format_scalar

FIXTURE = Path(__file__).parent / "fixtures" / "expr_golden.json"

MODEL = """
model exprs {
  const ci: int = 3;
  const cr: real = 0.75;
  const cb: bool = true;
  const cz: complex = 1.5 + 0.5i;
  state {
    i1: int; i2: int; i3: int;
    r1: real; r2: real; r3: real; r4: real;
    b1: bool; b2: bool;
    z1: complex; z2: complex;
  }
  init {
    i1 = 7; i2 = 0; i3 = -2;
    r1 = 2.5; r2 = -1.25; r3 = 0.0; r4 = 1e300;
    b1 = true; b2 = false;
    z1 = complex(0.6, -0.8); z2 = 0.0i;
  }
  law Idle { when true; then { i1 = i1; } }
}
"""

_LEAVES = {
    "int": ("i1", "i2", "i3", "ci", "0", "1", "2", "5", "12"),
    "real": ("r1", "r2", "r3", "r4", "cr", "0.5", "2.0", "1e-3", "3.25"),
    "bool": ("b1", "b2", "cb", "true", "false"),
    "complex": ("z1", "z2", "cz", "0.5i", "2.0i"),
}


def _expr(rng: random.Random, kind: str, depth: int) -> str:
    """Text of a random expression of static type ``kind``."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(_LEAVES[kind])
    sub = lambda k: _expr(rng, k, depth - 1)  # noqa: E731
    if kind == "int":
        form = rng.randrange(4)
        if form == 0:
            return f"(-{sub('int')})"
        if form == 1:
            return f"({rng.choice(_LEAVES['int'])} ^ {rng.randrange(4)})"
        if form == 2:
            return f"abs({sub('int')})"
        return f"({sub('int')} {rng.choice('+-*')} {sub('int')})"
    if kind == "real":
        form = rng.randrange(6)
        a, b = rng.choice((("real", "real"), ("int", "real"),
                           ("real", "int")))
        if form == 0:
            return f"(-{sub('real')})"
        if form == 1:
            return f"({sub(a)} {rng.choice('+-*')} {sub(b)})"
        if form == 2:
            a, b = rng.choice((a, "int")), rng.choice((b, "int"))
            return f"({sub(a)} / {sub(b)})"
        if form == 3:
            return f"({sub(a)} ^ {sub(b)})"
        if form == 4:
            f = rng.choice(("sqrt", "exp", "cos", "sin", "abs"))
            return f"{f}({sub(rng.choice(('int', 'real')))})"
        f = rng.choice(("abs", "abs2", "re", "im"))
        return f"{f}({sub('complex')})"
    if kind == "complex":
        form = rng.randrange(5)
        a, b = rng.choice((("complex", "complex"), ("complex", "int"),
                           ("real", "complex")))
        if form == 0:
            return f"(-{sub('complex')})"
        if form == 1:
            return f"({sub(a)} {rng.choice('+-*/')} {sub(b)})"
        if form == 2:
            return f"conj({sub('complex')})"
        if form == 3:
            return f"exp({sub('complex')})"
        return f"complex({sub('real')}, {sub(rng.choice(('int', 'real')))})"
    form = rng.randrange(5)
    if form == 0:
        return f"(!{sub('bool')})"
    if form == 1:
        return f"({sub('bool')} {rng.choice(('&&', '||'))} {sub('bool')})"
    if form == 2:
        a, b = rng.choice(("int", "real")), rng.choice(("int", "real"))
        op = rng.choice(("<", "<=", ">", ">="))
        return f"({sub(a)} {op} {sub(b)})"
    if form == 3:
        return f"({sub('bool')} {rng.choice(('==', '!='))} {sub('bool')})"
    a, b = (rng.choice(("int", "real", "complex")) for _ in range(2))
    return f"({sub(a)} {rng.choice(('==', '!='))} {sub(b)})"


def generate(seed: int = 20261018, count: int = 360) -> list:
    rng = random.Random(seed)
    kinds = ("int", "real", "bool", "complex")
    return [_expr(rng, kinds[i % 4], 1 + i % 4) for i in range(count)]


def _typed(model, text):
    expr, diags = parse_expression(text)
    assert expr is not None, diags
    td, diags = check_standalone_expr(expr, model.schema)
    assert td is not None, (text, diags)
    return expr


def outcome(evaluate, text: str) -> dict:
    """What evaluating ``text`` gives, in the fixture's form."""
    try:
        return {"expr": text, "out": format_scalar(evaluate(text))}
    except EvalError as exc:
        return {"expr": text, "error": exc.message, "loc": str(exc.loc)}


def _cases():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_is_the_generated_set():
    cases = _cases()
    assert len(cases) >= 300
    assert [c["expr"] for c in cases] == generate()
    # the set reaches values and errors of every kind
    assert sum("error" in c for c in cases) >= 10
    assert {"true", "false"} <= {c.get("out") for c in cases}


def test_compiled_expressions_match_the_reference():
    model = load_model(MODEL)
    state = build_initial_state(model)

    def evaluate(text):
        return compile_observable(_typed(model, text), model.schema)(state)

    mismatches = [(case, got) for case in _cases()
                  if (got := outcome(evaluate, case["expr"])) != case]
    assert not mismatches, mismatches[:5]

