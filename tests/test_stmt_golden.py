"""Differential test of statement execution against frozen digests.

``fixtures/stmt_golden.json`` holds, for each of ``generate()``'s seeded
one-law models, the SHA-256 of what ``cml run --format jsonl`` and
``cml branch`` wrote (stdout, stderr and exit code) on the tree taken as
the reference. The laws combine ``if``/``else``, ``let``, ``for`` over a
list of records and over a list of ints, scalar writes, member and index
writes into a record, a list, a vector and a cgrid, int64 overflow,
non-finite writes, out-of-range indices, and draws inside an index and
inside a written value; their expressions come from
``test_expr_golden._expr``. Pin a new corpus, before changing the
program, with

    PYTHONPATH=src python tests/test_stmt_golden.py

which writes the fixture only if it does not exist yet. A deliberate
change of behaviour re-pins only the cases it alters, by index:

    PYTHONPATH=src python tests/test_stmt_golden.py 2 5 6

and lists those indices in CHANGES.md, with why each one changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from test_expr_golden import _expr

from causalkit.cli import main

FIXTURE = Path(__file__).parent / "fixtures" / "stmt_golden.json"

MODEL = """model stmts {
  const ci: int = 3;
  const cr: real = 0.75;
  const cb: bool = true;
  const cz: complex = 1.5 + 0.5i;
  record CaParticle { id: int; pos: int; vel: int; species: int; }
  record CaWorld { phi: vector(4); particles: list(CaParticle); alpha: real; }
  state {
    i1: int; i2: int; i3: int;
    r1: real; r2: real; r3: real; r4: real;
    b1: bool; b2: bool;
    z1: complex; z2: complex;
    w: CaWorld;
    ps: list(CaParticle);
    li: list(int);
    vr: vector(4);
    cg: cgrid(4, 0.5);
  }
  init {
    i1 = 7; i2 = 0; i3 = -2;
    r1 = 2.5; r2 = -1.25; r3 = 0.0; r4 = 1e300;
    b1 = true; b2 = false;
    z1 = complex(0.6, -0.8); z2 = 0.0i;
    w = ca_world(4, 0.2);
    ps = w.particles;
    li = [3, -1, 4];
    vr = fill(4, 0.25);
    cg = gauss_packet(4, 0.5, 0.0, 1.0, 0.5);
  }
  law L {
    when %s;
    then {
%s
    }
  }
}
"""

OBSERVABLES = ("i1,i2,i3,r1,r2,r3,r4,b1,b2,z1,z2,w.alpha,w.phi[1],"
               "w.particles[0].vel,ps[1].pos,li[0],li[2],vr[3],cg[2]")

_SCALARS = {"int": ("i1", "i2", "i3"), "real": ("r1", "r2", "r3", "r4"),
            "bool": ("b1", "b2"), "complex": ("z1", "z2")}

# each form's text; {int}, {real}, ... are random expressions of that
# kind, {idx} an index (often in range, sometimes not, sometimes drawn)
_WRITES = (
    "w.alpha = {real};",
    "w.phi[{idx}] = {real};",
    "w.particles[{idx}].vel = {int};",
    "w.particles[{idx}].pos = w.particles[{idx}].pos + 1;",
    "ps[{idx}].pos = {int};",
    "li[{idx}] = {int};",
    "vr[{idx}] = {real};",
    "cg[{idx}] = {complex};",
    "cg[{idx}] = cg[{idx}] * 0.5i + {real};",
)
_FAULTS = (
    "i1 = i1 * 3037000500;",                     # int64 overflow, step 2
    "i3 = i3 * 9223372036854775807;",            # int64 overflow, step 1
    "r4 = r4 * r4;",                             # inf written, step 1
    "r1 = r4 * 1e10 - r4 * 1e10;",               # inf - inf: nan
    "li[3] = 1;",                                # out of range
    "vr[i3] = 1.0;",                             # negative index
    "ps[2].vel = 0;",                            # out of range, in a record
)
_DRAWS = (
    "li[random({0, 1, 2}, FLAT)] = {int};",
    "vr[random({0, 3, 4}, WEIGHTS(1, 2, 1))] = {real};",
    "w.particles[random({0, 1}, FLAT)].vel = {int};",
    "i2 = random({1, 2, 3}, FLAT);",
    "i2 = i2 + random({-1, 1}, WEIGHTS(1, 3));",
    "r2 = random({0.5, 1.5}, PSI(0.6, 0.8));",
    "z2 = random({1, 2.5}, FLAT);",                # promoted to complex
    "r3 = random([0.0, 1.0], FLAT);",
    "r3 = random(GAUSS(0.0, 1.0));",
    "b2 = random({true, false}, WEIGHTS(1, i1));",
)


def _idx(rng: random.Random) -> str:
    return rng.choice(("0", "1", "2", "i2", "(ci - 2)", _expr(rng, "int", 1),
                       "random({0, 1}, FLAT)"))


def _fill(rng: random.Random, form: str) -> str:
    out = form
    for kind in ("int", "real", "bool", "complex"):
        while "{%s}" % kind in out:
            out = out.replace("{%s}" % kind, _expr(rng, kind, 2), 1)
    while "{idx}" in out:
        out = out.replace("{idx}", _idx(rng), 1)
    return out


def _stmt(rng: random.Random, depth: int, lets: list) -> list:
    """Lines of one random statement (lines are indented by the caller)."""
    form = rng.randrange(10 if depth > 0 else 7)
    if form <= 1:
        kind = rng.choice(("int", "real", "bool", "complex"))
        return [f"{rng.choice(_SCALARS[kind])} = {_expr(rng, kind, 3)};"]
    if form == 2:
        return [_fill(rng, rng.choice(_WRITES))]
    if form == 3:
        return [_fill(rng, rng.choice(_DRAWS))]
    if form == 4 and rng.random() < 0.5:
        return [rng.choice(_FAULTS)]
    if form <= 4:
        kind = rng.choice(("int", "real", "bool", "complex"))
        name = f"a{len(lets)}"
        lets.append(name)
        op = "&&" if kind == "bool" else rng.choice("+-*")
        return [f"let {name} = {_expr(rng, kind, 2)};",
                f"{rng.choice(_SCALARS[kind])} = {name} {op} "
                f"{_expr(rng, kind, 1)};"]
    if form <= 6:
        return [rng.choice((
            "for q in ps { q.vel = q.vel + %s; q.pos = q.pos - 1; }"
            % _expr(rng, "int", 1),
            "for q in ps { q.species = q.id * %s; }" % _expr(rng, "int", 1),
            "for e in li { e = e * 2 - %s; }" % _expr(rng, "int", 1),
            "for q in ps { i1 = q.pos; }"))]
    then = _block(rng, depth - 1, lets)
    lines = [f"if {_expr(rng, 'bool', 2)} {{"] + ["  " + x for x in then]
    if form >= 8:
        lines.append("} else {")
        lines += ["  " + x for x in _block(rng, depth - 1, lets)]
    return lines + ["}"]


def _block(rng: random.Random, depth: int, lets: list) -> list:
    lines = []
    for _ in range(rng.randint(1, 3)):
        lines += _stmt(rng, depth, lets)
    return lines


def generate(seed: int = 20261018, count: int = 200) -> list:
    """The corpus: (model source, seed) per case."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        guard = "true" if rng.random() < 0.8 else _expr(rng, "bool", 2)
        body = _block(rng, 2, [])
        source = MODEL % (guard, "\n".join("      " + x for x in body))
        cases.append((source, i))
    return cases


def _commands(path: Path, seed: int) -> tuple:
    return (("run", str(path), "--format", "jsonl", "--steps", "4",
             "--seed", str(seed), "--observables", OBSERVABLES),
            ("branch", str(path), "--steps", "3", "--depth", "3",
             "--width", "4", "--seed", str(seed)))


def _digest(argv) -> str:
    """Of the exit code, stdout and stderr, the model's path left out."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    errors = err.getvalue().replace(argv[1], "stmts.cml")
    text = f"{code}\0{out.getvalue()}\0{errors}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(source: str, seed: int, tmp: Path) -> dict:
    path = tmp / "stmts.cml"
    path.write_text(source, encoding="utf-8")
    run, branch = _commands(path, seed)
    return {"run": _digest(run), "branch": _digest(branch)}


def _cases() -> list:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_fixture_covers_the_generated_corpus():
    cases = generate()
    assert len(_cases()) == len(cases) >= 200
    bodies = "\n".join(source for source, _ in cases)
    for form in ("if ", "} else {", "let ", "for q in ps", "for e in li",
                 "w.alpha =", "].vel =", "li[", "vr[", "cg[",
                 "3037000500", "r4 * r4", "li[3]", "li[random(",
                 "= random("):
        assert form in bodies, form


@pytest.mark.parametrize("chunk", range(10))
def test_statements_match_the_reference(chunk, tmp_path):
    cases = generate()
    pinned = _cases()
    mismatches = [i for i in range(chunk, len(cases), 10)
                  if outcome(*cases[i], tmp_path) != pinned[i]]
    assert not mismatches, [cases[i][0] for i in mismatches[:1]]


if __name__ == "__main__":
    import sys
    import tempfile

    repin = [int(a) for a in sys.argv[1:]]
    if FIXTURE.exists() and not repin:
        raise SystemExit(f"{FIXTURE} exists; delete it to re-pin, or name "
                         "the indices of the cases to re-pin")
    cases = generate()
    with tempfile.TemporaryDirectory() as tmp:
        if repin:
            pins = _cases()
            for i in repin:
                pins[i] = outcome(*cases[i], Path(tmp))
        else:
            pins = [outcome(source, seed, Path(tmp))
                    for source, seed in cases]
    FIXTURE.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
