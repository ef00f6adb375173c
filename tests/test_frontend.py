import copy
import dataclasses
from pathlib import Path

import pytest

from causalkit import (
    CausalModel,
    CheckStrategy,
    Law,
    analyze,
    classify_determinism,
    load_model,
    parse,
    report_to_json,
    typecheck,
)
from causalkit.frontend import format_model, lower, structurally_equal
from causalkit.frontend.ast_nodes import (
    Assign,
    Binary,
    DistExpr,
    Expr,
    Lit,
    Loc,
    Name,
    Stmt,
    format_expr,
    walk,
)
from causalkit.frontend.parser import MAX_DEPTH, parse_expression

from conftest import BROKEN, FIXTURES, fixture_source

MINIMAL = ("model M { state { n: int in [0, 100]; } init { n = 0; } "
           "law Inc { when true; then { n = n + 1; } } }")


def diagnostics(source):
    """(code, message, line, col) of every diagnostic the parser and,
    if the source parses, the typechecker give."""
    ast, diags = parse(source)
    if ast is not None:
        typed, tdiags = typecheck(ast)
        assert typed is None
        diags = diags + tdiags
    return [(d.code, d.message, d.loc.line, d.loc.col) for d in diags]


class TestParse:
    def test_minimal_model(self):
        ast, diags = parse(MINIMAL)
        assert not diags
        assert ast.name == "M"
        assert len(ast.laws) == 1
        assert ast.laws[0].name == "Inc"

    def test_missing_guard_semicolon_located_at_then(self):
        src = ("model m {\n  state { x: real in [-1.0, 1.0]; }\n"
               "  init { x = 0.0; }\n"
               "  law L { when x < 0.0 then { } }\n}")
        ast, diags = parse(src)
        assert ast is None
        assert diags
        d = diags[0]
        assert d.loc.line == 4
        # the offending token is the 'then' keyword
        assert src.splitlines()[3][d.loc.col - 1:].startswith("then")

    def test_fixture_corpus_parses(self):
        for path in sorted(FIXTURES.glob("*.cml")):
            ast, diags = parse(path.read_text())
            assert ast is not None, (path.name, diags)
            assert not diags, path.name

    def test_never_raises_on_junk(self):
        for junk in ("", "model", "model m {", "}{", "law x law",
                     "model m { state { } init { } }", "\x00\x01"):
            ast, diags = parse(junk)
            assert ast is None
            assert diags

    def test_fuzz_never_raises(self):
        # random mutations of a valid model must produce diagnostics or
        # an AST, never an exception
        import random as pyrandom
        rnd = pyrandom.Random(2024)
        alphabet = "model state init law when then {}[]();=<>!&|+-*/^.,: " \
                   "abcxyz019 \n\"'@#"
        for _ in range(300):
            n = rnd.randint(0, 120)
            src = "".join(rnd.choice(alphabet) for _ in range(n))
            parse(src)
        base = fixture_source("psi_draw.cml")
        for _ in range(300):
            chars = list(base)
            for _ in range(rnd.randint(1, 6)):
                i = rnd.randrange(len(chars))
                chars[i] = rnd.choice(alphabet)
            src = "".join(chars)
            ast, diags = parse(src)
            if ast is not None:
                typecheck(ast)

    def test_numeric_characters_that_are_not_digits_are_bad_chars(self):
        # str.isdigit() accepts '²' and '①', which int() and float()
        # refuse; no token starts with one
        from causalkit.frontend.lexer import tokenize
        tokens, diags = tokenize("x ² 1² ½y 1e² ①")
        assert [(t.kind, t.text, str(t.loc)) for t in tokens] == [
            ("IDENT", "x", "1:1"), ("INT", "1", "1:5"),
            ("IDENT", "y", "1:9"), ("INT", "1", "1:11"),
            ("IDENT", "e²", "1:12"), ("EOF", "", "1:16")]
        assert [(d.code, d.message, str(d.loc)) for d in diags] == [
            ("bad-char", "unexpected character '²'", "1:3"),
            ("bad-char", "unexpected character '²'", "1:6"),
            ("bad-char", "unexpected character '½'", "1:8"),
            ("bad-char", "unexpected character '①'", "1:15")]
        ast, diags = parse("model m { state { x: int; } init { x = 1²; } }")
        assert ast is None and diags[0].code == "bad-char"

    def test_all_locations_present(self):
        ast, _ = parse(MINIMAL)
        assert ast.laws[0].guard.loc.line >= 1
        assert ast.state_fields[0].loc.line >= 1


class TestRoundTrip:
    @pytest.mark.parametrize("name", [p.name for p in sorted(FIXTURES.glob("*.cml"))])
    def test_pretty_print_reparses_identically(self, name):
        ast1, diags = parse(fixture_source(name))
        assert ast1 is not None, diags
        printed = format_model(ast1)
        ast2, diags2 = parse(printed)
        assert ast2 is not None, (name, diags2, printed)
        assert structurally_equal(ast1, ast2), name

    def test_bundled_sources_round_trip(self):
        models_dir = Path(__file__).parents[1] / "src" / "causalkit" / "models"
        for path in sorted(models_dir.glob("*.cml")):
            ast1, _ = parse(path.read_text())
            ast2, diags = parse(format_model(ast1))
            assert ast2 is not None, (path.name, diags)
            assert structurally_equal(ast1, ast2), path.name


def reference_walk(node):
    """Every node, each before the nodes below it, those in field order:
    the recursive walk over ``dataclasses.fields`` that ``walk`` replaced."""
    if isinstance(node, list):
        for item in node:
            yield from reference_walk(item)
    elif dataclasses.is_dataclass(node):
        yield node
        for f in dataclasses.fields(node):
            if f.name not in ("loc", "ty"):
                yield from reference_walk(getattr(node, f.name))


SOURCES = sorted(FIXTURES.glob("*.cml")) + sorted(
    (Path(__file__).parents[1] / "src" / "causalkit" / "models").glob("*.cml"))


class TestWalk:
    @pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
    def test_same_nodes_in_the_same_order_as_the_recursive_walk(self, path):
        ast, diags = parse(path.read_text())
        assert ast is not None, diags
        typecheck(ast)   # sets each expression's ty, which walk skips
        for node in (ast, [law.body for law in ast.laws], ast.laws[0].guard):
            assert [id(n) for n in walk(node)] \
                == [id(n) for n in reference_walk(node)]

    def test_structural_equality_reads_every_field_but_loc_and_ty(self):
        ast, _ = parse(fixture_source("language.cml"))
        moved = copy.deepcopy(ast)
        for node in walk(moved):
            node.loc = Loc(node.loc.line + 1, 1)
        assert structurally_equal(ast, moved)
        op = copy.deepcopy(ast)   # a str field
        next(n for n in walk(op) if isinstance(n, Binary)).op = "?"
        assert not structurally_equal(ast, op)
        param = copy.deepcopy(ast)   # a bool field
        param.consts[0].param = not param.consts[0].param
        assert not structurally_equal(ast, param)
        shorter = copy.deepcopy(ast)   # a list field
        shorter.laws[0].body.pop()
        assert not structurally_equal(ast, shorter)
        renamed = copy.deepcopy(ast)   # a node of another class
        renamed.laws[0].guard = Lit(renamed.laws[0].guard.loc, value=True,
                                    kind="bool")
        assert not structurally_equal(ast, renamed)

    def test_a_node_of_no_known_class_is_not_formatted(self):
        with pytest.raises(TypeError) as exc:
            format_expr(Expr(Loc(1, 1)))
        assert str(exc.value) == \
            "cannot format <class 'causalkit.frontend.ast_nodes.Expr'>"
        ast, _ = parse(MINIMAL)
        ast.laws[0].body = [Stmt(Loc(1, 1))]
        with pytest.raises(TypeError) as exc:
            format_model(ast)
        assert str(exc.value) == \
            "cannot format <class 'causalkit.frontend.ast_nodes.Stmt'>"


class TestTypecheck:
    def check(self, src):
        ast, diags = parse(src)
        assert ast is not None, diags
        return typecheck(ast)

    def test_minimal_ok(self):
        typed, diags = self.check(MINIMAL)
        assert typed is not None
        assert not [d for d in diags if d.severity == "error"]
        assert typed.ast.laws[0].guard.ty.kind == "bool"

    def test_guard_must_be_bool(self):
        typed, diags = self.check(
            "model m { state { n: int in [0,9]; } init { n = 0; } "
            "law L { when n + 1; then { } } }")
        assert typed is None
        assert any(d.code == "type-mismatch" for d in diags)

    def test_random_in_guard_rejected(self):
        typed, diags = self.check(
            "model m { state { x: real in [0.0,1.0]; } init { x = 0.0; } "
            "law L { when random([0.0,1.0], FLAT) < 0.5; then { } } }")
        assert typed is None
        assert any(d.code == "random-in-guard" for d in diags)

    def test_assign_to_constant_rejected(self):
        typed, diags = self.check(
            "model m { const k: real = 1.0; state { x: real in [0.0,1.0]; } "
            "init { x = 0.0; } law L { when true; then { k = 2.0; } } }")
        assert typed is None
        assert any(d.code == "assign-to-constant" for d in diags)

    def test_unknown_name_located(self):
        typed, diags = self.check(
            "model m { state { x: real in [0.0,1.0]; } init { x = 0.0; } "
            "law L { when y < 1.0; then { } } }")
        assert typed is None
        errs = [d for d in diags if d.code == "unknown-name"]
        assert errs and errs[0].loc.line == 1

    def test_int_promotes_to_real(self):
        typed, diags = self.check(
            "model m { state { x: real in [0.0,9.0]; } init { x = 1; } "
            "law L { when true; then { x = x + 1; } } }")
        assert typed is not None

    def test_real_does_not_narrow_to_int(self):
        typed, diags = self.check(
            "model m { state { n: int in [0,9]; } init { n = 0; } "
            "law L { when true; then { n = n / 2; } } }")
        assert typed is None

    def test_loop_variable_shadowing_rejected(self):
        typed, diags = self.check(
            "model m { state { xs: list(real, 2); x: real in [0.0,1.0]; } "
            "init { x = 0.0; } "
            "law L { when true; then { for x in xs { x = 1.0; } } } }")
        assert typed is None
        assert any(d.code == "duplicate-name" for d in diags)

    def test_guard_never_true_warning(self):
        typed, diags = self.check(
            "model m { state { x: real in [0.0,1.0]; } init { x = 0.0; } "
            "law Dead { when false; then { } } "
            "law Live { when true; then { } } }")
        assert typed is not None  # warnings do not prevent lowering
        assert any(d.severity == "warning" and d.code == "guard-never-true"
                   for d in diags)

    def test_ill_typed_guard_is_reported_not_folded(self):
        typed, diags = self.check(
            "model m { state { x: int; } init { x = 0; } "
            "law L { when 1 + true > 0; then { } } }")
        assert typed is None
        assert [(d.code, d.loc.col) for d in diags] == [("type-mismatch", 60)]

    def test_duplicate_law_name_is_a_typechecker_diagnostic(self):
        typed, diags = self.check(
            "model m { state { x: int; } init { x = 0; }\n"
            "law L { when x < 1; then { x = 1; } }\n"
            "  law L { when x >= 1; then { x = 0; } } }")
        assert typed is None
        assert [(d.code, d.message, d.loc.line, d.loc.col) for d in diags] \
            == [("duplicate-name", "duplicate law name 'L'", 3, 3)]

    @pytest.mark.parametrize("draw, message", [
        ("random([5.0, 1.0], FLAT)",
         "continuous FLAT requires lo < hi, got lo 5.0 and hi 1.0"),
        ("random([1, k], FLAT)",
         "continuous FLAT requires lo < hi, got lo 1.0 and hi 1.0"),
        ("random([k, 0.0 - 1.0], GAUSS(0.0, 1.0))",
         "truncated GAUSS requires lo < hi, got lo 1.0 and hi -1.0"),
    ])
    def test_empty_constant_range_is_located(self, draw, message):
        # located at the range's "[", column 48 of the law's line
        typed, diags = self.check(
            "model m { const k: int = 1; state { x: real; } init { x = 0.0; }"
            f"\nlaw L {{ when true; then {{ x = x + 1.0 + {draw}; }} }} }}")
        assert typed is None
        assert [(d.code, d.message, d.loc.line, d.loc.col) for d in diags] \
            == [("bad-random", message, 2, 48)]

    @pytest.mark.parametrize("draw", [
        "random([0.0, 1.0], FLAT)", "random([x, 1.0], FLAT)",
        "random([5.0, x], GAUSS(0.0, 1.0))", "random([0, 1e-300], FLAT)"])
    def test_nonempty_or_varying_range_typechecks(self, draw):
        typed, diags = self.check(
            "model m { state { x: real; } init { x = 0.0; } "
            f"law L {{ when true; then {{ x = {draw}; }} }} }}")
        assert typed is not None, diags

    def errors(self, src):
        typed, diags = self.check(src)
        assert typed is None
        return [(d.code, d.message, d.loc.col) for d in diags]

    def test_non_finite_constant_is_rejected(self):
        assert self.errors(
            "model m { const c: real = 1e308 * 10.0; state { x: real; } "
            "init { x = c; } law L { when x < c; then { } } }") \
            == [("bad-constant",
                 "initializer of constant 'c': non-finite value inf", 33)]

    def test_failing_domain_bound_gives_its_evaluation_message(self):
        assert self.errors(
            "model m { state { x: int in [0, 1 / 0]; } init { x = 0; } "
            "law L { when true; then { } } }") \
            == [("bad-constant", "domain bound: division by zero", 35)]

    @pytest.mark.parametrize("field, call, col", [
        ("vector(8)", "fill(100000000000, 0.0)", 46),
        ("cgrid(8, 0.5)", "gauss_packet(100000000000, 0.5, 0.0, "
         "1.0, 0.0)", 50),
    ], ids=["fill", "gauss_packet"])
    def test_grid_literal_above_the_cap_is_rejected(self, field, call, col):
        # rejected by the typechecker, before anything is allocated (the
        # field is short: a field type over the cap is rejected first)
        f = call.split("(")[0]
        assert self.errors(
            f"model m {{ state {{ g: {field}; }} init {{ g = {call}; }} "
            "law L { when true; then { } } }") \
            == [("type-mismatch", f"{f}: n must be at most 1048576 cells",
                 col)]

    @pytest.mark.parametrize("ty, message, col", [
        ("vector(1048577)", "vector length", 46),
        ("cgrid(n + 1, 0.5)", "cgrid length", 46),
        ("list(vector(n + 1))", "vector length", 51),
    ], ids=["vector", "cgrid", "list-item"])
    def test_field_length_above_the_cap_is_rejected(self, ty, message, col):
        assert self.errors(
            f"model m {{ const n: int = 1048576; state {{ g: {ty}; }} "
            "init { } law L { when true; then { } } }") \
            == [("bad-type", f"{message} must be at most 1048576", col)]

    def test_grid_literal_at_the_cap_typechecks(self):
        typed, diags = self.check(
            "model m { state { g: vector(1048576); } "
            "init { g = fill(1048576, 0.0); } law L { when true; then { } } }")
        assert typed is not None

    def test_bool_in_an_int_domain_is_a_type_mismatch(self):
        assert self.errors(
            "model m { state { x: int in {true, 2}; } init { x = 2; } "
            "law L { when true; then { } } }") \
            == [("type-mismatch", "domain bound must be numeric, got bool",
                 30)]


# each declaration, statement and expression diagnostic of the typechecker
# that no broken fixture gives: (code, message, line, col)
_MODEL = "model m { %s state { %s } init { %s }\nlaw L { when %s; then { %s } } }"
TYPECHECK_DIAGNOSTICS = {
    "duplicate-record": (
        _MODEL % ("record R { a: int; } record R { b: int; }", "x: int;",
                  "x = 0;", "true", ""),
        ("duplicate-name", "duplicate record 'R'", 1, 32)),
    "duplicate-member": (
        _MODEL % ("record R { a: int; a: real; }", "x: int;", "x = 0;",
                  "true", ""),
        ("duplicate-name", "duplicate field 'a' in record 'R'", 1, 30)),
    "duplicate-constant": (
        _MODEL % ("const k: int = 1; const k: int = 2;", "x: int;", "x = 0;",
                  "true", ""),
        ("duplicate-name", "duplicate constant 'k'", 1, 29)),
    "reserved-constant": (
        _MODEL % ("const dt: real = 1.0;", "x: int;", "x = 0;", "true", ""),
        ("reserved-name", "'dt' is reserved", 1, 11)),
    "reserved-field": (
        _MODEL % ("", "dt: real;", "", "true", ""),
        ("reserved-name", "'dt' is reserved", 1, 20)),
    "vector-constant": (
        _MODEL % ("const v: vector(2) = 1.0;", "x: int;", "x = 0;", "true",
                  ""),
        ("bad-type", "constants must be scalar", 1, 11)),
    "cgrid-arity": (
        _MODEL % ("", "g: cgrid(8);", "", "true", ""),
        ("bad-type", "cgrid takes 2 arguments", 1, 23)),
    "vector-arity": (
        _MODEL % ("", "g: vector(8, 2);", "", "true", ""),
        ("bad-type", "vector takes 1 argument", 1, 23)),
    "real-length": (
        _MODEL % ("", "v: vector(1.5);", "", "true", ""),
        ("bad-type", "vector length must be an int constant", 1, 30)),
    "call-in-domain": (
        _MODEL % ("", "x: real in [0, sqrt(2.0)];", "x = 0.0;", "true", ""),
        ("bad-domain", "domain bounds must be constant", 1, 35)),
    # a bool or complex field's domain must be a set, before its bounds
    # are checked as an interval's
    "bool-interval": (
        _MODEL % ("", "b: bool in [true, false];", "b = true;", "true", ""),
        ("bad-domain", "bool fields need a finite value set", 1, 31)),
    "complex-interval": (
        _MODEL % ("", "c: complex in [1i, 2i];", "c = 1i;", "true", ""),
        ("bad-domain", "complex fields need a finite value set", 1, 34)),
    # a domain's shape is checked before its bounds are
    "bool-interval-of-ints": (
        _MODEL % ("", "b: bool in [1, 2];", "b = true;", "true", ""),
        ("bad-domain", "bool fields need a finite value set", 1, 31)),
    "grid-domain-bound-not-constant": (
        _MODEL % ("", "g: cgrid(8, 0.5) in [0, sqrt(2.0)];", "", "true", ""),
        ("bad-domain", "type cgrid(8, 0.5) cannot carry a domain", 1, 40)),
    "init-index": (
        _MODEL % ("", "v: vector(2);", "v[0] = 1.0;", "true", ""),
        ("bad-init", "init assigns whole fields only", 1, 44)),
    "init-constant": (
        _MODEL % ("const k: int = 1;", "x: int;", "k = 2; x = 0;", "true",
                  ""),
        ("assign-to-constant", "cannot assign to constant 'k'", 1, 54)),
    "for-unknown-field": (
        _MODEL % ("", "x: int;", "x = 0;", "true", "for y in zz { }"),
        ("unknown-name", "unknown field 'zz'", 2, 36)),
    "not-of-int": (
        _MODEL % ("", "x: bool;", "x = !1;", "true", ""),
        ("type-mismatch", "operand of '!' must be bool, got int", 1, 42)),
    "negate-bool": (
        _MODEL % ("", "x: bool;", "x = -true;", "true", ""),
        ("type-mismatch", "cannot negate bool", 1, 42)),
    "read-before-init": (
        _MODEL % ("", "x: int; y: int;", "x = y; y = 0;", "true", ""),
        ("unknown-name", "field 'y' read before initialization", 1, 49)),
    "missing-member": (
        _MODEL % ("record R { a: int; }", "r: R; x: int;", "x = 0;",
                  "r.zz > 0", ""),
        ("unknown-name", "record 'R' has no field 'zz'", 2, 16)),
    "index-real": (
        _MODEL % ("", "x: real;", "x = 0.0;", "x[0] > 0.0", ""),
        ("type-mismatch", "cannot index real", 2, 15)),
    "bool-order": (
        _MODEL % ("", "x: int;", "x = 0;", "true < false", ""),
        ("type-mismatch", "ordering needs int or real, got bool", 2, 14)),
    "complex-power": (
        _MODEL % ("", "x: complex;", "x = 1i ^ 2;", "true", ""),
        ("type-mismatch", "'^' is not defined for complex (use exp/conj)",
         1, 48)),
    "empty-list": (
        _MODEL % ("", "xs: list(int);", "xs = [];", "true", ""),
        ("bad-expr", "cannot infer the type of an empty list", 1, 49)),
    "list-items-disagree": (
        _MODEL % ("", "xs: list(int);", "xs = [1, true];", "true", ""),
        ("type-mismatch", "list literal elements disagree", 1, 53)),
    "stochastic-call-in-guard": (
        _MODEL % ("", "x: int;", "x = 0;", "pw_interact(1) == 1", ""),
        ("random-in-guard",
         "stochastic intrinsic 'pw_interact' is not allowed here", 2, 14)),
}


@pytest.mark.parametrize("name", sorted(TYPECHECK_DIAGNOSTICS))
def test_typecheck_diagnostic_is_pinned(name):
    source, want = TYPECHECK_DIAGNOSTICS[name]
    assert diagnostics(source) == [want]


# what no parsed source holds: a statement or expression of no known
# kind, a distribution outside random(), an assignment to a literal
@pytest.mark.parametrize("node, code, message, col", [
    (Stmt(Loc(2, 26)), "internal",
     "unknown statement <class 'causalkit.frontend.ast_nodes.Stmt'>", 26),
    (Assign(Loc(2, 26), Name(Loc(2, 26), id="x"), Expr(Loc(2, 30))),
     "internal",
     "unknown expression <class 'causalkit.frontend.ast_nodes.Expr'>", 30),
    (Assign(Loc(2, 26), Name(Loc(2, 26), id="x"),
            DistExpr(Loc(2, 30), name="FLAT")),
     "bad-expr", "distributions are only valid inside random()", 30),
    (Assign(Loc(2, 26), Lit(Loc(2, 26), value=1, kind="int"),
            Lit(Loc(2, 30), value=1, kind="int")),
     "bad-target", "invalid assignment target", 26),
], ids=["statement", "expression", "distribution", "target"])
def test_a_hand_built_ast_gets_a_located_diagnostic(node, code, message, col):
    ast, _ = parse("model m { state { x: int; } init { x = 0; }\n"
                   "law L { when true; then { x = 1; } } }")
    ast.laws[0].body = [node]
    typed, diags = typecheck(ast)
    assert typed is None
    assert [(d.code, d.message, d.loc.line, d.loc.col) for d in diags] == \
        [(code, message, 2, col)]

class TestLower:
    def test_uses_random_flags(self):
        src = """
        model m {
          state {
            a: int in {0, 1};
            b: int in [0, 9];
            psi: cgrid(8, 0.5);
            V: vector(8);
          }
          init { a = 0; b = 0; psi = gauss_packet(8, 0.5, 0.0, 1.0, 0.0);
                 V = fill(8, 0.0); }
          law Draw { when b < 1; then { a = random({0, 1}, FLAT); } }
          law Count { when b >= 1 && b < 5; then { b = b + 1; } }
          law Evolve { when b >= 5;
                       then { psi = schrodinger_step(psi, V, dt, 1.0, 1.0); } }
        }
        """
        model = load_model(src)
        flags = {l.name: l.uses_random for l in model.laws}
        assert flags == {"Draw": True, "Count": False, "Evolve": False}
        verdict = classify_determinism(model)
        assert not verdict.deterministic
        assert verdict.random_laws == ("Draw",)

    def test_stochastic_intrinsic_marks_law(self):
        src = """
        model m {
          state {
            pw: pwcollection(position: real);
            done: bool;
          }
          init { done = false; }
          law Hit { when !done; then { pw = pw_interact(pw); done = true; } }
          law Idle { when done; then { done = true; } }
        }
        """
        model = load_model(src)
        assert model.law("Hit").uses_random
        assert not model.law("Idle").uses_random

    def test_hand_built_law_reads_its_draws_off_its_transition(self):
        # a Law built without the typechecker's lowering still knows that
        # it draws, so determinism is not misreported
        model = load_model(fixture_source("walk.cml"))
        rebuilt = CausalModel(model.name, model.schema, tuple(
            Law(l.name, l.guard, l.transition) for l in model.laws),
            model.init, model.halt)
        assert rebuilt.law("Step").uses_random
        assert str(classify_determinism(rebuilt)) == "nondeterministic(Step)"
        report = analyze(rebuilt, CheckStrategy("sample", count=10))
        assert report_to_json(report)["determinism"]["deterministic"] is False
        inc = load_model(MINIMAL).law("Inc")
        assert not Law(inc.name, inc.guard, inc.transition).uses_random

    def test_law_order_and_count_preserved(self):
        ast, _ = parse(fixture_source("partition.cml"))
        typed, _ = typecheck(ast)
        model = lower(typed)
        assert [l.name for l in model.laws] == ["Down", "Up"]


# (code, message, line, col) of the one diagnostic each broken fixture gives
BROKEN_DIAGNOSTICS = {
    '01_missing_semicolon_guard':
        ('syntax', "expected ';', found 'then'", 4, 24),
    '02_bad_char': ('bad-char', "unexpected character '@'", 4, 18),
    '03_unclosed_brace':
        ('syntax', "expected '}', found 'end of input'", 5, 1),
    '04_missing_state': ('syntax', 'model has no state block', 1, 1),
    '05_missing_init': ('syntax', 'model has no init block', 1, 1),
    '06_no_laws': ('no-laws', 'model declares no laws', 1, 1),
    '07_unknown_name': ('unknown-name', "unknown name 'y'", 4, 16),
    '08_guard_not_bool':
        ('type-mismatch', "guard of law 'L' must be bool, got int", 4, 18),
    '09_random_in_guard':
        ('random-in-guard', 'random() is not allowed here', 4, 16),
    '10_assign_const':
        ('assign-to-constant', "cannot assign to constant 'k'", 5, 29),
    '11_type_mismatch_assign':
        ('type-mismatch', 'assignment: expected int, got bool', 4, 29),
    '12_dup_law': ('duplicate-name', "duplicate law name 'L'", 5, 3),
    '13_dup_field': ('duplicate-name', "duplicate field 'x'", 4, 5),
    '14_unknown_type': ('unknown-name', "unknown type 'flux'", 2, 14),
    '15_bad_domain_order':
        ('bad-domain', 'empty interval domain [2.0, -2.0]', 2, 22),
    '16_domain_on_grid':
        ('bad-domain', 'type cgrid(8, 0.5) cannot carry a domain', 2, 33),
    '17_unknown_function':
        ('unknown-intrinsic', "unknown function 'frobnicate'", 4, 33),
    '18_chained_comparison':
        ('syntax', 'comparisons cannot be chained', 4, 24),
    '19_random_in_init':
        ('random-in-init', 'random() is not allowed here', 3, 14),
    '20_weights_arity':
        ('bad-random', 'WEIGHTS needs one weight per value', 4, 48),
    '21_vector_length_zero': ('bad-type', 'vector length must be >= 1', 2, 14),
    '22_cgrid_dx_zero': ('bad-type', 'cgrid dx must be > 0', 2, 16),
    '23_for_over_scalar':
        ('type-mismatch', "'for' needs a list field, got real", 4, 38),
    '24_assign_unknown':
        ('unknown-name', "cannot assign to unknown name 'q'", 4, 29),
    '25_cyclic_records':
        ('bad-schema', "cyclic record definition through 'A'", 1, 1),
    '26_dt_in_guard':
        ('unknown-name', "'dt' is only available in transition blocks", 4, 16),
    '27_empty_set': ('syntax', 'value set cannot be empty', 4, 40),
    '28_empty_flat_range':
        ('bad-random',
         'continuous FLAT requires lo < hi, got lo 5.0 and hi 1.0', 4, 40),
    '29_complex_interval_bounds':
        ('bad-domain', 'interval bounds must be real', 2, 22),
    '30_complex_value_for_real':
        ('bad-domain', 'real domain needs real values', 2, 22),
    '31_int_interval_without_int':
        ('bad-domain', 'int domain [0.2, 0.8] holds no int', 2, 21),
}


class TestBrokenCorpus:
    @pytest.mark.parametrize("path", sorted(BROKEN.glob("*.cml")),
                             ids=lambda p: p.stem)
    def test_located_diagnostics_no_crash(self, path):
        source = path.read_text()
        ast, diags = parse(source)
        if ast is not None:
            typed, tdiags = typecheck(ast)
            diags = diags + tdiags
            assert typed is None, f"{path.name} unexpectedly typechecked"
        errors = [d for d in diags if d.severity == "error"]
        assert errors, path.name
        nlines = len(source.splitlines()) + 1
        for d in errors:
            assert 1 <= d.loc.line <= nlines, path.name
            assert d.loc.col >= 1, path.name
            assert d.message

    def test_every_fixture_is_pinned(self):
        assert sorted(BROKEN_DIAGNOSTICS) == \
            sorted(p.stem for p in BROKEN.glob("*.cml"))

    @pytest.mark.parametrize("stem", sorted(BROKEN_DIAGNOSTICS))
    def test_diagnostic_is_pinned(self, stem):
        assert diagnostics((BROKEN / f"{stem}.cml").read_text()) == \
            [BROKEN_DIAGNOSTICS[stem]]


class TestDrawDiagnostics:
    """Each diagnostic a ``random(...)`` form can give, with its location:
    the range's shape and the distribution pick the form; a missing form,
    a wrong parameter count and a wrong parameter kind each have their
    own text. Checks run in this order: the parameters, the range and its
    items, the form, its arity, its parameter kinds, a constant lo < hi."""

    MODEL = ("model m { const k: int = 1; state { x: real; } "
             "init { x = 0.0; }\nlaw L { when true; then { x = %s; } } }")

    @pytest.mark.parametrize("draw, code, message, col", [
        ("random(FLAT)", "bad-random",
         "FLAT needs an explicit value range", 31),
        ("random(WEIGHTS(1, 2))", "bad-random",
         "WEIGHTS needs an explicit value range", 31),
        ("random(PSI(1))", "bad-random",
         "PSI needs an explicit value range", 31),
        ("random(FLAT(y))", "unknown-name", "unknown name 'y'", 43),
        ("random(GAUSS(1))", "bad-random", "GAUSS takes (mean, sigma)", 38),
        ("random(GAUSS(0, 1, 2))", "bad-random",
         "GAUSS takes (mean, sigma)", 38),
        ("random(GAUSS(0, true))", "type-mismatch",
         "GAUSS parameters must be real", 47),
        ("random([0, 1, 2], FLAT)", "bad-random",
         "interval range must be [lo, hi]", 38),
        ("random([0], GAUSS(0, 1))", "bad-random",
         "interval range must be [lo, hi]", 38),
        ("random([0, true], FLAT)", "type-mismatch",
         "range bounds must be real", 42),
        ("random([0, true], WEIGHTS(1))", "type-mismatch",
         "range bounds must be real", 42),
        ("random([0, 1], FLAT(1))", "bad-random",
         "FLAT takes no parameters", 46),
        ("random([0, 1], GAUSS(1))", "bad-random",
         "GAUSS takes (mean, sigma)", 46),
        ("random([0, 1], GAUSS(true, 1))", "type-mismatch",
         "GAUSS parameters must be real", 52),
        ("random([1, 0], GAUSS(true, 1))", "type-mismatch",
         "GAUSS parameters must be real", 52),
        ("random([0, 1], WEIGHTS(1, 2))", "bad-random",
         "WEIGHTS needs a finite value set", 31),
        ("random([0, 1], PSI(1, 1))", "bad-random",
         "PSI needs a finite value set", 31),
        ("random([1, 1], GAUSS(0, 1))", "bad-random",
         "truncated GAUSS requires lo < hi, got lo 1.0 and hi 1.0", 38),
        ("random({1i, 2}, FLAT)", "type-mismatch",
         "set elements must be int, real, or bool", 39),
        ("random({1, true}, FLAT)", "type-mismatch",
         "set elements disagree", 38),
        ("random({1, true}, GAUSS(0, 1))", "type-mismatch",
         "set elements disagree", 38),
        ("random({1, 2}, FLAT(1))", "bad-random",
         "FLAT takes no parameters", 46),
        ("random({1, 2}, WEIGHTS(1))", "bad-random",
         "WEIGHTS needs one weight per value", 46),
        ("random({1, 2}, WEIGHTS(1, true))", "type-mismatch",
         "weights must be real", 57),
        ("random({1, 2}, PSI(1))", "bad-random",
         "PSI needs one amplitude per value", 46),
        ("random({1, 2}, PSI(1, true))", "type-mismatch",
         "amplitudes must be numeric", 53),
        ("random({1, 2}, GAUSS(0, 1))", "bad-random",
         "GAUSS needs an interval range", 31),
        ("random()", "syntax",
         "random takes (range, distribution) or (distribution)", 31),
        ("random({1}, FLAT, FLAT)", "syntax",
         "random takes (range, distribution) or (distribution)", 31),
        ("random(x, FLAT)", "syntax",
         "random range must be [lo, hi] or {v, ...}", 38),
        ("random({1, 2}, UNIFORM)", "syntax",
         "expected a distribution (FLAT, GAUSS, WEIGHTS, PSI)", 46),
        ("random({1, 2}, FLAT + 1)", "syntax",
         "expected a distribution (FLAT, GAUSS, WEIGHTS, PSI)", 51),
    ])
    def test_diagnostic_is_pinned(self, draw, code, message, col):
        assert diagnostics(self.MODEL % draw) == [(code, message, 2, col)]

    @pytest.mark.parametrize("source, code, col", [
        ("model m { state { x: real; } "
         "init { x = random([0.0, 1.0], FLAT); }\n"
         "law L { when true; then { } } }", "random-in-init", 41),
        ("model m { state { x: int; } init { x = 0; }\n"
         "law L { when random({1, 2}, FLAT) > 1; then { } } }",
         "random-in-guard", 14),
    ], ids=["init", "guard"])
    def test_a_banned_draw_is_located(self, source, code, col):
        line = 1 if code == "random-in-init" else 2
        assert diagnostics(source) == \
            [(code, "random() is not allowed here", line, col)]


class TestParserDiagnostics:
    @pytest.mark.parametrize("source, message, col", [
        ("model m { state { x: int; }\n  state { y: int; } init { x = 0; } "
         "law L { when true; then { } } }", "duplicate state block", 3),
        ("model m { state { x: int; } init { x = 0; }\n  init { x = 1; } "
         "law L { when true; then { } } }", "duplicate init block", 3),
        ("model m { state { x: int; } init { x = 0; } halt when x > 1;\n"
         "  halt when x > 2; law L { when true; then { } } }",
         "duplicate halt declaration", 3),
        ("model m { record R {\n  a: int in [0, 1]; } state { x: int; } "
         "init { x = 0; } law L { when true; then { } } }",
         "domains are only allowed on state fields", 10),
    ], ids=["state", "init", "halt", "record-domain"])
    def test_diagnostic_is_pinned(self, source, message, col):
        assert diagnostics(source) == [("syntax", message, 2, col)]


class TestIntLiterals:
    """An int literal is an int64: a larger one is a located ``bad-literal``
    diagnostic, never an int that a real promotion overflows later."""

    BIG = "1" + "0" * 400
    MESSAGE = "int literal outside int64 (largest is 9223372036854775807)"

    def _model(self, const, update):
        return ("model m {\n"
                f"  const c: real = {const};\n"
                "  state { x: real; } init { x = 0.0; }\n"
                f"  law L {{ when true; then {{ x = {update}; }} }} }}\n")

    @pytest.mark.parametrize("const, update, line, col", [
        ("1.0", BIG, 4, 33),
        (BIG, "c", 2, 19),
        ("1.0", "9223372036854775808", 4, 33),
        ("1.0", "9" * 5000, 4, 33),
    ], ids=["assigned", "constant", "int64-max-plus-one", "5000-digits"])
    def test_rejected_with_location(self, const, update, line, col):
        ast, diags = parse(self._model(const, update))
        assert ast is None
        assert [(d.code, d.message, d.loc.line, d.loc.col) for d in diags] \
            == [("bad-literal", self.MESSAGE, line, col)]

    @pytest.mark.parametrize("literal", ["9223372036854775807",
                                         "0" * 30 + "17"])
    def test_int64_literals_accepted(self, literal):
        model = load_model(self._model("1.0", literal))
        assert model.laws[0].name == "L"

    def test_cli_reports_the_location_and_exits_1(self, tmp_path, capsys):
        from causalkit.cli import main
        path = tmp_path / "big.cml"
        path.write_text(self._model(self.BIG, "c"), encoding="utf-8")
        assert main(["run", str(path), "--steps", "1"]) == 1
        assert capsys.readouterr().err == f"{path}:2:19: {self.MESSAGE}\n"


class TestRealLiterals:
    """A real or imaginary literal is a finite float: one past the largest
    is a located ``bad-literal`` diagnostic, never inf."""

    LARGEST = "1.7976931348623157e308"

    @staticmethod
    def _model(guard="x < 1.0", update="x + 1.0"):
        return ("model m {\n"
                "  state { x: real; z: complex; V: vector(4); }\n"
                "  init { x = 0.0; z = 0i; V = fill(4, 0.0); }\n"
                f"  law L {{ when {guard}; then {{ x = {update}; }} }} }}\n")

    @staticmethod
    def _message(kind):
        return (f"{kind} literal overflows a float (largest is "
                "1.7976931348623157e+308)")

    @pytest.mark.parametrize("guard, update, literal, kind", [
        ("x < 1e309", "x + 1.0", "1e309", "real"),
        ("x < 1.0", "x + 1.8e308", "1.8e308", "real"),
        ("x < 1.0", "abs(z + 2e400i)", "2e400i", "imaginary"),
        ("x < 1.0", "sum(fill(4, 1e309))", "1e309", "real"),
    ], ids=["guard", "assigned", "imaginary", "kit-argument"])
    def test_rejected_with_location(self, guard, update, literal, kind):
        source = self._model(guard, update)
        col = source.splitlines()[3].index(literal) + 1
        ast, diags = parse(source)
        assert ast is None
        assert [(d.code, d.message, d.loc.line, d.loc.col) for d in diags] \
            == [("bad-literal", self._message(kind), 4, col)]

    @pytest.mark.parametrize("literal", [LARGEST, "1e-400", LARGEST + "i"])
    def test_finite_literals_accepted(self, literal):
        model = load_model(self._model(update=f"x + abs({literal})"))
        assert model.laws[0].name == "L"

    def test_cli_reports_the_location_and_exits_1(self, tmp_path, capsys):
        from causalkit.cli import main
        path = tmp_path / "big.cml"
        path.write_text(self._model("x < 1e309"), encoding="utf-8")
        assert main(["run", str(path), "--steps", "1"]) == 1
        assert capsys.readouterr().err == \
            f"{path}:4:20: {self._message('real')}\n"

    def test_an_observable_is_refused(self, capsys):
        from causalkit.cli import main
        assert main(["run", "builtin:counter", "--steps", "1",
                     "--observables", "1e309"]) == 1
        assert capsys.readouterr().err == \
            f"error: bad observable '1e309': {self._message('real')}\n"


class TestParseExpression:
    def test_standalone(self):
        expr, diags = parse_expression("0.5 * x * x + 0.5 * v * v")
        assert expr is not None and not diags

    def test_trailing_junk(self):
        expr, diags = parse_expression("x + 1 garbage")
        assert expr is None
        assert diags


class TestNesting:
    """One fixed depth limit: past it the frontend gives a ``too-deep``
    diagnostic, never a RecursionError; at it every stage runs."""

    DEEP = 3000

    @staticmethod
    def _model(init: str = "1.0", body: str = "x = 1.0;") -> str:
        return ("model m {\n  state { x: real; }\n"
                f"  init {{ x = {init}; }}\n"
                f"  law L {{ when true; then {{ {body} }} }}\n}}\n")

    @staticmethod
    def _nested_ifs(n: int) -> str:
        return "if true { " * n + "x = 1.0; " + "} " * n

    def _too_deep(self, src: str, token: str):
        ast, diags = parse(src)
        assert ast is None
        (d,) = diags
        assert (d.code, d.message) == ("too-deep",
                                       f"nesting deeper than {MAX_DEPTH} "
                                       "levels")
        line = src.splitlines()[d.loc.line - 1]
        assert line[d.loc.col - 1:].startswith(token)
        return d

    def test_parentheses(self):
        d = self._too_deep(self._model("(" * self.DEEP + "1.0"
                                       + ")" * self.DEEP), "(")
        # the first parenthesis past the limit
        assert d.loc.col == len("  init { x = ") + MAX_DEPTH + 1

    def test_unary_minus(self):
        self._too_deep(self._model("- " * self.DEEP + "1.0"), "-")

    @pytest.mark.parametrize("op", ["!", "-"])
    def test_ten_thousand_prefix_operators(self, op):
        # prefix runs are read by a loop: no RecursionError however long
        expr, diags = parse_expression(op * 10_000 + "x")
        assert expr is None
        (d,) = diags
        assert d.code == "too-deep"
        assert d.loc.col == 10_000 - MAX_DEPTH

    def test_sum(self):
        d = self._too_deep(self._model(" + ".join(["1.0"] * self.DEEP)),
                           "+")
        # the operator whose node is one level past the limit
        assert d.loc.col == len("  init { x = ") + 6 * MAX_DEPTH + 5

    def test_nested_if_blocks(self):
        self._too_deep(self._model(body=self._nested_ifs(self.DEEP)), "{")

    def test_else_if_chain(self):
        # an else-if nests one level, its block one more
        chain = " else ".join(["if false { x = 1.0; }"] * self.DEEP)
        self._too_deep(self._model(body=chain), ("if", "{"))

    def test_observable(self):
        expr, diags = parse_expression("(" * self.DEEP + "x" + ")" * self.DEEP)
        assert expr is None
        assert diags[0].code == "too-deep"

    def test_cli_reports_the_location_and_exits_1(self, tmp_path, capsys):
        from causalkit.cli import main
        path = tmp_path / "deep.cml"
        path.write_text(self._model("(" * self.DEEP + "1.0"
                                    + ")" * self.DEEP), encoding="utf-8")
        assert main(["run", str(path), "--steps", "1"]) == 1
        col = len("  init { x = ") + MAX_DEPTH + 1
        assert capsys.readouterr().err == \
            f"{path}:3:{col}: nesting deeper than {MAX_DEPTH} levels\n"

    def test_model_at_the_limit_runs_and_round_trips(self):
        from causalkit import RunConfig, build_initial_state, run
        n = MAX_DEPTH
        src = ("model m {\n"
               "  state { a: real; b: real; c: real; d: real; x: real; }\n"
               "  init {\n"
               f"    a = {'(' * n}1.0{')' * n};\n"
               f"    b = {'- ' * n}1.0;\n"
               f"    c = {' + '.join(['1.0'] * (n + 1))};\n"
               f"    d = {'abs(' * n}1.0{')' * n};\n"
               "    x = 0.0;\n"
               "  }\n"
               # the law body is one block, so n - 1 ifs nest inside it
               f"  law L {{ when true; then {{ {self._nested_ifs(n - 1)} }} }}\n"
               "}\n")
        ast, diags = parse(src)
        assert ast is not None and not diags
        text = format_model(ast)
        again, diags = parse(text)
        assert again is not None and not diags
        assert structurally_equal(ast, again)
        for source in (src, text):
            model = load_model(source)
            trace = run(model, build_initial_state(model),
                        RunConfig(dt=1.0, max_steps=3))
            values = trace.final_state.values
            assert (values["a"], values["b"], values["c"], values["d"],
                    values["x"]) == (1.0, 1.0, n + 1.0, 1.0, 1.0)
        # one level more of each is too deep
        for grown in (src.replace("(1.0)", "((1.0))"),
                      src.replace("- 1.0", "- - 1.0"),
                      src.replace("1.0 + 1.0", "1.0 + 1.0 + 1.0"),
                      src.replace("abs(1.0)", "abs(abs(1.0))"),
                      src.replace("if true { x", "if true { if true { x")
                      .replace("} } }", "} } } }")):
            assert parse(grown)[1][0].code == "too-deep"
