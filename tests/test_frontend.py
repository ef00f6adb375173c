from pathlib import Path

import pytest

from causalkit import classify_determinism, load_model, parse, typecheck
from causalkit.frontend import format_model, lower, structurally_equal
from causalkit.frontend.parser import MAX_DEPTH, parse_expression

from conftest import BROKEN, FIXTURES, fixture_source

MINIMAL = ("model M { state { n: int in [0, 100]; } init { n = 0; } "
           "law Inc { when true; then { n = n + 1; } } }")


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

    def test_law_order_and_count_preserved(self):
        ast, _ = parse(fixture_source("partition.cml"))
        typed, _ = typecheck(ast)
        model = lower(typed)
        assert [l.name for l in model.laws] == ["Down", "Up"]


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
