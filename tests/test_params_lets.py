"""`param` declarations and `--param`, law-local `let`, constants as type
arguments, and the constructor intrinsics the bundled models use."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from causalkit import (
    BadParamError,
    RunConfig,
    analyze,
    branch_run,
    build_bundled_model,
    build_initial_state,
    classify_determinism,
    compile_model,
    format_model,
    load_model,
    parse,
    run,
    run_ensemble,
)
from causalkit import quantum
from causalkit.analyzer import CheckStrategy
from causalkit.cli import main
from causalkit.frontend import structurally_equal

from conftest import total_weight

PARAMS = """
model p {
  param n: int = 3;
  param rate: real = 0.5;
  const twice: int = 2 * n;
  state {
    k: int in [0, 1000];
    v: vector(n);
  }
  init {
    k = twice;
    v = fill(n, rate);
  }
  law Step { when true; then { k = k + n; } }
}
"""


def _errors(source: str) -> list:
    model, diags = compile_model(source)
    assert model is None
    return [(d.code, d.message, d.loc.line, d.loc.col) for d in diags
            if d.severity == "error"]


class TestParams:
    def test_default(self):
        model = load_model(PARAMS)
        state = build_initial_state(model)
        assert state.values["k"] == 6
        assert list(state.values["v"].values) == [0.5, 0.5, 0.5]

    def test_override_types_folds_and_reaches_types(self):
        model = load_model(PARAMS, params={"n": "2 + 2", "rate": "1"})
        state = build_initial_state(model)
        assert state.values["k"] == 8
        assert model.schema.fields["v"].length == 4
        # an int value for a real param is promoted, as in an initializer
        rate = model.schema.constants["rate"][1]
        assert rate == 1.0 and type(rate) is float

    def test_unknown_key(self):
        with pytest.raises(BadParamError,
                           match=r"^unknown parameter\(s\) for 'p': bogus, "
                                 r"twice$"):
            # a const is not a param
            load_model(PARAMS, params={"bogus": "1", "twice": "2"})

    @pytest.mark.parametrize("name, value", [
        ("n", "2.5"), ("n", "true"), ("n", "k"), ("n", "fill(2, 0.0)"),
        ("n", "random({1, 2}, FLAT)"), ("n", "1 +"), ("n", "1 / 0"),
        ("n", "99999999999999999999"),
    ])
    def test_ill_typed_value(self, name, value):
        with pytest.raises(BadParamError) as info:
            load_model(PARAMS, params={name: value})
        assert str(info.value) == f"bad value for parameter '{name}': {value!r}"

    @pytest.mark.parametrize("value", [13, 0.5, True, None, b"3", ["3"]],
                             ids=repr)
    def test_value_that_is_not_source_text(self, value):
        # the CLI passes strings; the Python API takes any object
        what = f"expected a str, got {type(value).__name__} {value!r}"
        with pytest.raises(BadParamError) as info:
            load_model(PARAMS, params={"n": value})
        assert str(info.value) == f"bad value for parameter 'n': {what}"
        with pytest.raises(BadParamError) as info:
            build_bundled_model("qftca_toy", {"cells": value})
        assert str(info.value) == f"bad value for parameter 'cells': {what}"

    @pytest.mark.parametrize("value", ["1e999", "1e308 * 10.0", "-1e999"])
    def test_non_finite_value(self, value):
        with pytest.raises(BadParamError) as info:
            load_model(PARAMS, params={"rate": value})
        assert str(info.value) == f"bad value for parameter 'rate': {value!r}"

    def test_bad_default_is_a_diagnostic_even_when_replaced(self):
        src = PARAMS.replace("param n: int = 3;", "param n: int = 3.5;")
        model, diags = compile_model(src, params={"n": "3"})
        assert model is None
        assert [d.code for d in diags if d.severity == "error"][0] \
            == "type-mismatch"

    def test_cli_param_on_a_file(self, tmp_path, capsys):
        path = tmp_path / "p.cml"
        path.write_text(PARAMS)
        code = main(["run", str(path), "--param", "n=5", "--steps", "1",
                     "--observables", "k,len(v)"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.splitlines()[1:] == ["0,0,10,5", "1,1,15,5"]

    def test_cli_bad_value_exit_1(self, capsys):
        code = main(["run", "builtin:double_slit", "--param", "bins=2.5"])
        _, err = capsys.readouterr()
        assert code == 1
        assert err == "error: bad value for parameter 'bins': '2.5'\n"

    @pytest.mark.parametrize("name, param, message", [
        ("double_slit", "bins=1", "two_slit: bins must be an int constant >= 2"),
        ("qftca_toy", "cells=2", "ca_world: cells must be an int constant >= 3"),
    ])
    def test_constructor_size_checks(self, name, param, message, capsys):
        code = main(["run", f"builtin:{name}", "--param", param])
        _, err = capsys.readouterr()
        assert code == 1
        assert re.fullmatch(rf"\d+:\d+: {message}\n", err)

    def test_field_length_over_the_cap_is_located_and_never_built(
            self, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(quantum, "ca_world",
                            lambda *args: calls.append(args))
        code = main(["run", "builtin:qftca_toy", "--param",
                     "cells=3000000000"])
        _, err = capsys.readouterr()
        assert code == 1
        assert err == "14:10: vector length must be at most 1048576\n"
        assert calls == []


TWO_DRAWS = """
model shared {
  state {
    a: int in {0, 1};
    b: int in {0, 1};
    c: int in {0, 1};
    done: bool;
  }
  init { a = 0; b = 0; c = 0; done = false; }
  halt when done;
  law Draw {
    when !done;
    then {
      let d = random({0, 1}, FLAT);
      a = d;
      if true {
        let e = 1 - d;
        c = e;
      }
      b = d;
      done = true;
    }
  }
}
"""

# complex literals whose imaginary part needs every digit, or an exponent
COMPLEX_LITERALS = """
model literals {
  state { z: complex; }
  init { z = 0.1234567891i; }
  law L { when true; then { z = z * 2.5e-300i + 1e16i - 3i; } }
}
"""


CFG = RunConfig(dt=1.0, max_steps=5)


def _outcome(state):
    return tuple(state.values[n] for n in "abc")


class TestLet:
    def test_one_draw_feeds_three_writes_under_run(self):
        model = load_model(TWO_DRAWS)
        init = build_initial_state(model)
        outcomes = {_outcome(run(model, init, replace(CFG, seed=seed))
                             .final_state) for seed in range(40)}
        assert outcomes == {(0, 0, 1), (1, 1, 0)}

    def test_branch_run_forks_once(self):
        model = load_model(TWO_DRAWS)
        tree = branch_run(model, build_initial_state(model), CFG,
                          depth_bound=4, width_bound=8)
        leaves = tree.leaves()
        assert sorted(_outcome(l.snapshot) for l in leaves) \
            == [(0, 0, 1), (1, 1, 0)]
        assert [l.weight for l in leaves] == [0.5, 0.5]

    def test_run_ensemble_matches(self):
        model = load_model(TWO_DRAWS)
        init = build_initial_state(model)
        finals = [_outcome(final) for _, final in
                  run_ensemble(model, init, replace(CFG, seed=3), 200)]
        assert set(finals) == {(0, 0, 1), (1, 1, 0)}

    def test_entangled_pair_measures_once(self):
        model, init = build_bundled_model("entangled_pair")
        tree = branch_run(model, init, CFG, depth_bound=4, width_bound=8)
        assert sorted((l.snapshot.values["s1"], l.snapshot.values["s2"],
                       l.weight) for l in tree.leaves()) \
            == [(-1, 1, 0.5), (1, -1, 0.5)]
        assert str(classify_determinism(model)) == "nondeterministic(Measure)"

    def test_entangled_pair_is_inspectable(self):
        model, init = build_bundled_model("entangled_pair")
        report = analyze(model, CheckStrategy("trace", runs=2,
                                              steps_per_run=2), init)
        # the measurement is CML, so its intrinsics are listed
        assert report.computability_notes == (
            "field 'pw' is unsampleable",
            "uses intrinsic 'pw_interact' (stochastic)",
            "uses intrinsic 'pw_spin' (deterministic)",
        )
        assert report.determinism.random_laws == ("Measure",)

    @pytest.mark.parametrize("body, code, message", [
        ("let d = 1; d = 2;", "assign-to-let", "cannot assign to let 'd'"),
        ("let x = 1;", "duplicate-name", "let 'x' shadows an existing name"),
        ("let d = 1; let d = 2;", "duplicate-name",
         "let 'd' shadows an existing name"),
        ("let c = 1;", "duplicate-name", "let 'c' shadows an existing name"),
        ("let dt = 1;", "reserved-name", "'dt' is reserved"),
        ("if true { let d = 1; } x = d;", "unknown-name",
         "unknown name 'd'"),
        ("let d = 1; for d in li { }", "duplicate-name",
         "loop variable 'd' shadows an existing name"),
        ("for i in li { let i = 1; }", "duplicate-name",
         "let 'i' shadows an existing name"),
    ])
    def test_let_diagnostics(self, body, code, message):
        src = ("model m { const c: int = 1; state { x: int; li: list(int); } "
               "init { x = 0; li = [1]; } "
               f"law L {{ when true; then {{ {body} }} }} }}")
        assert [(e[0], e[1]) for e in _errors(src)] == [(code, message)]

    def test_let_in_init_is_a_syntax_error(self):
        assert _errors("model m { state { x: int; } init { let d = 1; } "
                       "law L { when true; then { } } }")[0][0] == "syntax"

    def test_format_model_round_trips(self):
        ast, _ = parse(TWO_DRAWS)
        printed = format_model(ast)
        assert "      let d = random({0, 1}, FLAT);\n" in printed
        assert "        let e = (1 - d);\n" in printed
        again, diags = parse(printed)
        assert structurally_equal(ast, again), diags
        assert format_model(again) == printed
        ast, _ = parse(COMPLEX_LITERALS)
        printed = format_model(ast)
        assert "    z = 0.1234567891i;\n" in printed
        assert "(((z * 2.5e-300i) + 1e+16i) - 3.0i)" in printed
        again, diags = parse(printed)
        assert structurally_equal(ast, again), diags
        assert format_model(again) == printed


class TestConstructors:
    def test_two_slit_is_the_two_path_model(self):
        bins, half, sep, dist, k = 8, 30.0, 2.5, 80.0, 3.5
        pw = quantum.two_slit(bins, half, sep, dist, k)
        assert pw.n_paths == 2 * bins and pw.normalized
        assert total_weight(pw) == pytest.approx(1.0, abs=1e-12)
        centers = 0.5 * (np.linspace(-half, half, bins + 1)[:-1]
                         + np.linspace(-half, half, bins + 1)[1:])
        slits = pw.attr_array("slit").tolist()
        positions = pw.attr_array("position").tolist()
        for i, amp in enumerate(pw.amplitudes()):
            b, s = divmod(i, 2)
            assert (slits[i], positions[i]) == (s, float(centers[b]))
            y = (s - 0.5) * sep
            length = math.sqrt(dist ** 2 + (centers[b] - y) ** 2)
            assert amp == pytest.approx(
                np.exp(1j * k * length) / math.sqrt(2 * bins), abs=1e-15)

    def test_bundled_double_slit_params_reach_the_paths(self):
        _, state = build_bundled_model("double_slit", {"bins": "4",
                                                       "halfwidth": "30"})
        positions = state.values["pw"].pw.attr_array("position").tolist()
        assert positions == [-22.5, -22.5, -7.5, -7.5, 7.5, 7.5, 22.5, 22.5]

    def test_pw_spin_needs_one_path(self):
        model = load_model(
            "model m { state { pw: pwcollection(spin: int); s: int; } "
            "init { pw = pw_spins([[1], [-1]]); s = 0; } "
            "law L { when true; then { s = pw_spin(pw, 0); } } }")
        term = run(model, build_initial_state(model),
                   CFG).termination
        assert term.kind == "eval-error"
        assert term.message == "law 'L': pw_spin needs one path, got 2 " \
            "at 1:132"

    def test_ca_world_needs_the_world_records(self):
        assert _errors("model m { state { x: real; } "
                       "init { x = ca_world(10, 0.2).alpha; } "
                       "law L { when true; then { } } }") \
            == [("unknown-name",
                 "ca_world: the model declares no record 'CaWorld'", 1, 41)]

    @staticmethod
    def _world_model(records: str, call: str = "ca_world(10, 0.2)") -> str:
        return (f"model m {{\n{records}\n"
                "  state { w: CaWorld; }\n"
                f"  init {{ w = {call}; }}\n"
                "  law L { when true; then { w = ca_step(w); } }\n}")

    PARTICLE = ("  record CaParticle "
                "{ id: int; pos: int; vel: int; species: int; }")

    def test_ca_world_record_without_phi_is_located(self):
        assert _errors(self._world_model("  record CaWorld { a: int; }")) == [
            ("type-mismatch",
             "ca_world: record CaWorld needs phi: vector(10)", 4, 14),
            ("type-mismatch",
             "ca_step: record CaWorld needs phi: vector(n)", 5, 33)]

    def test_ca_particle_without_vel_and_species_is_located(self):
        records = ("  record CaParticle { id: int; pos: int; }\n"
                   "  record CaWorld { phi: vector(10); "
                   "particles: list(CaParticle); alpha: real; }")
        message = "record CaParticle needs the int fields id, pos, vel and " \
                  "species"
        assert _errors(self._world_model(records)) == [
            ("type-mismatch", f"ca_world: {message}", 5, 14),
            ("type-mismatch", f"ca_step: {message}", 6, 33)]

    def test_ca_world_phi_length_must_be_cells(self):
        records = (f"{self.PARTICLE}\n  record CaWorld {{ phi: vector(12); "
                   "particles: list(CaParticle); alpha: real; }")
        assert _errors(self._world_model(records)) == [
            ("type-mismatch",
             "ca_world: record CaWorld needs phi: vector(10)", 5, 14)]
        # ca_step steps a ring of any length
        load_model(self._world_model(records, "ca_world(12, 0.2)"))

    def test_ca_world_builds_exactly_its_records(self):
        records = (f"{self.PARTICLE}\n  record CaWorld {{ phi: vector(10); "
                   "particles: list(CaParticle); alpha: real; tag: int; }")
        assert _errors(self._world_model(records)) == [
            ("type-mismatch", "ca_world: builds exactly CaWorld "
             "{ phi, particles, alpha } and CaParticle { id, pos, vel, "
             "species }", 5, 14)]

    def test_ca_step_needs_a_real_alpha_and_particle_records(self):
        for fields, message in (
                ("phi: vector(4); particles: list(CaParticle); alpha: int;",
                 "record CaWorld needs alpha: real"),
                ("phi: vector(4); particles: list(int); alpha: real;",
                 "record CaWorld needs particles: list of a particle record")):
            source = (f"model m {{\n{self.PARTICLE}\n"
                      f"  record CaWorld {{ {fields} }}\n"
                      "  state { w: CaWorld; }\n  init { }\n"
                      "  law L { when true; then { w = ca_step(w); } }\n}")
            assert _errors(source) == [
                ("type-mismatch", f"ca_step: {message}", 6, 33)]

    def test_ca_step_keeps_other_records_and_fields(self):
        from causalkit import VList, VRecord, VVector, make_initial_state
        model = load_model(
            "model m {\n"
            "  record Ion { id: int; pos: int; vel: int; species: int; "
            "charge: int; }\n"
            "  record Ring { phi: vector(3); particles: list(Ion); "
            "alpha: real; label: int; }\n"
            "  state { w: Ring; }\n  init { }\n"
            "  law L { when true; then { w = ca_step(w); } }\n}")
        ion = VRecord("Ion", {"id": 1, "pos": 0, "vel": 1, "species": 0,
                              "charge": -1})
        ring = VRecord("Ring", {"phi": VVector(np.ones(3)),
                                "particles": VList([ion]), "alpha": 0.5,
                                "label": 7})
        trace = run(model, make_initial_state(model.schema, {"w": ring}), CFG)
        assert trace.termination.kind == "max-steps"
        world = trace.final_state.values["w"]
        assert world.record == "Ring" and world.fields["label"] == 7
        (ion,) = world.fields["particles"].items
        assert ion.record == "Ion"
        assert (ion.fields["pos"], ion.fields["charge"]) == (2, -1)

    def test_pw_detect_constant_nbins_is_capped(self):
        source = ("model m {{ state {{ pw: pwcollection(slit: int, "
                  "position: real); d: int; }} "
                  "init {{ pw = two_slit(4, 1.0, 0.5, 10.0, 1.0); d = -1; }} "
                  "law L {{ when true; then {{ "
                  "d = pw_detect(pw, {}, -1.0, 1.0, true); }} }} }}")
        for nbins, message in (
                ("3000000", "nbins must be at most 1048576 cells"),
                ("0", "nbins must be an int constant >= 1")):
            assert _errors(source.format(nbins)) == [
                ("type-mismatch", f"pw_detect: {message}", 1, 160)]
        load_model(source.format(2 ** 20))

    @pytest.mark.parametrize("nbins", [0, 3000000])
    def test_pw_detect_nbins_out_of_range_ends_the_run(self, nbins):
        model = load_model(
            f"model m {{ state {{ pw: pwcollection(slit: int, "
            f"position: real); d: int; k: int; }} "
            f"init {{ pw = two_slit(4, 1.0, 0.5, 10.0, 1.0); d = -1; "
            f"k = {nbins}; }} halt when d >= 0; "
            f"law L {{ when true; then {{ "
            f"d = pw_detect(pw, k, -1.0, 1.0, true); }} }} }}")
        term = run(model, build_initial_state(model), CFG).termination
        assert term.kind == "eval-error"
        assert f"nbins must be in [1, 1048576], got {nbins}" in term.message

    @pytest.mark.parametrize("lo, hi, message", [
        ("-1e308 * 10.0", "1.0", "lo -inf"),
        ("-1.0", "h * 1e308 * 10.0", "hi inf"),
        ("-1e308", "1e308", "hi - lo inf"),
    ])
    def test_pw_detect_non_finite_range_ends_the_run(self, lo, hi, message):
        model = load_model(
            f"model m {{ state {{ pw: pwcollection(slit: int, "
            f"position: real); d: int; h: real; }} "
            f"init {{ pw = two_slit(4, 1.0, 0.5, 10.0, 1.0); d = -1; "
            f"h = 1.0; }} halt when d >= 0; "
            f"law L {{ when true; then {{ "
            f"d = pw_detect(pw, 4, {lo}, {hi}, true); }} }} }}")
        term = run(model, build_initial_state(model), CFG).termination
        assert (term.kind, term.message) == (
            "eval-error", f"law 'L': pw_detect: non-finite {message} at 1:196")

    def test_qftca_world_follows_cells_and_alpha(self):
        _, state = build_bundled_model("qftca_toy", {"cells": "5",
                                                     "alpha": "0.35"})
        world = state.values["world"]
        assert len(world.fields["phi"].values) == 5
        assert world.fields["alpha"] == 0.35
        assert [(p.fields["pos"], p.fields["vel"])
                for p in world.fields["particles"].items] == [(2, 1), (3, -1)]
