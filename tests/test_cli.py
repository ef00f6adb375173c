import json
import sys
import warnings

import pytest

from causalkit.cli import main

from conftest import BROKEN, FIXTURES


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a laplacian applied again and again overflows its cgrid at step 48
BLOWUP = ("model blowup { state { g: cgrid(4, 0.001); n: int; } "
          "init { g = gauss_packet(4, 0.001, 0.0, 1.0, 0.0); n = 0; } "
          "law L { when true; then { g = laplacian(g); n = n + 1; } } }")
BLOWUP_ERROR = ("law 'L': non-finite value (-inf+0j) at index 0 written to "
                "'g' at 1:139")


# a list literal's item overflows at the first step: a real item, a
# constant one and a vector item
LIST_ITEM = {
    "constant": ("model listc { state { lr: list(real); x: real; } "
                 "init { lr = [0.0]; x = 1.0; } "
                 "law L { when true; then { lr = [1e300 * 1e300]; } } }",
                 "law 'L': non-finite value inf in a list literal at 1:118"),
    "real": ("model listr { state { lr: list(real); x: real; } "
             "init { lr = [0.0]; x = 1e300; } "
             "law L { when true; then { lr = [x * x]; } } }",
             "law 'L': non-finite value inf in a list literal at 1:116"),
    "vector": ("model listv { state { li: list(vector(2)); x: real; } "
               "init { li = [fill(2, 0.0)]; x = 1e300; } "
               "law L { when true; then { li = [fill(2, x * x)]; } } }",
               "law 'L': non-finite value inf at index 0 in a list literal "
               "at 1:128"),
}


# a record field overflows: ca_step's diffusion of a 1e300 field with
# alpha 1e300 at the second step, and ca_world's alpha at the first
_CA_RECORDS = ("record CaParticle { id: int; pos: int; vel: int; "
               "species: int; } record CaWorld { phi: vector(4); "
               "particles: list(CaParticle); alpha: real; } ")
RECORD_FIELD = {
    "phi": ("model caphi { " + _CA_RECORDS +
            "state { world: CaWorld; n: int; } "
            "init { world = ca_world(4, 1e300); n = 0; } "
            "law Seed { when n == 0; then { world.phi[0] = 1e300; n = 1; } } "
            "law Step { when n > 0; then { world = ca_step(world); "
            "n = n + 1; } } }",
            1, "law 'Step': ca_step: non-finite phi value -inf at index 0 "
               "at 1:337"),
    "alpha": ("model caalpha { " + _CA_RECORDS +
              "state { world: CaWorld; x: real; } "
              "init { world = ca_world(4, 0.2); x = 1e300; } "
              "law L { when true; then { world = ca_world(4, x * x); } } }",
              0, "law 'L': ca_world: non-finite alpha inf at 1:274"),
}


# tests/fixtures/overflowing_slit.cml: the slit's half-width overflows at
# step 5
SLIT_ERROR = ("law 'Open': two_slit: non-finite position nan on path 0 "
              "at 29:12")


def invoke_unwarned(argv, capsys):
    """``invoke``, asserting that no warning was issued, whatever the
    warning filters say."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = invoke(argv, capsys)
    assert caught == []
    return result


class TestRun:
    def test_builtin_counter(self, capsys):
        code, out, err = invoke(
            ["run", "builtin:counter", "--steps", "10", "--dt", "1",
             "--seed", "7", "--observables", "n"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,time,n"
        assert lines[-1] == "10,10,10"

    def test_syntax_error_file_diagnostic_and_exit_1(self, capsys):
        path = str(BROKEN / "01_missing_semicolon_guard.cml")
        code, out, err = invoke(["run", path], capsys)
        assert code == 1
        # file:line:col prefix
        assert err.splitlines()[0].startswith(path + ":4:")

    def test_every_broken_fixture_exits_1_with_location(self, capsys):
        for path in sorted(BROKEN.glob("*.cml")):
            code, out, err = invoke(["run", str(path)], capsys)
            assert code == 1, path.name
            first = err.splitlines()[0]
            assert first.startswith(str(path) + ":"), path.name

    def test_run_cml_file(self, capsys):
        code, out, err = invoke(
            ["run", str(FIXTURES / "guard_true.cml"), "--steps", "3",
             "--observables", "x"], capsys)
        assert code == 0
        assert out.strip().splitlines()[-1].startswith("3,")

    def test_no_applicable_law_exit_1(self, capsys, tmp_path):
        src = ("model m { state { x: real in [-5.0, 5.0]; } "
               "init { x = 2.0; } "
               "law L { when x < 0.0; then { x = x + 1.0; } } }")
        f = tmp_path / "gap.cml"
        f.write_text(src)
        code, out, err = invoke(["run", str(f)], capsys)
        assert code == 1
        assert "no-applicable-law" in err

    def test_record_every_passthrough(self, capsys):
        code, out, _ = invoke(
            ["run", "builtin:counter", "--steps", "10", "--record-every",
             "5", "--observables", "n"], capsys)
        assert code == 0
        steps = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert steps == ["0", "5", "10"]

    def test_jsonl_format(self, capsys):
        code, out, err = invoke(
            ["run", "builtin:counter", "--steps", "10", "--format", "jsonl",
             "--observables", "n"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        meta = json.loads(lines[-1])
        assert meta["terminationReason"]["kind"] == "halted"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, _, _ = invoke(
            ["run", "builtin:counter", "--steps", "10", "--out", str(target)],
            capsys)
        assert code == 0
        assert target.read_text().startswith("step,time")

    def test_byte_identical_with_same_seed(self, capsys):
        argv = ["run", "builtin:entangled_pair", "--steps", "5",
                "--seed", "3", "--observables", "s1,s2"]
        _, out1, _ = invoke(argv, capsys)
        _, out2, _ = invoke(argv, capsys)
        assert out1 == out2


    def test_non_finite_cgrid_write_is_an_eval_error(self, capsys,
                                                     tmp_path):
        f = tmp_path / "blowup.cml"
        f.write_text(BLOWUP)
        code, out, err = invoke_unwarned(
            ["run", str(f), "--steps", "60", "--record-every", "20",
             "--format", "jsonl"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert [json.loads(l)["step"] for l in lines[:-1]] == [0, 20, 40]
        assert json.loads(lines[-1])["terminationReason"] == {
            "kind": "eval-error", "message": BLOWUP_ERROR}
        assert err == f"terminated: eval-error: {BLOWUP_ERROR}\n"


    @pytest.mark.parametrize("item", sorted(LIST_ITEM))
    def test_non_finite_list_item_is_an_eval_error(self, capsys, tmp_path,
                                                   item):
        source, error = LIST_ITEM[item]
        f = tmp_path / "lists.cml"
        f.write_text(source)
        code, out, err = invoke_unwarned(
            ["run", str(f), "--steps", "2", "--format", "jsonl"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert [json.loads(l)["step"] for l in lines[:-1]] == [0]
        assert json.loads(lines[-1])["terminationReason"] == {
            "kind": "eval-error", "message": error}
        assert err == f"terminated: eval-error: {error}\n"


    @pytest.mark.parametrize("field", sorted(RECORD_FIELD))
    def test_non_finite_record_field_is_an_eval_error(self, capsys, tmp_path,
                                                      field):
        source, steps, error = RECORD_FIELD[field]
        f = tmp_path / "records.cml"
        f.write_text(source)
        code, out, err = invoke_unwarned(
            ["run", str(f), "--steps", "3", "--format", "jsonl"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert [json.loads(l)["step"] for l in lines[:-1]] == \
            list(range(steps + 1))
        assert json.loads(lines[-1])["terminationReason"] == {
            "kind": "eval-error", "message": error}
        assert err == f"terminated: eval-error: {error}\n"

    def test_non_finite_path_collection_is_an_eval_error(self, capsys):
        code, out, err = invoke_unwarned(
            ["run", str(FIXTURES / "overflowing_slit.cml"), "--steps", "6",
             "--format", "jsonl"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert [json.loads(l)["step"] for l in lines[:-1]] == \
            [0, 1, 2, 3, 4]
        assert json.loads(lines[-1])["terminationReason"] == {
            "kind": "eval-error", "message": SLIT_ERROR}
        assert err == f"terminated: eval-error: {SLIT_ERROR}\n"


class TestAnalyze:
    def test_overlap_fail_witness_exit_0(self, capsys):
        code, out, err = invoke(
            ["analyze", str(FIXTURES / "overlap.cml"), "--strategy", "sample",
             "--samples", "10000", "--seed", "1"], capsys)
        assert code == 0  # analysis succeeded; the verdict is data
        report = json.loads(out)
        assert report["consistency"]["status"] == "fail"
        assert "witness" in report["consistency"]
        assert set(report["consistency"]["laws"]) == {"Neg", "Pos"}

    def test_guard_true_trivially_complete(self, capsys):
        code, out, _ = invoke(
            ["analyze", str(FIXTURES / "guard_true.cml")], capsys)
        report = json.loads(out)
        assert report["completeness"]["status"] == "pass-trivially"

    def test_builtin_schrodinger(self, capsys):
        code, out, _ = invoke(
            ["analyze", "builtin:schrodinger_1d", "--strategy", "sample",
             "--samples", "50"], capsys)
        report = json.loads(out)
        assert report["determinism"]["deterministic"] is True
        assert any("unsampleable" in n for n in report["computabilityNotes"])

    @pytest.mark.parametrize("name", ["double_slit", "entangled_pair"])
    def test_builtin_traces_start_from_the_bundled_state(self, capsys, name):
        # both have an unsampleable `pw` field the init block cannot build
        code, out, _ = invoke(["analyze", f"builtin:{name}", "--runs", "2",
                               "--steps", "5"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["completeness"]["status"] == "pass-bounded"
        assert report["consistency"]["status"] == "pass"

    def test_analyze_broken_sources_exit_1_no_crash(self, capsys):
        for path in sorted(BROKEN.glob("*.cml")):
            code, out, err = invoke(["analyze", str(path)], capsys)
            assert code == 1, path.name
            assert err.splitlines()[0].startswith(str(path) + ":")

    def test_enumerate_strategy(self, capsys, tmp_path):
        src = ("model fin { state { n: int in [0, 3]; } init { n = 0; } "
               "law Lo { when n < 2; then { n = n + 1; } } "
               "law Hi { when n >= 2; then { n = 0; } } }")
        f = tmp_path / "fin.cml"
        f.write_text(src)
        code, out, _ = invoke(
            ["analyze", str(f), "--strategy", "enumerate"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["consistency"]["status"] == "pass"
        assert report["consistency"]["statesChecked"] == 4


class TestBranch:
    def test_psi_draw_leaves(self, capsys):
        code, out, _ = invoke(
            ["branch", str(FIXTURES / "psi_draw.cml"), "--depth", "4",
             "--width", "16"], capsys)
        assert code == 0
        tree = json.loads(out)
        weights = sorted(c["weight"] for c in tree["root"]["children"])
        assert weights == pytest.approx([0.36, 0.64], abs=1e-12)

    def test_deep_tree_is_written(self, capsys, tmp_path):
        # deeper than the interpreter's recursion limit: building the
        # tree's JSON and encoding it both walk with explicit stacks
        out = tmp_path / "tree.json"
        code, _, err = invoke(
            ["branch", str(FIXTURES / "walk.cml"), "--depth", "1000",
             "--width", "1", "--steps", "1001", "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)   # the C decoder counts its depth
        try:
            node = json.loads(out.read_text(encoding="utf-8"))["root"]
        finally:
            sys.setrecursionlimit(limit)
        levels = 0
        while "children" in node:
            (node,) = [c for c in node["children"] if not c.get("pruned")]
            levels += 1
        assert levels == 1000
        assert node["termination"]["kind"] == "depth-bound"

    def test_continuous_not_branchable_exit_1(self, capsys, tmp_path):
        src = ("model m { state { x: real in [0.0, 1.0]; } init { x = 0.0; } "
               "halt when x > 0.5; "
               "law L { when x <= 0.5; "
               "then { x = random([0.0, 1.0], FLAT); } } }")
        f = tmp_path / "cont.cml"
        f.write_text(src)
        code, out, err = invoke(["branch", str(f)], capsys)
        assert code == 1
        assert "not branchable" in err


    def test_non_finite_cgrid_write_ends_the_lineage(self, capsys,
                                                    tmp_path):
        f = tmp_path / "blowup.cml"
        f.write_text(BLOWUP)
        code, out, err = invoke_unwarned(
            ["branch", str(f), "--steps", "60", "--depth", "2"], capsys)
        assert (code, err) == (0, "")
        root = json.loads(out)["root"]
        assert root["termination"] == {"kind": "eval-error",
                                       "message": BLOWUP_ERROR}
        # the witness is the state before the failing step
        assert root["state"]["time"] == 47.0
        assert root["state"]["values"]["n"]["v"] == 47


    @pytest.mark.parametrize("item", sorted(LIST_ITEM))
    def test_non_finite_list_item_ends_the_lineage(self, capsys, tmp_path,
                                                   item):
        source, error = LIST_ITEM[item]
        f = tmp_path / "lists.cml"
        f.write_text(source)
        code, out, err = invoke_unwarned(["branch", str(f), "--steps", "2"],
                                         capsys)
        assert (code, err) == (0, "")
        root = json.loads(out, parse_constant=pytest.fail)["root"]
        assert root["termination"] == {"kind": "eval-error",
                                       "message": error}
        assert root["state"]["time"] == 0.0


    @pytest.mark.parametrize("field", sorted(RECORD_FIELD))
    def test_non_finite_record_field_ends_the_lineage(self, capsys, tmp_path,
                                                      field):
        source, steps, error = RECORD_FIELD[field]
        f = tmp_path / "records.cml"
        f.write_text(source)
        code, out, err = invoke_unwarned(["branch", str(f), "--steps", "3"],
                                         capsys)
        assert (code, err) == (0, "")
        root = json.loads(out, parse_constant=pytest.fail)["root"]
        assert root["termination"] == {"kind": "eval-error",
                                       "message": error}
        # the witness is the state before the failing step
        assert root["state"]["time"] == float(steps)

    def test_non_finite_path_collection_ends_the_lineage(self, capsys):
        code, out, err = invoke_unwarned(
            ["branch", str(FIXTURES / "overflowing_slit.cml"), "--steps",
             "6"], capsys)
        assert (code, err) == (0, "")
        assert "NaN" not in out and "Infinity" not in out
        root = json.loads(out, parse_constant=pytest.fail)["root"]
        assert root["termination"] == {"kind": "eval-error",
                                       "message": SLIT_ERROR}
        # the witness is the state before the failing step
        assert root["state"]["time"] == 4.0


class TestListModels:
    def test_lists_all(self, capsys):
        code, out, _ = invoke(["list-models"], capsys)
        assert code == 0
        names = out.strip().splitlines()
        assert "double_slit" in names and len(names) == 7


class TestHistogram:
    def test_single_trial_single_bin(self, capsys):
        code, out, _ = invoke(
            ["histogram", "builtin:double_slit", "--trials", "1",
             "--seed", "5", "--observables", "detected"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert len(rows) == 1
        assert rows[0][1] == "1"
        assert rows[0][2] == "1"

    def test_frequencies_sum_to_one(self, capsys):
        code, out, _ = invoke(
            ["histogram", "builtin:double_slit", "--trials", "500",
             "--seed", "2", "--observables", "detected"], capsys)
        rows = out.strip().splitlines()[1:]
        total = sum(float(r.split(",")[2]) for r in rows)
        assert abs(total - 1.0) < 1e-12
        counts = sum(int(r.split(",")[1]) for r in rows)
        assert counts == 500

    def test_param_forwarding(self, capsys):
        code, out, _ = invoke(
            ["histogram", "builtin:double_slit", "--param", "detector=on",
             "--trials", "50", "--seed", "9", "--observables", "detected"],
            capsys)
        assert code == 0

    def test_unknown_observable_exit_1(self, capsys):
        code, out, err = invoke(
            ["histogram", "builtin:counter", "--trials", "5",
             "--observables", "zz"], capsys)
        assert code == 1
        assert "zz" in err

    def test_deterministic_output(self, capsys):
        argv = ["histogram", "builtin:double_slit", "--trials", "200",
                "--seed", "11", "--observables", "detected"]
        _, out1, _ = invoke(argv, capsys)
        _, out2, _ = invoke(argv, capsys)
        assert out1 == out2

    def test_real_outcome_uniform_bins(self, capsys, tmp_path):
        src = ("model m { state { x: real in [0.0, 1.0]; done: bool; } "
               "init { x = 0.0; done = false; } halt when done; "
               "law L { when !done; "
               "then { x = random([0.0, 1.0], FLAT); done = true; } } }")
        f = tmp_path / "u.cml"
        f.write_text(src)
        code, out, _ = invoke(
            ["histogram", str(f), "--trials", "300", "--bins", "4",
             "--seed", "3", "--observables", "x"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 4
        assert sum(int(r.split(",")[1]) for r in rows) == 300

    @pytest.mark.parametrize("halfwidth, shown", [("0", "[0.0, 0.0]"),
                                                  ("-1", "[1.0, -1.0]")])
    def test_degenerate_screen_is_an_eval_error(self, capsys, halfwidth,
                                                shown):
        code, out, err = invoke(
            ["histogram", "builtin:double_slit", "--param",
             f"halfwidth={halfwidth}", "--param", "bins=4",
             "--observables", "detected", "--trials", "20"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("trial 0 terminated: eval-error: law 'Detect': "
                       f"pw_detect: empty detection range {shown} at 21:18\n")

    def test_names_the_lowest_failing_trial(self, capsys):
        # fallible.cml divides by zero on some branches; trials past the
        # first failing one may fail too, and only the first is reported
        code, out, err = invoke(
            ["histogram", str(FIXTURES / "fallible.cml"), "--observables",
             "x", "--trials", "50", "--steps", "2", "--seed", "1"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("trial 12 terminated: eval-error: law 'Walk': "
                       "division by zero at 6:13\n")

    @pytest.mark.parametrize("seed, message", [
        ("3", "trial 1 terminated: eval-error: division by zero at 1:3\n"),
        ("6", "trial 1 terminated: eval-error: law 'Divide': division by "
              "zero at 13:13\n"),
    ])
    def test_names_the_first_trial_of_either_failure(self, capsys, seed,
                                                     message):
        # observe_error.cml fails on some trials in its law and on others
        # in the observable; whichever kind comes first is reported
        code, out, err = invoke(
            ["histogram", str(FIXTURES / "observe_error.cml"),
             "--observables", "1 / x", "--trials", "200", "--seed", seed],
            capsys)
        assert code == 1
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("outcome", ["complex(x, 0.0)",
                                         "complex(1.0, 0.0)"])
    def test_complex_outcome_exits_1_before_any_trial(self, capsys,
                                                      monkeypatch, outcome):
        # complex outcomes have no order: varying ones died in min() with
        # a traceback, and a constant one printed one bin
        def no_trials(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr("causalkit.cli.run_ensemble", no_trials)
        code, out, err = invoke(
            ["histogram", str(FIXTURES / "flat_real.cml"), "--observables",
             outcome, "--trials", "20"], capsys)
        assert (code, out) == (1, "")
        assert err == (f"error: histogram outcome '{outcome}' must be int, "
                       "bool or real, got complex\n")


class TestUsageErrors:
    def test_no_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_flag_value_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "builtin:counter", "--steps", "many"])
        assert exc.value.code == 2

    def test_nonpositive_dt_exit_2(self, capsys):
        code, _, err = invoke(["run", "builtin:counter", "--dt", "0"], capsys)
        assert code == 2
        assert "dt" in err

    @pytest.mark.parametrize("command", [
        ["run"], ["histogram", "--observables", "n", "--trials", "3"],
        ["branch"]])
    def test_non_finite_times_exit_2(self, capsys, command):
        # an infinite dt, or a finite one whose last step's time is not
        # finite, is a usage error before the first step
        for dt, message in (
                ("inf", "dt must be finite, got inf\n"),
                ("1e308", "time at step 3 is not finite: 0.0 + 3 * 1e+308\n")):
            code, out, err = invoke(
                [command[0], "builtin:counter", *command[1:], "--dt", dt,
                 "--steps", "3"], capsys)
            assert (code, out, err) == (2, "", "usage error: " + message)
        code, _, _ = invoke([command[0], "builtin:counter", *command[1:],
                             "--dt", "1e307", "--steps", "3"], capsys)
        assert code == 0

    def test_zero_depth_exit_2(self, capsys):
        code, _, err = invoke(["branch", "builtin:counter", "--depth", "0"],
                              capsys)
        assert code == 2

    @pytest.mark.parametrize("flags, flag", [
        (["--trials", "0"], "--trials"),
        (["--trials", "-5"], "--trials"),
        (["--bins", "0"], "--bins"),
        (["--bins", "-3"], "--bins"),
        (["--trials", "0", "--bins", "4"], "--trials"),
    ])
    def test_histogram_nonpositive_trials_or_bins_exit_2(self, capsys,
                                                         flags, flag):
        code, out, err = invoke(
            ["histogram", "builtin:double_slit", "--observables", "detected"]
            + flags, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: ") and flag in err

    def test_histogram_one_bin_accepted(self, capsys):
        code, out, _ = invoke(
            ["histogram", "builtin:double_slit", "--observables", "detected",
             "--trials", "20", "--bins", "1"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == "20"

    def test_unknown_param_on_file_model_exit_1(self, capsys):
        code, _, err = invoke(
            ["run", str(FIXTURES / "guard_true.cml"), "--param", "a=1"],
            capsys)
        assert code == 1
        assert err == "error: unknown parameter(s) for 'guard_true': a\n"

    def test_unknown_builtin_exit_1(self, capsys):
        code, _, err = invoke(["run", "builtin:nope"], capsys)
        assert code == 1
        assert "nope" in err


class TestParserReuse:
    """main builds its argument parser once per process."""

    RUNS = (["run", "builtin:qftca_toy", "--param", "cells=5", "--param",
             "alpha=0.35", "--observables", "world.particles[0].vel",
             "--steps", "3"],
            # no --param: a default list mutated by the first call would
            # hand this one cells=5
            ["run", "builtin:qftca_toy", "--observables",
             "world.particles[1].pos,world.alpha", "--steps", "3"])

    def test_repeated_main_calls_match_fresh_processes(self, capsys):
        import os
        import subprocess
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        fresh = [subprocess.run([sys.executable, "-m", "causalkit.cli",
                                 *argv], capture_output=True, check=True,
                                env=env).stdout.decode("utf-8")
                 for argv in self.RUNS]
        in_process = [invoke(argv, capsys)[1] for argv in self.RUNS]
        assert in_process == fresh
        assert fresh[0] != fresh[1]

    def test_the_parser_is_built_once(self):
        from causalkit.cli import build_parser

        assert build_parser() is build_parser()
        args = build_parser().parse_args(["run", "builtin:counter"])
        assert args.param == []
