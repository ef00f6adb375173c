import json
import sys

import pytest

from causalkit.cli import main

from conftest import BROKEN, FIXTURES


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
