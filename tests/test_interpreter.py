import dataclasses
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import (
    ContinuousRandomError,
    RngStream,
    RunConfig,
    branch_run,
    build_bundled_model,
    build_initial_state,
    compile_observable,
    list_bundled_models,
    load_model,
    run,
    run_ensemble,
    world_tree_text,
    write_trace,
)
from causalkit import interpreter
from causalkit.engine import halts
from causalkit.engine import step as engine_step
from causalkit.errors import EvalError, MissingFieldError, SinkError
from causalkit.frontend.parser import parse_expression
from causalkit.frontend.typecheck import check_standalone_expr
from causalkit.interpreter import (
    _STEP_ERRORS,
    ReplaySource,
    Termination,
    Trace,
    TraceRow,
    WorldNode,
    WorldTree,
    _termination,
    format_scalar,
)

from conftest import FIXTURES, PACKAGE_PATH


# runs argv[1:] with stdout to /dev/null and prints its exit code and its
# own peak RSS (ru_maxrss from wait4, KiB on Linux; RUSAGE_CHILDREN would
# give the largest of every child waited for). A process's ru_maxrss
# starts from the peak of the image it was spawned from, so the command is
# spawned from this small process, not from the suite: spawned from a
# process that had touched 160 MB, `python -c pass` read 180 MiB
PEAK_RSS = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,\n"
    "                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull,\n"
    "                                    os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")


def observable(model, text):
    expr, _ = parse_expression(text)
    td, diags = check_standalone_expr(expr, model.schema)
    assert td is not None, diags
    return (text, compile_observable(expr, model.schema))


def one_hot(n, k):
    probs = np.zeros(n)
    probs[k] = 1.0
    return probs


@pytest.mark.parametrize("probs", [
    one_hot(64, 32), one_hot(64, 0), one_hot(64, 63),
    np.array([0.0, 0.0, 0.25, 0.0, 0.75]),
    np.array([-0.0, 0.0, 5e-324, 1.0 - 5e-324]),
    np.array([0.0, 5e-324, 0.0, 0.0]),
], ids=["one-hot middle", "one-hot first", "one-hot last", "leading zeros",
        "signed zero then subnormal", "lone subnormal"])
def test_replay_without_stream_takes_the_first_positive_outcome(probs):
    source = ReplaySource(())
    k = source.categorical(probs)
    assert type(k) is int
    assert k == next(i for i, p in enumerate(probs) if p > 0.0)
    assert source.draws == [(probs, None, k)]


def test_replayed_gives_each_prefix_outcome_once():
    # replayed() and categorical() take turns at one position: each
    # prefix outcome is given once, by whichever asks
    source = ReplaySource((3, 1, 4))
    assert source.replayed() == 3
    assert source.categorical(np.ones(5) / 5) == 1
    assert source.replayed() == 4
    assert source.replayed() is None and source.pos == 3
    assert source.draws == []
    # past the prefix the draw is new, and recorded
    probs = np.array([0.0, 1.0])
    assert source.categorical(probs) == 1
    assert source.draws == [(probs, None, 1)]
    assert source.replayed() is None


def test_a_stream_replays_nothing():
    stream = RngStream(7)
    assert stream.replayed() is None
    assert stream.draw_count == 0


class TestRun:
    def test_counter_halts_in_exactly_ten_steps(self):
        model, state = build_bundled_model("counter")
        cfg = RunConfig(dt=1.0, max_steps=100, seed=0,
                        observables=(observable(model, "n"),))
        trace = run(model, state, cfg)
        assert trace.termination.kind == "halted"
        assert trace.rows[-1].step == 10
        assert trace.final_state.values["n"] == 10
        # recorded times are exact multiples of dt
        for row in trace.rows:
            assert row.time == row.step * 1.0

    def test_configs_without_observables_share_one_empty_row(self):
        # as the analyzer's trace runs build theirs, one per run
        model, state = build_bundled_model("counter")
        first, second = (RunConfig(dt=1.0, max_steps=n) for n in (3, 5))
        assert first.observe is second.observe
        trace = run(model, state, first)
        assert [row.values for row in trace.rows] == [()] * 4

    def test_a_row_holds_what_was_observed_not_the_state(self):
        # a schrodinger_1d state holds a 512-cell psi, about 8.7 KB; a row
        # observing one number of it keeps none of it alive
        model, state = build_bundled_model("schrodinger_1d")
        cfg = RunConfig(dt=model.default_timestep, max_steps=500,
                        observables=(observable(model, "abs2(psi[0])"),))
        run(model, state, cfg)   # the model's step code is compiled now
        tracemalloc.start()
        try:
            trace = run(model, state, cfg)
            held = tracemalloc.get_traced_memory()[0]
            rows = len(trace.rows)
            del trace
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rows == 501
        assert held / rows < 1024

    def test_a_long_cml_run_peaks_under_80_mib(self):
        # the same through `cml run`: 20,000 rows of one number each keep
        # its peak RSS under 80 MiB, where rows that held their 512-cell
        # state took about 208 MiB
        result = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-m",
             "causalkit.cli", "run", "builtin:schrodinger_1d", "--steps",
             "20000", "--observables", "abs2(psi[0])"],
            capture_output=True, check=True, text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_PATH})
        code, peak = map(int, result.stdout.split())
        assert code == 0, result.stderr
        assert peak / 1024 < 80

    def test_a_100000_step_cml_run_peaks_under_60_mib(self):
        # the trace is streamed in blocks of rows, so five times the rows
        # of the run above take no more memory; held whole, they peaked at
        # about 81 MiB
        result = subprocess.run(
            [sys.executable, "-c", PEAK_RSS, sys.executable, "-m",
             "causalkit.cli", "run", "builtin:schrodinger_1d", "--steps",
             "100000", "--observables", "abs2(psi[0])"],
            capture_output=True, check=True, text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_PATH})
        code, peak = map(int, result.stdout.split())
        assert code == 0, result.stderr
        assert peak / 1024 < 60

    def test_rows_go_to_the_sink_given(self):
        # a callable is given each row as it is recorded, and False records
        # none; the steps and the final state are the same either way
        model, state = build_bundled_model("free_particle")
        cfg = RunConfig(dt=0.5, max_steps=7, record_every=3,
                        observables=(observable(model, "x"),))
        kept = run(model, state, cfg)
        given = []
        streamed = run(model, state, cfg,
                       rows=lambda *row: given.append(row))
        bare = run(model, state, cfg, rows=False)
        assert given == [(r.step, r.time, r.values) for r in kept.rows]
        assert [r.step for r in kept.rows] == [0, 3, 6]
        assert streamed.rows == bare.rows == ()
        assert kept.steps == streamed.steps == bare.steps == 7
        assert kept.final_state.values == bare.final_state.values

    def test_steps_count_the_steps_applied(self):
        # a step that raises is not taken: the run ends at the state
        # before it, as many steps in
        model = load_model(
            "model m { state { n: int in [0, 9]; x: real; } "
            "init { n = 0; x = 0.0; } "
            "law L { when true; then { x = 1.0 / (3 - n); n = n + 1; } } }")
        trace = run(model, build_initial_state(model),
                    RunConfig(dt=1.0, max_steps=10))
        assert trace.termination.kind == "eval-error"
        assert trace.steps == 3 == trace.final_state.values["n"]
        assert len(trace.rows) == 4

    def test_no_applicable_law_witness(self):
        model = load_model(
            "model m { state { x: real in [-5.0, 5.0]; } init { x = 2.0; } "
            "law L { when x < 0.0; then { x = x + 1.0; } } }")
        trace = run(model, build_initial_state(model),
                    RunConfig(dt=1.0, max_steps=10))
        assert trace.termination.kind == "no-applicable-law"
        assert trace.termination.witness.values["x"] == 2.0
        assert trace.termination.is_error

    def test_max_steps(self):
        model, state = build_bundled_model("free_particle")
        trace = run(model, state, RunConfig(dt=0.5, max_steps=7))
        assert trace.termination.kind == "max-steps"
        assert trace.rows[-1].step == 7

    def test_halt_true_at_init_means_zero_steps(self):
        model = load_model(
            "model m { state { n: int in [0, 9]; } init { n = 5; } "
            "halt when n >= 5; "
            "law Inc { when true; then { n = n + 1; } } }")
        trace = run(model, build_initial_state(model),
                    RunConfig(dt=1.0, max_steps=10))
        assert trace.termination.kind == "halted"
        assert len(trace.rows) == 1
        assert trace.final_state.values["n"] == 5

    def test_an_unknown_mode_is_refused_when_the_config_is_built(self):
        # refused before any run, so a model that halts at its initial
        # state cannot hide it
        with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
            RunConfig(dt=1.0, max_steps=3, mode="bogus")

    def test_csv_floats_have_17_significant_digits(self):
        model, state = build_bundled_model("free_particle")
        cfg = RunConfig(dt=0.1, max_steps=3,
                        observables=(observable(model, "x"),))
        buf = io.BytesIO()
        write_trace(run(model, state, cfg), "csv", buf)
        last = buf.getvalue().decode().strip().splitlines()[-1]
        _, t, x = last.split(",")
        assert t == format(3 * 0.1, ".17g")
        assert float(x) == pytest.approx(0.3)

    def test_eval_error_lands_in_termination(self):
        model = load_model(
            "model m { state { n: int in [0, 9]; x: real in [0.0, 2.0]; } "
            "init { n = 0; x = 1.0; } "
            "law L { when true; "
            "then { n = n + 1; x = 1.0 / (3.0 - n); } } }")
        trace = run(model, build_initial_state(model),
                    RunConfig(dt=1.0, max_steps=10))
        assert trace.termination.kind == "eval-error"
        assert "division by zero" in trace.termination.message
        # the partial trace up to the failing step is retained
        assert trace.rows[-1].step == 3

    def test_non_finite_vector_write_is_an_eval_error(self):
        # fill's argument is a product, checked by no write of its own
        model = load_model(
            "model m { state { v: vector(3); x: real; } "
            "init { v = fill(3, 0.0); x = 1e300; } "
            "law L { when true; then { v = fill(3, x * x); } } }")
        trace = run(model, build_initial_state(model),
                    RunConfig(dt=1.0, max_steps=5))
        assert trace.termination == Termination(
            "eval-error",
            "law 'L': non-finite value inf at index 0 written to 'v' at 1:108")
        assert trace.final_state.values["v"].values.tolist() == [0.0] * 3

    def test_record_every_stride(self):
        model, state = build_bundled_model("free_particle")
        cfg = RunConfig(dt=0.25, max_steps=20, record_every=5,
                        observables=(observable(model, "x"),))
        trace = run(model, state, cfg)
        assert [r.step for r in trace.rows] == [0, 5, 10, 15, 20]
        # strictly increasing by dt * record_every
        gaps = {round(b.time - a.time, 12)
                for a, b in zip(trace.rows, trace.rows[1:])}
        assert gaps == {1.25}

    def test_same_seed_byte_identical_traces(self, load_fixture_model):
        model = load_fixture_model("two_coin.cml")
        state = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=10, seed=99,
                        observables=(observable(model, "a"),
                                     observable(model, "b")))

        def serialize(fmt):
            buf = io.BytesIO()
            write_trace(run(model, state, cfg), fmt, buf)
            return buf.getvalue()

        assert serialize("csv") == serialize("csv")
        assert serialize("jsonl") == serialize("jsonl")


class TestWriteTrace:
    def trace(self, observables=("x",)):
        model, state = build_bundled_model("free_particle")
        obs = tuple(observable(model, o) for o in observables)
        cfg = RunConfig(dt=1.0, max_steps=3, observables=obs)
        return run(model, state, cfg)

    def test_csv_line_count_and_header(self):
        buf = io.BytesIO()
        n = write_trace(self.trace(), "csv", buf)
        text = buf.getvalue().decode()
        lines = text.strip().split("\n")
        assert lines[0] == "step,time,x"
        assert len(lines) == 5  # header + rows 0..3
        assert n == len(buf.getvalue())

    def test_csv_empty_observables(self):
        buf = io.BytesIO()
        write_trace(self.trace(observables=()), "csv", buf)
        assert buf.getvalue().decode().splitlines()[0] == "step,time"

    def test_jsonl_trailing_metadata(self):
        buf = io.BytesIO()
        write_trace(self.trace(), "jsonl", buf)
        lines = buf.getvalue().decode().strip().split("\n")
        meta = json.loads(lines[-1])
        assert meta["terminationReason"]["kind"] == "max-steps"
        assert meta["config"]["dt"] == 1.0
        for line in lines[:-1]:
            row = json.loads(line)
            assert set(row) == {"step", "time", "values"}

    def test_unknown_format_is_refused(self):
        with pytest.raises(ValueError, match="^unknown trace format 'xml'$"):
            write_trace(self.trace(), "xml", io.BytesIO())

    def test_text_sink(self):
        # a sink that takes no bytes is given the text, and the count is
        # still of the UTF-8 bytes
        buf, data = io.StringIO(), io.BytesIO()
        n = write_trace(self.trace(), "csv", buf)
        write_trace(self.trace(), "csv", data)
        assert buf.getvalue().encode() == data.getvalue()
        assert n == len(data.getvalue())

    def test_a_sink_that_cannot_be_written_is_refused(self):
        with pytest.raises(SinkError) as exc:
            write_trace(self.trace(), "csv", 42)
        assert type(exc.value) is SinkError
        assert str(exc.value) == "cannot write to 42"

    def test_file_sink(self, tmp_path):
        target = tmp_path / "trace.csv"
        n = write_trace(self.trace(), "csv", str(target))
        assert target.read_bytes()
        assert n == len(target.read_bytes())

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs a device that refuses every write")
    def test_a_file_that_cannot_take_the_text_is_refused(self):
        # a short trace fits the file's buffer, so the device refuses it
        # when the file is closed
        with pytest.raises(SinkError) as exc:
            write_trace(self.trace(), "csv", "/dev/full")
        assert str(exc.value) == "[Errno 28] No space left on device"

    def test_rows_are_frozen(self):
        # a row is what the run observed: its three fields, and no state
        row = self.trace().rows[1]
        names = ("step", "time", "values")
        assert tuple(f.name for f in dataclasses.fields(TraceRow)) == names
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(row, name, None)
        later = dataclasses.replace(row, step=7)
        assert later == TraceRow(7, row.time, row.values) != row
        assert not hasattr(row, "snapshot")


def csv_oracle(names, rows) -> str:
    """The CSV text of a trace as written cell by cell with format_scalar."""
    lines = ["step,time" + ("," + ",".join(names) if names else "")]
    for row in rows:
        cells = [str(row.step), format_scalar(row.time)]
        cells += [format_scalar(v) for v in row.values]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


REALS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 0.1, 1e16, 1e17, 123456789.0, 2.0**63])
SCALARS = {
    "int": st.integers(-(2**63 - 1), 2**63 - 1),
    "real": REALS,
    "bool": st.booleans(),
    "complex": st.builds(complex, REALS, REALS),
}
# a column of one kind, as a typechecked observable gives; or of any
# scalars, as a hand-written (label, function) pair may
COLUMN = st.sampled_from([*SCALARS, "any"])


@st.composite
def traces(draw):
    kinds = draw(st.lists(COLUMN, max_size=5))
    cells = [st.one_of(*SCALARS.values()) if k == "any" else SCALARS[k]
             for k in kinds]
    rows = draw(st.lists(st.builds(
        lambda step, time, values: TraceRow(step, time, tuple(values)),
        st.integers(0, 10**9), REALS, st.tuples(*cells)), max_size=6))
    cfg = RunConfig(dt=1.0, max_steps=1, observables=tuple(
        (f"o{i}", None) for i in range(len(kinds))))
    return Trace("m", cfg, tuple(rows), Termination("max-steps"), None,
                 len(rows))


# one failure is shrunk, not one per distinct error: shrinking one of
# these traces can take a minute or two
@settings(max_examples=300, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(traces())
def test_csv_rows_match_the_per_cell_oracle(trace):
    expected = csv_oracle(trace.observable_names, trace.rows)
    # in one block, and in blocks of two rows, each of which picks its
    # columns' formats from its own values
    for block in (interpreter._BLOCK, 2):
        buf = io.BytesIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interpreter, "_BLOCK", block)
            n = write_trace(trace, "csv", buf)
        # compared line by line, so a failure shows the first row apart
        # instead of a diff of the whole text
        assert buf.getvalue().decode().split("\n") == expected.split("\n")
        assert n == len(expected.encode())


class TestBranchRun:
    def test_deterministic_model_single_lineage(self):
        model, state = build_bundled_model("counter")
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=50),
                          depth_bound=4, width_bound=16)
        leaves = tree.leaves()
        assert len(leaves) == 1
        assert leaves[0].weight == 1.0
        assert leaves[0].termination.kind == "halted"
        assert tree.pruned_mass == 0.0

    def test_psi_draw_leaf_weights(self, load_fixture_model):
        model = load_fixture_model("psi_draw.cml")
        state = build_initial_state(model)
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=4, width_bound=16)
        leaves = sorted(tree.leaves(), key=lambda l: l.outcome)
        assert [l.outcome for l in leaves] == ["0", "1"]
        assert leaves[0].weight == pytest.approx(0.36, abs=1e-12)
        assert leaves[1].weight == pytest.approx(0.64, abs=1e-12)
        assert [l.snapshot.values["outcome"] for l in leaves] == [0, 1]

    def test_two_fair_coins_four_leaves(self, load_fixture_model):
        model = load_fixture_model("two_coin.cml")
        state = build_initial_state(model)
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=2, width_bound=16)
        leaves = tree.leaves()
        assert len(leaves) == 4
        for leaf in leaves:
            assert leaf.weight == pytest.approx(0.25, abs=1e-12)
        assert abs(tree.leaf_weight_total() + tree.pruned_mass - 1.0) < 1e-12

    def test_depth_bound_stops_branching(self, load_fixture_model):
        model = load_fixture_model("two_coin.cml")
        state = build_initial_state(model)
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=1, width_bound=16)
        kinds = sorted(l.termination.kind for l in tree.leaves())
        assert kinds == ["depth-bound", "depth-bound"]
        assert abs(tree.leaf_weight_total() - 1.0) < 1e-12

    def test_pruning_reports_mass_and_is_deterministic(self, load_fixture_model):
        model = load_fixture_model("two_coin.cml")
        state = build_initial_state(model)

        def shape(tree):
            return json.dumps(json.loads(world_tree_text(tree)), sort_keys=True)

        t1 = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                        depth_bound=4, width_bound=2)
        t2 = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                        depth_bound=4, width_bound=2)
        assert shape(t1) == shape(t2)
        assert t1.pruned_mass > 0.0
        assert abs(t1.leaf_weight_total() + t1.pruned_mass - 1.0) < 1e-12

    def test_continuous_random_not_branchable(self):
        model = load_model(
            "model m { state { x: real in [0.0, 1.0]; } init { x = 0.0; } "
            "halt when x > 0.5; "
            "law L { when x <= 0.5; "
            "then { x = random([0.0, 1.0], FLAT); } } }")
        state = build_initial_state(model)
        with pytest.raises(ContinuousRandomError) as exc:
            branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                       depth_bound=4, width_bound=4)
        assert exc.value.law == "L"

    def test_k_way_fork_costs_k_steps(self, monkeypatch):
        import causalkit.interpreter as interpreter

        calls = []

        def counting_apply(*args, **kwargs):
            calls.append(args[2])
            return apply_law(*args, **kwargs)

        apply_law = interpreter.apply_law
        monkeypatch.setattr(interpreter, "apply_law", counting_apply)
        model = load_model(
            "model m { state { x: int in [0, 3]; } init { x = 0; } "
            "halt when x > 0; "
            "law L { when x == 0; then { x = random({1, 2, 3}, FLAT); } } }")
        tree = branch_run(model, build_initial_state(model),
                          RunConfig(dt=1.0, max_steps=10),
                          depth_bound=4, width_bound=16)
        assert [l.snapshot.values["x"] for l in tree.leaves()] == [1, 2, 3]
        assert len(calls) == 3

    def test_depth_cut_before_a_continuous_draw(self):
        model = load_model(
            "model m { state { a: int in [0, 1]; b: int in [0, 1]; "
            "x: real in [0.0, 1.0]; } init { a = 0; b = 0; x = 0.0; } "
            "law L { when true; then { a = random({0, 1}, FLAT); "
            "b = random({0, 1}, FLAT); x = random([0.0, 1.0], FLAT); } } }")
        tree = branch_run(model, build_initial_state(model),
                          RunConfig(dt=1.0, max_steps=10),
                          depth_bound=1, width_bound=16)
        leaves = tree.leaves()
        assert [(l.outcome, l.termination.kind) for l in leaves] == \
            [("0", "depth-bound"), ("1", "depth-bound")]
        assert [l.weight for l in leaves] == [0.5, 0.5]

    # cut_before_uniform.cml, and a variant that divides by zero between
    # its second draw and its uniform one
    CUT_SOURCE = (FIXTURES / "cut_before_uniform.cml").read_text(
        encoding="utf-8")
    CUT_VARIANTS = {
        "uniform": CUT_SOURCE,
        "division": CUT_SOURCE.replace(
            "b = random({0, 1}, FLAT);",
            "b = random({0, 1}, FLAT);\n      let y = 1.0 / (b - b);"),
    }

    @pytest.mark.parametrize("variant", CUT_VARIANTS)
    def test_depth_cut_at_the_second_draw(self, variant):
        model = load_model(self.CUT_VARIANTS[variant])
        tree = branch_run(model, build_initial_state(model),
                          RunConfig(dt=1.0, max_steps=10),
                          depth_bound=1, width_bound=16)
        leaves = tree.leaves()
        assert [(l.outcome, l.termination.kind) for l in leaves] == \
            [("0", "depth-bound"), ("1", "depth-bound")]
        assert [l.termination.message for l in leaves] == \
            ["branching depth 1 reached"] * 2

    def test_depth_two_reaches_the_uniform_draw(self):
        model = load_model(self.CUT_VARIANTS["uniform"])
        with pytest.raises(ContinuousRandomError) as exc:
            branch_run(model, build_initial_state(model),
                       RunConfig(dt=1.0, max_steps=10),
                       depth_bound=2, width_bound=16)
        assert exc.value.law == "Draw"

    def test_depth_two_reaches_the_division(self):
        model = load_model(self.CUT_VARIANTS["division"])
        tree = branch_run(model, build_initial_state(model),
                          RunConfig(dt=1.0, max_steps=10),
                          depth_bound=2, width_bound=16)
        leaves = tree.leaves()
        assert [l.outcome for l in leaves] == ["0", "1", "0", "1"]
        for leaf in leaves:
            assert leaf.termination.kind == "eval-error"
            assert "division by zero" in leaf.termination.message
            assert leaf.weight == 0.25

    def test_weight_conservation_across_fixtures(self, load_fixture_model):
        for name in ("psi_draw.cml", "two_coin.cml"):
            model = load_fixture_model(name)
            state = build_initial_state(model)
            for width in (1, 2, 3, 64):
                tree = branch_run(model, state,
                                  RunConfig(dt=1.0, max_steps=10),
                                  depth_bound=8, width_bound=width)
                total = tree.leaf_weight_total() + tree.pruned_mass
                assert abs(total - 1.0) < 1e-12, (name, width)

    def test_children_weights_sum_to_parent(self, load_fixture_model):
        model = load_fixture_model("two_coin.cml")
        state = build_initial_state(model)
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=4, width_bound=64)

        def check(node):
            if node.children:
                assert abs(sum(c.weight for c in node.children)
                           - node.weight) < 1e-12
                for c in node.children:
                    check(c)

        assert tree.root.weight == 1.0
        check(tree.root)

    def test_monte_carlo_marginals_match_leaf_weights(self, load_fixture_model):
        # 1e4 runs of the PSI fixture vs the branch weights, 3 sigma
        model = load_fixture_model("psi_draw.cml")
        state = build_initial_state(model)
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=4, width_bound=16)
        weights = {l.snapshot.values["outcome"]: l.weight
                   for l in tree.leaves()}
        n = 10_000
        counts = {0: 0, 1: 0}
        for i in range(n):
            trace = run(model, state, RunConfig(dt=1.0, max_steps=10, seed=i))
            counts[trace.final_state.values["outcome"]] += 1
        for outcome, w in weights.items():
            sigma = (n * w * (1 - w)) ** 0.5
            assert abs(counts[outcome] - n * w) < 3 * sigma


class _OracleLineage:
    def __init__(self, state, weight, draws, steps, node, serial):
        self.state, self.weight, self.draws = state, weight, draws
        self.steps, self.node, self.serial = steps, node, serial


def oracle_branch_run(model, init, cfg, depth_bound, width_bound):
    """``branch_run`` as a fork-and-replay loop with no memo: every work
    item replays its step through a fresh ``ReplaySource``, and the item
    that recorded more draws than its room under the depth bound is cut
    at the first draw past it. The differential tests below hold the
    trie walk to it."""
    root = WorldNode(weight=1.0, snapshot=init)
    serial = 1
    active = [_OracleLineage(init, 1.0, 0, 0, root, 0)]
    pruned_mass = 0.0

    def settle(lin, term):
        lin.node.termination = term
        lin.node.snapshot = lin.state

    while active:
        survivors = []
        work = deque((lin, []) for lin in active)
        while work:
            lin, prefix = work.popleft()
            if not prefix:
                try:
                    if halts(model, lin.state):
                        settle(lin, Termination("halted"))
                        continue
                    if lin.steps >= cfg.max_steps:
                        settle(lin, Termination("max-steps"))
                        continue
                except EvalError as exc:
                    settle(lin, _termination(exc))
                    continue
            source = ReplaySource(prefix)
            end = error = None
            try:
                post = engine_step(model, lin.state, cfg.dt, source, cfg.mode,
                                   init.time + (lin.steps + 1) * cfg.dt)
            except (ContinuousRandomError, *_STEP_ERRORS) as exc:
                error = exc
            draws = source.draws
            room = depth_bound - lin.draws - len(prefix)
            if len(draws) > room:
                # the draw past the room comes before any later error
                end = Termination("depth-bound",
                                  f"branching depth {depth_bound} reached")
                draws = draws[:room]
            elif isinstance(error, ContinuousRandomError):
                raise error
            elif error is not None:
                end = _termination(error)
            path = list(prefix)
            for probs, labels, k in draws:
                parent, queued = lin, []
                for j, p in enumerate(probs):
                    if p <= 0.0:
                        continue
                    weight = parent.weight * float(p)
                    node = WorldNode(weight=weight, outcome=str(
                        j if labels is None else labels[j]))
                    parent.node.children.append(node)
                    child = _OracleLineage(parent.state, weight, parent.draws,
                                           parent.steps, node, serial)
                    serial += 1
                    if j == k:
                        lin = child
                    else:
                        queued.append((child, path + [j]))
                path.append(k)
                work.extendleft(reversed(queued))
            if end is not None:
                settle(lin, end)
                continue
            lin.state = lin.node.snapshot = post
            lin.steps += 1
            lin.draws += len(path)
            survivors.append(lin)
        if len(survivors) > width_bound:
            order = sorted(survivors, key=lambda l: (-l.weight, l.serial))
            for lin in order[width_bound:]:
                lin.node.pruned = True
                lin.node.termination = Termination("pruned")
                lin.node.snapshot = lin.state
                pruned_mass += lin.weight
            survivors = sorted(order[:width_bound], key=lambda l: l.serial)
        active = survivors
    return WorldTree(root, pruned_mass)


# the fixtures that leave a field to a given start state cannot branch
# from their init block
GIVEN_STATE = {"double_slit.cml", "drift_particles.cml"}
FIXTURE_MODELS = sorted(p.name for p in FIXTURES.glob("*.cml")
                        if p.name not in GIVEN_STATE)
BUNDLED = [(name, {}) for name in list_bundled_models()] + [
    ("double_slit", {"detector": "on"})]
# (depth, width, steps, mode): depth cuts mid-step, width pruning, the step
# budget, and first-match selection where strict finds overlaps
BOUNDS = [(3, 2, 4, "strict"), (6, 5, 7, "strict"), (9, 64, 10, "strict"),
          (5, 3, 6, "first-match")]


def assert_same_tree(model, init, bounds):
    depth, width, steps, mode = bounds
    cfg = RunConfig(dt=model.default_timestep, max_steps=steps, mode=mode)
    try:
        expected = world_tree_text(
            oracle_branch_run(model, init, cfg, depth, width))
    except ContinuousRandomError as exc:
        with pytest.raises(ContinuousRandomError) as got:
            branch_run(model, init, cfg, depth, width)
        assert got.value.law == exc.law
        return
    assert world_tree_text(branch_run(model, init, cfg, depth, width)) \
        == expected


class TestBranchMemo:
    @pytest.mark.parametrize("bounds", BOUNDS, ids=str)
    @pytest.mark.parametrize("name", FIXTURE_MODELS)
    def test_fixture_trees_match_the_replay_oracle(self, name, bounds):
        model = load_model((FIXTURES / name).read_text(encoding="utf-8"))
        assert_same_tree(model, build_initial_state(model), bounds)

    @pytest.mark.parametrize("bounds", BOUNDS, ids=str)
    @pytest.mark.parametrize("name, params", BUNDLED,
                             ids=[f"{n}{p}" for n, p in BUNDLED])
    def test_bundled_trees_match_the_replay_oracle(self, name, params,
                                                   bounds):
        model, init = build_bundled_model(name, params)
        assert_same_tree(model, init, bounds)

    def test_given_state_fixtures_cannot_branch_from_init(self):
        for name in GIVEN_STATE:
            model = load_model((FIXTURES / name).read_text(encoding="utf-8"))
            with pytest.raises(MissingFieldError):
                build_initial_state(model)

    def test_equal_states_cut_at_different_depths(self):
        # x = 1 is reached after one draw and after two; a key without
        # the draws taken would give both lineages one depth cut
        model = load_model(
            (FIXTURES / "uneven_draws.cml").read_text(encoding="utf-8"))
        init = build_initial_state(model)
        for depth in range(2, 9):
            assert_same_tree(model, init, (depth, 64, 8, "strict"))

    def test_walk_steps_once_per_distinct_input(self, monkeypatch):
        import causalkit.interpreter as interpreter

        calls = 0
        apply_law = interpreter.apply_law

        def counting_apply(*args, **kwargs):
            nonlocal calls
            calls += 1
            return apply_law(*args, **kwargs)

        monkeypatch.setattr(interpreter, "apply_law", counting_apply)
        model = load_model((FIXTURES / "walk.cml").read_text(encoding="utf-8"))
        branch_run(model, build_initial_state(model),
                   RunConfig(dt=1.0, max_steps=25), depth_bound=24,
                   width_bound=64)
        # 2,494 work items of the replay oracle, 301 distinct (state, outcome
        # path) trie nodes explored
        assert calls == 301


class TestWorldTreeJson:
    def test_json_shape(self, load_fixture_model):
        model = load_fixture_model("psi_draw.cml")
        state = build_initial_state(model)
        tree = branch_run(model, state, RunConfig(dt=1.0, max_steps=10),
                          depth_bound=4, width_bound=16)
        data = json.loads(world_tree_text(tree))
        assert data["prunedMass"] == 0.0
        root = data["root"]
        assert root["weight"] == 1.0
        assert {c["outcome"] for c in root["children"]} == {"0", "1"}
        for child in root["children"]:
            assert child["termination"]["kind"] == "halted"
            assert "state" in child


# a cgrid driven past 1e308 by an intrinsic: numpy overflows inside it,
# then the write check refuses the non-finite result
LAPLACIAN_OVERFLOW = """model lap {
  state { g: cgrid(8, 0.5); n: int; }
  init { g = gauss_packet(8, 0.5, 0.0, 1.0, 0.0); n = 0; }
  law Seed { when n == 0; then { g[0] = complex(1e307, 0.0); n = 1; } }
  law Lap { when n > 0; then { g = laplacian(g); n = n + 1; } }
}"""


def schrodinger_model(psi="g", potential="fill(8, 0.0)", mass="1.0",
                      hbar="1.0") -> str:
    """A model whose law Evolve calls schrodinger_step(psi, potential, dt,
    mass, hbar) at 6:9, once law Seed has set g[0] to 1.5e308 (w is
    1e308). With dt = 1.0 the right-hand side of g overflows; with dt =
    0.5 it is finite, and the solve overflows."""
    return f"""model schr {{
  state {{ g: cgrid(8, 0.5); w: real; n: int; }}
  init {{ g = gauss_packet(8, 0.5, 0.0, 1.0, 0.0); w = 1e308; n = 0; }}
  law Seed {{ when n == 0; then {{ g[0] = complex(1.5e308, 0.0); n = 1; }} }}
  law Evolve {{ when n > 0; then {{
    g = schrodinger_step({psi}, {potential}, dt, {mass}, {hbar}); n = n + 1; }} }}
}}"""


SCHRODINGER_OVERFLOW = schrodinger_model()
CA_OVERFLOW = """model ca {
  record CaParticle { id: int; pos: int; vel: int; species: int; }
  record CaWorld { phi: vector(3); particles: list(CaParticle); alpha: real; }
  state { world: CaWorld; n: int; }
  init { world = ca_world(3, 1e300); n = 0; }
  law Seed { when n == 0; then { world.phi[0] = 1e300; n = 1; } }
  law Step { when n > 0; then { world = ca_step(world); n = n + 1; } }
}"""


class TestNumpyWarningsStayInside:
    """Called from Python, as under ``cml``, a numpy floating-point warning
    inside an intrinsic is neither printed nor raised (the tests turn
    warnings into errors): the run ends with the message ``cml`` prints,
    and the caller's error state is left as it was."""

    @pytest.fixture(autouse=True)
    def _errstate_is_restored(self):
        before = np.geterr()
        yield
        assert np.geterr() == before

    @pytest.mark.parametrize("source, message", [
        (LAPLACIAN_OVERFLOW, "law 'Lap': non-finite value (inf+nanj) at "
                             "index 0 written to 'g' at 5:32"),
        (SCHRODINGER_OVERFLOW, "law 'Evolve': schrodinger_step: non-finite "
                               "right-hand side at 6:9"),
        (CA_OVERFLOW, "law 'Step': ca_step: non-finite phi value -inf at "
                      "index 0 at 7:41"),
    ], ids=["laplacian", "schrodinger_step", "ca_step"])
    def test_a_run_ends_with_the_write_checks_message(self, source, message):
        model = load_model(source)
        init = build_initial_state(model)
        cfg = RunConfig(dt=1.0, max_steps=5)
        assert run(model, init, cfg).termination.message == message
        assert [term.message for term, _ in
                run_ensemble(model, init, cfg, 2)] == [message] * 2
        tree = branch_run(model, init, cfg, depth_bound=4, width_bound=8)
        assert [leaf.termination.message for leaf in tree.leaves()] == \
            [message]

    @pytest.mark.parametrize("source, dt, message", [
        (schrodinger_model(psi="laplacian(g)"), 1.0,
         "non-finite wavefunction"),
        (schrodinger_model(potential="fill(8, w * 10.0)"), 1.0,
         "non-finite potential"),
        (SCHRODINGER_OVERFLOW, 1.0, "non-finite right-hand side"),
        # the one text that moved: the write check's "non-finite value
        # (inf+nanj) at index 0 written to 'g' at 6:5" before the kernel
        # refused its own result
        (SCHRODINGER_OVERFLOW, 0.5, "non-finite solution"),
        (schrodinger_model(mass="0.0"), 1.0,
         "mass must be finite and non-zero, got 0.0"),
        (schrodinger_model(hbar="0.0"), 1.0,
         "hbar must be finite and non-zero, got 0.0"),
    ], ids=["psi", "potential", "right-hand side", "solve", "mass", "hbar"])
    def test_each_schrodinger_step_failure_keeps_its_text(self, source, dt,
                                                          message):
        message = f"law 'Evolve': schrodinger_step: {message} at 6:9"
        model = load_model(source)
        init = build_initial_state(model)
        cfg = RunConfig(dt=dt, max_steps=5)
        assert run(model, init, cfg).termination.message == message
        assert [term.message for term, _ in
                run_ensemble(model, init, cfg, 2)] == [message] * 2
        tree = branch_run(model, init, cfg, depth_bound=4, width_bound=8)
        assert [leaf.termination.message for leaf in tree.leaves()] == \
            [message]

    def test_an_init_ends_with_the_write_checks_message(self):
        model = load_model("""model packet {
  state { g: cgrid(8, 0.5); }
  init { g = gauss_packet(8, 0.5, 1e308, 1.0, 0.0); }
  law Stay { when true; then { g = g; } }
}""")
        with pytest.raises(EvalError, match=(
                r"^non-finite value \(nan\+nanj\) at index 0 written to "
                r"'g' at 3:14$")):
            build_initial_state(model)
