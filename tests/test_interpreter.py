import dataclasses
import io
import json
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
    world_tree_text,
    write_trace,
)
from causalkit.engine import halts
from causalkit.engine import step as engine_step
from causalkit.errors import EvalError, MissingFieldError
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

from conftest import FIXTURES


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

    def test_file_sink(self, tmp_path):
        target = tmp_path / "trace.csv"
        n = write_trace(self.trace(), "csv", str(target))
        assert target.read_bytes()
        assert n == len(target.read_bytes())

    def test_rows_are_frozen(self):
        row = self.trace().rows[1]
        for name in ("step", "time", "values", "snapshot"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(row, name, None)
        later = dataclasses.replace(row, step=7)
        assert later == TraceRow(7, row.time, row.values, row.snapshot) != row
        assert TraceRow(0, 0.0, ()).snapshot is None


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
    return Trace("m", cfg, tuple(rows), Termination("max-steps"), None)


# one failure is shrunk, not one per distinct error: shrinking one of
# these traces can take a minute or two
@settings(max_examples=300, deadline=None, derandomize=True,
          report_multiple_bugs=False)
@given(traces())
def test_csv_rows_match_the_per_cell_oracle(trace):
    buf = io.BytesIO()
    n = write_trace(trace, "csv", buf)
    expected = csv_oracle(trace.observable_names, trace.rows)
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
            calls.append(args[1])
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
