import io
import json

import pytest

from causalkit import (
    ContinuousRandomError,
    RngStream,
    RunConfig,
    branch_run,
    build_bundled_model,
    build_initial_state,
    compile_observable,
    load_model,
    run,
    world_tree_text,
    write_trace,
)
from causalkit.frontend.parser import parse_expression
from causalkit.frontend.typecheck import check_standalone_expr


def observable(model, text):
    expr, _ = parse_expression(text)
    td, diags = check_standalone_expr(expr, model.schema)
    assert td is not None, diags
    return (text, compile_observable(expr, model.schema))


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

        def counting_step(*args, **kwargs):
            calls.append(args[1])
            return step(*args, **kwargs)

        step = interpreter.step
        monkeypatch.setattr(interpreter, "step", counting_step)
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
