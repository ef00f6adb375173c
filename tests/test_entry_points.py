"""The entry points own numpy's error state and the cycle collector.

Each entry point (``engine.entry_point``) pauses the collector for the
length of its call and leaves it as the caller had it. The pause costs
nothing because the values a run builds form no reference cycles: the
commands below, and ensembles and branching over failing and continuous
draws, leave nothing for the collector to find.
"""

import gc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

from causalkit import (
    CausalKitError,
    ContinuousRandomError,
    RunConfig,
    analyze,
    branch_run,
    build_bundled_model,
    build_initial_state,
    load_model,
    run,
    run_ensemble,
    write_trace,
)
from causalkit.analyzer import CheckStrategy
from causalkit.cli import main
from causalkit.engine import entry_point
from causalkit.interpreter import _BATCH, world_tree_text

from conftest import BROKEN, fixture_source

MODELS = Path(__file__).parent.parent / "cmlbench" / "models"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector as the caller sets it; restored after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def counter():
    return build_bundled_model("counter")


def _run():
    model, init = counter()
    return run(model, init, RunConfig(dt=1.0, max_steps=3))


def _tree():
    model = load_model(fixture_source("walk.cml"))
    return branch_run(model, build_initial_state(model),
                      RunConfig(dt=1.0, max_steps=3), 4, 8)


ENTRY_POINTS = {
    "build_initial_state": lambda: build_initial_state(counter()[0]),
    "run": _run,
    "run_ensemble": lambda: list(run_ensemble(
        *counter(), RunConfig(dt=1.0, max_steps=3), 5)),
    "branch_run": _tree,
    "analyze": lambda: analyze(load_model((MODELS / "quadrants.cml")
                                          .read_text()),
                               CheckStrategy("sample", count=20)),
    "write_trace": lambda: write_trace(_run(), "csv", _Sink()),
    "world_tree_text": lambda: world_tree_text(_tree()),
}


class _Sink:
    def write(self, data):
        pass


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_an_entry_point_leaves_the_collector_as_it_was(call, collector):
    call()
    assert gc.isenabled() is collector


def test_the_collector_is_paused_inside_and_left_off_when_off(collector):
    seen = []
    model, init = counter()
    cfg = RunConfig(dt=1.0, max_steps=2, observables=(
        ("n", lambda s: seen.append(gc.isenabled()) or s.values["n"]),))
    run(model, init, cfg)
    assert seen == [False] * 3
    assert gc.isenabled() is collector


def test_a_nested_entry_point_leaves_the_pause_to_the_outer_one(collector):
    @entry_point
    def outer():
        trace = _run()
        assert not gc.isenabled()   # the nested run did not restore it
        return trace

    assert outer().termination.kind == "max-steps"
    assert gc.isenabled() is collector


def test_an_entry_point_that_raises_restores_the_collector(collector):
    model, init = counter()
    other, _ = build_bundled_model("harmonic_oscillator")
    with pytest.raises(CausalKitError):   # init does not fit the schema
        run(other, init, RunConfig(dt=1.0, max_steps=2))
    assert gc.isenabled() is collector
    walk = load_model(fixture_source("gauss_draw.cml"))
    with pytest.raises(ContinuousRandomError):
        branch_run(walk, build_initial_state(walk),
                   RunConfig(dt=1.0, max_steps=2), 4, 8)
    assert gc.isenabled() is collector


def test_between_ensemble_batches_the_caller_has_the_collector(collector):
    model = load_model(fixture_source("walk.cml"))
    ensemble = run_ensemble(model, build_initial_state(model),
                            RunConfig(dt=1.0, max_steps=2), _BATCH + 3)
    seen = Counter(gc.isenabled() for _ in ensemble)
    assert seen == {collector: _BATCH + 3}


@pytest.mark.parametrize("argv, code", [
    (["run", "builtin:counter", "--steps", "2"], 0),
    (["run", str(BROKEN / "07_unknown_name.cml")], 1),      # SystemExit(1)
    (["run", "builtin:nonesuch"], 1),                     # CausalKitError
    (["run", "builtin:counter", "--dt", "0"], 2),         # ValueError
    (["list-models"], 0),
], ids=["ok", "system-exit", "toolkit-error", "usage-error", "list-models"])
def test_the_cli_leaves_the_collector_as_it_was(argv, code, collector,
                                                capsys):
    assert main(argv) == code
    assert gc.isenabled() is collector


# --- no cyclic garbage ----------------------------------------------------------------


@contextmanager
def cyclic_garbage():
    """A Counter that holds, by type name, what the collector finds after
    the block: the objects the block left in reference cycles."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    before = len(gc.garbage)
    found = Counter()
    try:
        yield found
        gc.collect()
        found.update(type(o).__name__ for o in gc.garbage[before:])
    finally:
        gc.set_debug(0)
        del gc.garbage[before:]


PSI = ",".join(f"psi[{i}]" for i in range(512))
# the benchmark's command shapes, at small sizes
COMMANDS = {
    "histogram-off": ["histogram", "builtin:double_slit", "--param",
                      "detector=off", "--observables", "detected",
                      "--trials", "300"],
    "histogram-on": ["histogram", "builtin:double_slit", "--param",
                     "detector=on", "--observables", "detected",
                     "--trials", "300"],
    "oscillator": ["run", "builtin:harmonic_oscillator", "--observables",
                   "x,v,0.5*v*v+0.5*x*x", "--steps", "100"],
    "qftca_toy": ["run", "builtin:qftca_toy", "--param", "cells=12",
                  "--observables",
                  "world.particles[0].vel + world.particles[1].vel",
                  "--steps", "100"],
    "schrodinger_1d": ["run", "builtin:schrodinger_1d", "--steps", "5",
                       "--record-every", "5", "--observables", PSI],
    "analyze-sample": ["analyze", str(MODELS / "quadrants.cml"),
                       "--strategy", "sample", "--samples", "300"],
    "analyze-trace": ["analyze", str(MODELS / "quadrants.cml"),
                      "--strategy", "trace", "--runs", "4", "--steps", "10"],
    "branch": ["branch", str(MODELS / "walk.cml"), "--depth", "6",
               "--width", "16", "--steps", "7"],
}


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS)
def test_a_command_leaves_no_cyclic_garbage(argv, tmp_path):
    argv = [*argv, "--out", str(tmp_path / "out")]
    assert main(argv) == 0   # a warm-up fills the caches
    with cyclic_garbage() as found:
        assert main(argv) == 0
    assert found == Counter()


@pytest.mark.parametrize("fixture", ["gauss_draw.cml", "fallible.cml"])
def test_ensembles_and_branching_leave_no_cyclic_garbage(fixture):
    # a trie node keeps the errors its replay stopped at, and those hold
    # no frames that lead back to the batch and its trials' results
    model = load_model(fixture_source(fixture))
    init = build_initial_state(model)
    cfg = RunConfig(dt=1.0, max_steps=6, seed=5)
    with cyclic_garbage() as found:
        pairs = list(run_ensemble(model, init, cfg, 4000))
        assert len(pairs) == 4000
        del pairs
    assert found == Counter()
    with cyclic_garbage() as found:
        try:
            branch_run(model, init, cfg, 4, 32)
        except ContinuousRandomError as exc:
            assert exc.law is not None
    assert found == Counter()

