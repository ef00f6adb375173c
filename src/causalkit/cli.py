"""Command-line entry point: run, analyze, branch, list-models, histogram."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections import Counter
from pathlib import Path

from .analyzer import CheckStrategy, analyze, report_to_json
from .bundled import build_bundled_model, list_bundled_models
from .engine import build_initial_state, compile_observables, entry_point
from .errors import CausalKitError, CmlError, EvalError
from .frontend import parse_expression
from .frontend.lower import compile_model
from .frontend.typecheck import check_standalone_expr, standalone_context
from .interpreter import (
    RunConfig,
    TraceWriter,
    branch_run,
    format_scalar,
    run,
    run_ensemble,
    world_tree_text,
    write_text,
    write_trace,  # noqa: F401 (cmlbench/tracing.py hooks it here)
)
from .jsontext import IndentedEncoder
from .state import MAX_CELLS, PAYLOAD_TYPES


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was (an ``append`` option copies its default list before adding)."""
    parser = argparse.ArgumentParser(
        prog="cml",
        description="Author, execute, and analyze causal models of "
                    "physical theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_arg(p):
        p.add_argument("model",
                       help="path to a .cml file, or builtin:<name>")
        p.add_argument("--param", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="value of a model `param` (repeatable)")

    def add_run_flags(p):
        p.add_argument("--dt", type=float, default=None,
                       help="timestep (default: model timestep)")
        p.add_argument("--steps", type=int, default=100,
                       help="maximum number of steps")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=("strict", "first-match"),
                       default="strict")

    p_run = sub.add_parser("run", help="run a model and emit its trace")
    add_model_arg(p_run)
    add_run_flags(p_run)
    p_run.add_argument("--record-every", type=int, default=1)
    p_run.add_argument("--observables", default="",
                       help="comma-separated expressions recorded per row")
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "jsonl"), default="csv")

    p_an = sub.add_parser("analyze",
                          help="check consistency/completeness/determinism")
    add_model_arg(p_an)
    p_an.add_argument("--strategy", choices=("enumerate", "sample", "trace"),
                      default="sample")
    p_an.add_argument("--samples", type=int, default=10_000)
    p_an.add_argument("--runs", type=int, default=20)
    p_an.add_argument("--steps", type=int, default=50,
                      help="steps per trace run")
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--out", default=None)

    p_br = sub.add_parser("branch",
                          help="branching execution over categorical draws")
    add_model_arg(p_br)
    add_run_flags(p_br)
    p_br.add_argument("--depth", type=int, default=8,
                      help="max draws per lineage")
    p_br.add_argument("--width", type=int, default=256,
                      help="max concurrent lineages")
    p_br.add_argument("--out", default=None)

    sub.add_parser("list-models", help="list bundled models")

    p_h = sub.add_parser("histogram",
                         help="histogram of an outcome observable over "
                              "many seeded trials")
    add_model_arg(p_h)
    add_run_flags(p_h)
    p_h.add_argument("--observables", required=True,
                     help="the outcome observable expression")
    p_h.add_argument("--trials", type=int, default=10_000)
    p_h.add_argument("--bins", type=int, default=None,
                     help="bin count for real-valued outcomes")
    p_h.add_argument("--out", default=None)
    return parser


def _split_observables(spec: str):
    """Split a comma list, respecting parentheses/brackets."""
    out, depth, cur = [], 0, []
    for ch in spec:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    tail = "".join(cur).strip()
    if tail:
        out.append(tail)
    return [o for o in out if o]


def _parse_params(pairs):
    params = {}
    for raw in pairs:
        if "=" not in raw:
            raise CausalKitError(f"bad --param '{raw}', expected KEY=VALUE")
        k, v = raw.split("=", 1)
        params[k.strip()] = v.strip()
    return params


def _load_model(args):
    """Resolve the model argument to (model, initial state)."""
    src = args.model
    params = _parse_params(args.param)
    if src.startswith("builtin:"):
        return build_bundled_model(src[len("builtin:"):], params)
    try:
        text = Path(src).read_text(encoding="utf-8")
    except OSError as exc:
        raise CausalKitError(f"cannot read '{src}': {exc.strerror}")
    except UnicodeDecodeError as exc:
        # the first bad byte's line:col in the text read_text would give
        lines = exc.object[:exc.start].decode("utf-8").replace(
            "\r\n", "\n").replace("\r", "\n").split("\n")
        raise CausalKitError(f"cannot read '{src}': not UTF-8 text at "
                             f"{len(lines)}:{len(lines[-1]) + 1}")
    model, diags = compile_model(text, params=params)
    errors = [d for d in diags if d.severity == "error"]
    if model is None or errors:
        for d in errors:
            print(f"{src}:{d.loc.line}:{d.loc.col}: {d.message}",
                  file=sys.stderr)
        raise SystemExit(1)
    return model, build_initial_state(model)


def _compile_observables(spec: str, schema):
    """The compiled observables of ``spec`` and the scalar kind of each."""
    labelled, kinds, ctx = [], [], standalone_context(schema)
    for text in _split_observables(spec):
        expr, diags = parse_expression(text)
        if expr is None:
            raise CausalKitError(
                f"bad observable '{text}': {diags[0].message}")
        td, diags = check_standalone_expr(expr, schema, ctx)
        if td is None:
            raise CausalKitError(
                f"unknown observable '{text}': {diags[0].message}")
        if td.kind not in PAYLOAD_TYPES:
            raise CausalKitError(
                f"observable '{text}' must be scalar, got {td.kind}")
        labelled.append((text, expr))
        kinds.append(td.kind)
    return compile_observables(labelled, schema), kinds


def _run_config(args, model, **kw) -> RunConfig:
    """The RunConfig of the run flags (``--dt`` or the model's timestep,
    ``--steps``, ``--seed``, ``--mode``) and of ``kw``."""
    dt = args.dt if args.dt is not None else model.default_timestep
    return RunConfig(dt=dt, max_steps=args.steps, seed=args.seed,
                     mode=args.mode, **kw)


@entry_point
def _cmd_run(args) -> int:
    model, state = _load_model(args)
    observables, _ = _compile_observables(args.observables, model.schema)
    cfg = _run_config(args, model, record_every=args.record_every,
                      observables=observables)
    with TraceWriter(model.name, cfg, args.format, args.out) as writer:
        t = run(model, state, cfg, rows=writer.row).termination
        writer.finish(t)
    if t.is_error:
        print(f"terminated: {t.kind}: {t.message or t.kind}", file=sys.stderr)
        return 1
    return 0


@entry_point
def _cmd_analyze(args) -> int:
    model, state = _load_model(args)
    strategy = CheckStrategy(kind=args.strategy, count=args.samples,
                             runs=args.runs, steps_per_run=args.steps,
                             seed=args.seed)
    report = analyze(model, strategy, state)
    write_text(json.dumps(report_to_json(report), indent=2,
                          cls=IndentedEncoder) + "\n", args.out)
    return 0


@entry_point
def _cmd_branch(args) -> int:
    model, state = _load_model(args)
    tree = branch_run(model, state, _run_config(args, model), args.depth,
                      args.width)
    write_text(world_tree_text(tree) + "\n", args.out)
    return 0


@entry_point
def _cmd_histogram(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.bins is not None and not 1 <= args.bins <= MAX_CELLS:
        raise ValueError(f"--bins must be in [1, {MAX_CELLS}]")
    model, state = _load_model(args)
    observables, kinds = _compile_observables(args.observables, model.schema)
    if len(observables) != 1:
        raise CausalKitError("histogram needs exactly one outcome observable")
    label, observe = observables[0]
    if kinds[0] == "complex":   # complex outcomes have no order to bin by
        raise CausalKitError(f"histogram outcome '{label}' must be int, bool "
                             f"or real, got complex")
    pairs = list(run_ensemble(model, state, _run_config(args, model),
                              args.trials))
    # trials that end on one trie leaf share one (termination, state) pair;
    # count the trials per pair and observe each final state once
    by_id = dict(zip(map(id, pairs), pairs))
    observed: dict = {}   # id(final state) -> outcome
    outcomes: dict = {}   # outcome -> trials, in order of the first trial
    for key, count in Counter(map(id, pairs)).items():
        term, final = by_id[key]
        error = f"{term.kind}: {term.message}" if term.is_error else None
        if not error and id(final) not in observed:
            try:
                observed[id(final)] = observe(final)
            except EvalError as exc:
                error = f"eval-error: {exc}"
        if error:
            # the pairs come in order of their first trial, so this is the
            # first trial that fails in either way
            trial = [*map(id, pairs)].index(key)
            print(f"trial {trial} terminated: {error}", file=sys.stderr)
            return 1
        value = observed[id(final)]
        outcomes[value] = outcomes.get(value, 0) + count
    rows = _bin_outcomes(outcomes, args.bins)
    lines = ["bin,count,frequency"]
    for label_, count in rows:
        lines.append(f"{label_},{count},{format_scalar(count / args.trials)}")
    write_text("\n".join(lines) + "\n", args.out)
    return 0


def _bin_outcomes(outcomes, bins):
    """Discrete outcomes bin by value; real outcomes get uniform bins.
    ``outcomes`` maps each outcome to its count; of outcomes that compare
    equal (0.0 and -0.0) it holds the first."""
    if bins is None and all(isinstance(v, (int, bool)) for v in outcomes):
        return [(format_scalar(v), outcomes[v]) for v in sorted(outcomes)]
    n = bins if bins is not None else 20
    lo = min(outcomes)
    hi = max(outcomes)
    if lo == hi:
        return [(format_scalar(lo), sum(outcomes.values()))]
    # binned at h, a power of two (exact): 1 leaves an int exact, 0.5 keeps
    # an overflowing hi - lo finite, a larger h makes a narrow width normal
    h = 1 if math.isfinite(hi - lo) else 0.5
    while (hi * h - lo * h) / n < 2.0 ** -1022:
        h *= 2
    width = (hi * h - lo * h) / n
    counts = [0] * n
    for v, count in outcomes.items():
        counts[min(int((v * h - lo * h) / width), n - 1)] += count
    return [(format_scalar((lo * h + (i + 0.5) * width) / h), c)
            for i, c in enumerate(counts)]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "analyze": _cmd_analyze,
                "branch": _cmd_branch, "histogram": _cmd_histogram}
    if args.command == "list-models":
        for name in list_bundled_models():
            print(name)
        return 0
    try:
        # a seed past 64 bits would be masked to one that is not
        if not 0 <= args.seed < 2 ** 64:
            raise ValueError("--seed must be in [0, 2**64 - 1]")
        # each handler is an entry point: numpy's warnings would only
        # repeat a non-finite value's eval-error on stderr, and the
        # collector stays paused while the command writes its output
        return handlers[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except CmlError as exc:
        for d in exc.diagnostics:
            print(f"{d.loc.line}:{d.loc.col}: {d.message}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad flag combinations (dt <= 0, zero budgets, ...)
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CausalKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
