"""Command-line entry point: run, analyze, branch, list-models, histogram."""

from __future__ import annotations

import argparse
import json
import sys
import weakref
from pathlib import Path

from .analyzer import CheckStrategy, analyze, report_to_json
from .bundled import build_bundled_model, list_bundled_models
from .engine import build_initial_state, compile_observable
from .errors import CausalKitError, CmlError, EvalError
from .frontend import parse_expression
from .frontend.lower import compile_model
from .frontend.typecheck import check_standalone_expr
from .interpreter import (
    RunConfig,
    branch_run,
    format_scalar,
    run,
    run_ensemble,
    world_tree_text,
    write_text,
    write_trace,
)
from .jsontext import IndentedEncoder


def build_parser() -> argparse.ArgumentParser:
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
    model, diags = compile_model(text, params=params)
    errors = [d for d in diags if d.severity == "error"]
    if model is None or errors:
        for d in errors:
            print(f"{src}:{d.loc.line}:{d.loc.col}: {d.message}",
                  file=sys.stderr)
        raise SystemExit(1)
    return model, build_initial_state(model)


def _compile_observables(spec: str, schema):
    observables = []
    for text in _split_observables(spec):
        expr, diags = parse_expression(text)
        if expr is None:
            raise CausalKitError(
                f"bad observable '{text}': {diags[0].message}")
        td, diags = check_standalone_expr(expr, schema)
        if td is None:
            raise CausalKitError(
                f"unknown observable '{text}': {diags[0].message}")
        if td.kind not in ("real", "int", "bool", "complex"):
            raise CausalKitError(
                f"observable '{text}' must be scalar, got {td.kind}")
        observables.append((text, compile_observable(expr, schema)))
    return tuple(observables)


def _cmd_run(args) -> int:
    model, state = _load_model(args)
    observables = _compile_observables(args.observables, model.schema)
    cfg = RunConfig(dt=args.dt if args.dt is not None else model.default_timestep,
                    max_steps=args.steps, seed=args.seed, mode=args.mode,
                    record_every=args.record_every, observables=observables)
    trace = run(model, state, cfg)
    write_trace(trace, args.format, args.out)
    if trace.termination.is_error:
        t = trace.termination
        msg = t.message or t.kind
        print(f"terminated: {t.kind}: {msg}", file=sys.stderr)
        return 1
    return 0


def _cmd_analyze(args) -> int:
    model, state = _load_model(args)
    strategy = CheckStrategy(kind=args.strategy, count=args.samples,
                             runs=args.runs, steps_per_run=args.steps,
                             seed=args.seed)
    report = analyze(model, strategy, state)
    text = json.dumps(report_to_json(report), indent=2,
                      cls=IndentedEncoder) + "\n"
    write_text(text, args.out)
    return 0


def _cmd_branch(args) -> int:
    model, state = _load_model(args)
    cfg = RunConfig(dt=args.dt if args.dt is not None else model.default_timestep,
                    max_steps=args.steps, seed=args.seed, mode=args.mode)
    tree = branch_run(model, state, cfg, args.depth, args.width)
    text = world_tree_text(tree) + "\n"
    write_text(text, args.out)
    return 0


def _cmd_histogram(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.bins is not None and args.bins < 1:
        raise ValueError("--bins must be >= 1")
    model, state = _load_model(args)
    observables = _compile_observables(args.observables, model.schema)
    if len(observables) != 1:
        raise CausalKitError("histogram needs exactly one outcome observable")
    label, observe = observables[0]
    cfg = RunConfig(dt=args.dt if args.dt is not None else model.default_timestep,
                    max_steps=args.steps, seed=args.seed, mode=args.mode)
    outcomes = []
    # id(final state) -> (weak reference to it, outcome); the reference
    # tells the state apart from a later one that reuses a freed id
    seen = {}
    for t, (term, final) in enumerate(run_ensemble(model, state, cfg,
                                                   args.trials)):
        if term.is_error:
            print(f"trial {t} terminated: {term.kind}: {term.message}",
                  file=sys.stderr)
            return 1
        hit = seen.get(id(final))
        if hit is None or hit[0]() is not final:
            try:
                value = observe(final)
            except EvalError as exc:
                print(f"trial {t} terminated: eval-error: {exc}",
                      file=sys.stderr)
                return 1
            hit = seen[id(final)] = (weakref.ref(final), value)
        outcomes.append(hit[1])
    rows = _bin_outcomes(outcomes, args.bins)
    lines = ["bin,count,frequency"]
    total = len(outcomes)
    for label_, count in rows:
        lines.append(f"{label_},{count},{format_scalar(count / total)}")
    write_text("\n".join(lines) + "\n", args.out)
    return 0


def _bin_outcomes(outcomes, bins):
    """Discrete outcomes bin by value; real outcomes get uniform bins."""
    discrete = all(isinstance(v, (int, bool)) for v in outcomes)
    if discrete and bins is None:
        counts: dict = {}
        for v in outcomes:
            counts[v] = counts.get(v, 0) + 1
        return [(format_scalar(v), counts[v]) for v in sorted(counts)]
    n = bins if bins is not None else 20
    lo = min(outcomes)
    hi = max(outcomes)
    if lo == hi:
        return [(format_scalar(lo), len(outcomes))]
    width = (hi - lo) / n
    counts = [0] * n
    for v in outcomes:
        i = min(int((v - lo) / width), n - 1)
        counts[i] += 1
    return [(format_scalar(lo + (i + 0.5) * width), c) for i, c in enumerate(counts)]


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
