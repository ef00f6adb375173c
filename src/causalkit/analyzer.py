"""Model-level property checks with concrete witnesses.

The checks are bounded: they enumerate finite domains, sample random
states, or trace reachable states, and report exactly what was checked.
The only unbounded claim is "pass-trivially", which requires the guard
disjunction to fold to the constant true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    CausalModel,
    DeterminismVerdict,
    apply_law,
    build_initial_state,
    classify_determinism,
    entry_point,
    eval_guard,  # noqa: F401 (cmlbench/tracing.py hooks it here)
    halts,
    select_law,
)
from .errors import (
    CausalKitError,
    EnumerationCapError,
    MultipleApplicableError,
    NoApplicableLawError,
    NoValidInStateFoundError,
    UnsampleableFieldError,
)
from .frontend.ast_nodes import Call, RandomExpr, walk
from . import intrinsics
from .interpreter import RunConfig, run
from .rng import RngStream, derive_seed, derive_seeds, first_words
from .state import (
    PAYLOAD_TYPES,
    StateSchema,
    SystemState,
    TypeDesc,
    sample_state,
    state_to_json,
)

_ENUMERATION_CAP = 1_000_000
_REJECTION_TRIES = 10_000
_CHUNK = 4096   # states drawn at once


@dataclass(frozen=True)
class CheckStrategy:
    """How to bound a property check.

    enumerate: all states of finite domains; sample: ``count`` random
    states with per-trial derived seeds; trace: ``runs`` runs (``run``
    itself) of at most ``steps_per_run`` steps from valid start states.
    """

    kind: str = "sample"
    count: int = 10_000
    runs: int = 20
    steps_per_run: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("enumerate", "sample", "trace"):
            raise ValueError(f"unknown strategy '{self.kind}'")
        if self.count < 1 or self.runs < 1 or self.steps_per_run < 1:
            raise ValueError("strategy budgets must be >= 1")


@dataclass(frozen=True)
class ConsistencyVerdict:
    status: str                    # pass | fail | error
    states_checked: int = 0
    witness: SystemState | None = None
    laws: tuple = ()
    seed: int | None = None
    message: str = ""


@dataclass(frozen=True)
class CompletenessVerdict:
    status: str                    # pass-bounded | pass-trivially | fail | error
    states_checked: int = 0
    witness: SystemState | None = None
    producing_law: str | None = None
    seed: int | None = None
    message: str = ""


@dataclass(frozen=True)
class AnalysisReport:
    model_name: str
    consistency: ConsistencyVerdict
    completeness: CompletenessVerdict
    determinism: DeterminismVerdict
    computability_notes: tuple
    reality_conformance: str = "not-machine-checkable"


def validstate(model: CausalModel, s: SystemState) -> bool:
    """Disjunction of all law guards on the state, from one call of the
    first-match selector."""
    try:
        model.selectors["first-match"](s)
    except NoApplicableLawError:
        return False
    return True


def _hits(model: CausalModel, s: SystemState) -> list:
    """The laws whose guards hold on the state, in law order: what
    ``eval_guard`` gives law by law, from one call of the strict selector,
    which evaluates every guard (a guard's EvalError leaves it with the
    law's name and location, as it leaves eval_guard)."""
    try:
        return [model.laws[model.selectors["strict"](s)]]
    except NoApplicableLawError:
        return []
    except MultipleApplicableError as exc:
        return [law for law in model.laws if law.name in exc.law_names]


# --- state generation ---------------------------------------------------------


def unsampleable_fields(model: CausalModel) -> list:
    """Names of fields sample_state cannot draw (no domain, grids, pw,
    an interval too wide for a float)."""
    return list(model.schema.sampler.errors)


def _enumerate_domain(td: TypeDesc, name: str):
    """The values of a field of ``td`` that enumerate takes: its value
    set's payloads, the ints of an int interval, or both bools."""
    domain = td.domain
    if domain is not None and domain.is_finite and td.kind in PAYLOAD_TYPES:
        return domain.values
    if td.kind == "bool":
        return (False, True)
    if domain is None:
        raise UnsampleableFieldError(name, "no domain to enumerate")
    if domain.is_finite:
        raise UnsampleableFieldError(name, f"cannot enumerate {td.kind}")
    if td.kind == "int":
        return range(domain.lo, domain.hi + 1)
    raise UnsampleableFieldError(name, "interval domains are not enumerable")


def enumerate_states(model: CausalModel):
    """All states over finite field domains, in declaration order."""
    schema = model.schema
    names = list(schema.fields)
    domains = [_enumerate_domain(schema.fields[n], n) for n in names]
    total = 1
    for d in domains:   # len() of a range stops at 2**63
        total *= d.stop - d.start if type(d) is range else len(d)
        if total > _ENUMERATION_CAP:
            raise EnumerationCapError(
                f"enumeration exceeds {_ENUMERATION_CAP} states")
    for combo in itertools.product(*domains):
        yield SystemState(schema, 0.0, dict(zip(names, combo)))


def _sampled_blocks(model: CausalModel, strategy: CheckStrategy):
    """(the index of its first state, its words) of each block of the
    sample strategy's states: state i is drawn from words 0 to k - 1 of
    the stream ``derive_seed(seed, i)``, k the words a state takes, one
    row of words per state, computed for _CHUNK keys at a time."""
    width = model.schema.sampler.width
    for first in range(0, strategy.count, _CHUNK):
        keys = derive_seeds(strategy.seed, np.arange(
            first, min(first + _CHUNK, strategy.count), dtype=np.uint64))
        yield first, first_words(keys, width)


def _tries(schema: StateSchema, rng: RngStream):
    """States drawn from ``rng`` one after another, k words each: the
    first alone, as it is mostly the one taken, and the rest in chunks
    that double up to _CHUNK."""
    yield sample_state(schema, rng)
    sampler, n = schema.sampler, 1
    while True:
        n = min(2 * n, _CHUNK)
        yield from sampler(schema, rng.words(n * sampler.width).reshape(
            n, sampler.width))


def _sampled_start(model: CausalModel, run_idx: int,
                   strategy: CheckStrategy, rng: RngStream) -> SystemState:
    rng.rekey(derive_seed(strategy.seed, run_idx))
    for s in itertools.islice(_tries(model.schema, rng), _REJECTION_TRIES):
        if validstate(model, s):
            return s
    raise NoValidInStateFoundError(
        f"no valid in-state found in {_REJECTION_TRIES} draws")


# --- consistency and completeness -------------------------------------------------


def guard_disjunction_trivially_true(model: CausalModel) -> bool:
    """Whether some guard folded to the constant true."""
    return any(law.guard.const is True for law in model.laws)


_OPEN = object()   # a verdict the pass is still looking for


@entry_point
def _check(model: CausalModel, strategy: CheckStrategy,
           init: SystemState | None, want) -> tuple:
    """The (consistency, completeness) verdicts named in ``want`` (None
    for one not asked for; the toolkit error its own check would raise),
    from one pass over the strategy's states or runs that stops once
    every verdict is closed. docs/design_notes.md gives the rules."""
    seed, rng = strategy.seed, RngStream(0)
    cons = comp = None
    if "consistency" in want:
        cons = _OPEN if len(model.laws) > 1 else ConsistencyVerdict(
            "pass", message="single law: vacuously consistent")
    if "completeness" in want:
        comp = (CompletenessVerdict("pass-trivially")
                if guard_disjunction_trivially_true(model) else _OPEN)
    if cons is not _OPEN and comp is not _OPEN:
        return cons, comp
    n_cons = n_comp = 0

    def visit(i: int, s: SystemState) -> bool:
        """Check state i of enumerate or sample; whether a verdict is
        still open after it."""
        nonlocal cons, comp, n_cons, n_comp
        try:   # run selects no law where the model halts
            need = cons is _OPEN and not halts(model, s)
        except CausalKitError as exc:
            cons, need = exc, False
        try:
            hits = _hits(model, s) if need or comp is _OPEN else ()
        except CausalKitError as exc:
            cons = exc if need else cons
            comp = exc if comp is _OPEN else comp
            hits, need = (), False
        if need and len(hits) > 1:
            cons = ConsistencyVerdict(
                "fail", states_checked=n_cons, witness=s,
                laws=tuple(law.name for law in hits), seed=seed)
        n_cons += need
        if comp is _OPEN and hits:
            if hits[0].uses_random:   # the only law that reads rng
                rng.rekey(derive_seed(seed ^ 0x6F7574, i))
            try:
                out = apply_law(model, hits[0], s, model.default_timestep, rng)
                n_comp += 1
                if not (halts(model, out) or validstate(model, out)):
                    comp = CompletenessVerdict(
                        "fail", states_checked=n_comp, witness=out,
                        producing_law=hits[0].name, seed=seed)
            except CausalKitError as exc:
                comp = exc
        return cons is _OPEN or comp is _OPEN

    def fast_forward(first: int, words: np.ndarray):
        """The sample states drawn from ``words`` (state ``first`` on)
        checked in columns: the rows before the next one that may close
        an open verdict are counted from masks, and that row is checked
        by visit, rebuilt from its own words."""
        nonlocal n_cons, n_comp
        schema, n = model.schema, len(words)
        c = model.columns(schema.sampler.columns(words)[0],
                          model.default_timestep, n)
        need = ~c.halt
        closes_cons = need & c.multiple
        closes_comp = c.applied & ~(c.finite & (c.post_halt | c.post_valid))
        j = 0
        while True:
            may = ((closes_cons[j:] & (cons is _OPEN))
                   | (closes_comp[j:] & (comp is _OPEN)))
            end = j + (int(may.argmax()) if may.any() else len(may))
            if cons is _OPEN:
                n_cons += int(np.count_nonzero(need[j:end]))
            if comp is _OPEN:
                n_comp += int(np.count_nonzero(c.applied[j:end]))
            if end == n or not visit(first + end, schema.sampler(
                    schema, words[end:end + 1])[0]):
                return
            j = end + 1

    try:
        if strategy.kind == "enumerate":
            for i, s in enumerate(enumerate_states(model)):
                if not visit(i, s):
                    break
        elif strategy.kind == "sample":
            schema = model.schema
            for first, words in _sampled_blocks(model, strategy):
                if model.columns is not None:
                    fast_forward(first, words)
                else:
                    for j, s in enumerate(schema.sampler(schema, words)):
                        if not visit(first + j, s):
                            break
                if cons is not _OPEN and comp is not _OPEN:
                    break
        else:
            can_sample = not unsampleable_fields(model)
            if not can_sample and init is None:
                init = build_initial_state(model)
            for r in range(strategy.runs):
                start = (_sampled_start(model, r, strategy, rng)
                         if can_sample else init)
                cfg = RunConfig(dt=model.default_timestep,
                                max_steps=strategy.steps_per_run,
                                seed=derive_seed(seed ^ 0x7472616365, r))
                trace = None
                if cons is _OPEN:
                    try:
                        trace = run(model, start, cfg, rows=False)
                        term = trace.termination
                        n_cons += trace.steps
                        witness, names = term.witness, term.laws
                        if term.kind == "max-steps":   # no law selected
                            witness = trace.final_state
                            names = tuple(law.name for law
                                          in _hits(model, witness))
                        if term.kind == "eval-error":
                            cons = ConsistencyVerdict("error",
                                                      message=term.message)
                        elif len(names) > 1:
                            cons = ConsistencyVerdict(
                                "fail", states_checked=n_cons, seed=seed,
                                witness=witness, laws=names)
                    except CausalKitError as exc:
                        cons = exc
                    # unless it ended one of these, the strict run selected
                    # one law at every step: the law first-match selects
                    if trace is not None and term.kind in (
                            "multiple-applicable", "eval-error"):
                        trace = None
                if comp is _OPEN:
                    try:
                        if trace is None:
                            trace = run(model, start,
                                        replace(cfg, mode="first-match"),
                                        rows=False)
                        term, steps = trace.termination, trace.steps
                        n_comp += steps
                        if term.kind == "eval-error":
                            comp = CompletenessVerdict("error",
                                                       message=term.message)
                        # a halted run is done; run selects no law at its
                        # last state
                        elif steps and (
                                term.kind == "no-applicable-law"
                                or term.kind == "max-steps"
                                and not validstate(model, trace.final_state)):
                            # the last law's in-state ends a run 1 step shorter
                            before = start if steps == 1 else run(
                                model, start, replace(
                                    cfg, mode="first-match",
                                    max_steps=steps - 1),
                                rows=False).final_state
                            law = select_law(model, before, "first-match")
                            comp = CompletenessVerdict(
                                "fail", states_checked=n_comp, seed=seed,
                                witness=trace.final_state,
                                producing_law=law.name)
                    except CausalKitError as exc:
                        comp = exc
                if cons is not _OPEN and comp is not _OPEN:
                    break
    except CausalKitError as exc:   # the states or start states failed
        cons = exc if cons is _OPEN else cons
        comp = exc if comp is _OPEN else comp
    if cons is _OPEN:
        cons = ConsistencyVerdict("pass", states_checked=n_cons, seed=seed)
    if comp is _OPEN:   # an applied law counts, or closes it with an error
        comp = (CompletenessVerdict("pass-bounded", states_checked=n_comp,
                                    seed=seed)
                if n_comp or strategy.kind == "trace" else
                NoValidInStateFoundError(
                    "sampling produced no state satisfying any guard"))
    return cons, comp


def _raised(verdict):
    if isinstance(verdict, CausalKitError):
        raise verdict
    return verdict


def check_consistency(model: CausalModel, strategy: CheckStrategy,
                      init: SystemState | None = None) -> ConsistencyVerdict:
    """At most one guard may hold. enumerate/sample check arbitrary states
    (the stronger condition); trace checks the states strict runs reach,
    from ``init`` if the model cannot be sampled."""
    return _raised(_check(model, strategy, init, ("consistency",))[0])


def check_completeness(model: CausalModel, strategy: CheckStrategy,
                       init: SystemState | None = None) -> CompletenessVerdict:
    """Every generated out-state that does not halt must satisfy some guard.

    pass-trivially requires the guard disjunction to constant-fold to
    true; otherwise out-states are generated per the strategy (trace:
    first-match runs, from ``init`` if the model cannot be sampled) and
    the first invalid one is returned as a witness with its producing law.
    """
    return _raised(_check(model, strategy, init, ("completeness",))[1])


# --- full analysis ----------------------------------------------------------------


def _intrinsic_inventory(model: CausalModel) -> list:
    nodes = list(walk([[law.guard, law.transition] for law in model.laws]))
    calls = (intrinsics.get(n.func) for n in nodes if isinstance(n, Call))
    kit = {intr.name: intr for intr in calls
           if intr is not None and not intr.builtin}
    notes = []
    for name in sorted(kit):
        flavor = "stochastic" if kit[name].stochastic else "deterministic"
        notes.append(f"uses intrinsic '{name}' ({flavor})")
    if any(isinstance(n, RandomExpr) for n in nodes):
        notes.append("uses the random() primitive")
    return notes


def analyze(model: CausalModel, strategy: CheckStrategy,
            init: SystemState | None = None) -> AnalysisReport:
    """Bundle consistency, bounded completeness, determinism, and
    computability bookkeeping. ``init`` is the trace start state of a
    model with unsampleable fields (default: its initial state). A check
    that fails with a toolkit error is recorded in the report as an
    ``error`` verdict; any other exception is a bug and propagates."""
    notes = []
    bad = unsampleable_fields(model)
    for name in bad:
        notes.append(f"field '{name}' is unsampleable")
    effective = strategy
    if strategy.kind == "sample" and bad:
        effective = replace(strategy, kind="trace")
        notes.append("sample strategy downgraded to trace "
                     "(unsampleable fields)")
    consistency, completeness = _check(model, effective, init,
                                       ("consistency", "completeness"))
    if isinstance(consistency, CausalKitError):
        consistency = ConsistencyVerdict("error", message=str(consistency))
    if isinstance(completeness, CausalKitError):
        completeness = CompletenessVerdict("error", message=str(completeness))
    determinism = classify_determinism(model)
    notes.extend(_intrinsic_inventory(model))
    return AnalysisReport(model_name=model.name,
                          consistency=consistency,
                          completeness=completeness,
                          determinism=determinism,
                          computability_notes=tuple(notes))


def report_to_json(report: AnalysisReport) -> dict:
    def verdict_json(v, laws_key: str, laws):
        out = {"status": v.status, "statesChecked": v.states_checked}
        if v.message:
            out["message"] = v.message
        if v.seed is not None:
            out["seed"] = v.seed
        if v.witness is not None:
            out["witness"] = state_to_json(v.witness)
            out[laws_key] = laws
        return out

    c, p, d = report.consistency, report.completeness, report.determinism
    return {
        "model": report.model_name,
        "consistency": verdict_json(c, "laws", list(c.laws)),
        "completeness": verdict_json(p, "producingLaw", p.producing_law),
        "determinism": {"deterministic": d.deterministic,
                        "randomLaws": list(d.random_laws)},
        "computabilityNotes": list(report.computability_notes),
        "realityConformance": report.reality_conformance,
    }
