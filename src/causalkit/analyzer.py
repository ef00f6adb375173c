"""Model-level property checks with concrete witnesses.

The checks are bounded: they enumerate finite domains, sample random
states, or trace reachable states, and report exactly what was checked.
The only unbounded claim is "pass-trivially", which requires the guard
disjunction to fold to the constant true.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .engine import (
    CausalModel,
    DeterminismVerdict,
    NativeTransition,
    apply_law,
    build_initial_state,
    classify_determinism,
    eval_guard,
    halts,
    select_law,
)
from .errors import (
    NoValidInStateFoundError,
    UnsampleableFieldError,
)
from .frontend.ast_nodes import Call, RandomExpr, walk
from .frontend.typecheck import const_fold
from . import intrinsics
from .interpreter import RunConfig, run
from .rng import RngStream, derive_seed
from .state import (
    PAYLOAD_TYPES,
    SystemState,
    TypeDesc,
    sample_state,
    sample_value,
    state_to_json,
)

_ENUMERATION_CAP = 1_000_000
_REJECTION_TRIES = 10_000


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
    """Disjunction of all law guards on the state."""
    return any(eval_guard(law, s) for law in model.laws)


# --- state generation ---------------------------------------------------------


def unsampleable_fields(model: CausalModel) -> list:
    """Names of fields sample_state cannot draw (no domain, grids, pw)."""
    out = []
    rng = RngStream(0)
    for name, td in model.schema.fields.items():
        try:
            sample_value(td, model.schema, rng, name)
        except UnsampleableFieldError:
            out.append(name)
    return out


def _enumerate_domain(td: TypeDesc, name: str):
    if td.kind == "bool":
        if td.domain is not None and td.domain.is_finite:
            return [bool(v) for v in td.domain.values]
        return [False, True]
    if td.domain is None:
        raise UnsampleableFieldError(name, "no domain to enumerate")
    if td.domain.is_finite:
        if td.kind not in ("int", "real"):
            raise UnsampleableFieldError(name, f"cannot enumerate {td.kind}")
        return [PAYLOAD_TYPES[td.kind](v) for v in td.domain.values]
    if td.kind == "int":
        lo, hi = int(td.domain.lo), int(td.domain.hi)
        return list(range(lo, hi + 1))
    raise UnsampleableFieldError(name, "interval domains are not enumerable")


def enumerate_states(model: CausalModel):
    """All states over finite field domains, in declaration order."""
    schema = model.schema
    names = list(schema.fields)
    domains = [_enumerate_domain(schema.fields[n], n) for n in names]
    total = 1
    for d in domains:
        total *= len(d)
        if total > _ENUMERATION_CAP:
            raise ValueError(
                f"enumeration exceeds {_ENUMERATION_CAP} states")
    for combo in itertools.product(*domains):
        yield SystemState(schema, 0.0, dict(zip(names, combo)))


def _sampled_states(model: CausalModel, strategy: CheckStrategy):
    for i in range(strategy.count):
        rng = RngStream(derive_seed(strategy.seed, i))
        yield sample_state(model.schema, rng)


def _sampled_start(model: CausalModel, run_idx: int,
                   strategy: CheckStrategy) -> SystemState:
    rng = RngStream(derive_seed(strategy.seed, run_idx))
    for _ in range(_REJECTION_TRIES):
        s = sample_state(model.schema, rng)
        if validstate(model, s):
            return s
    raise NoValidInStateFoundError(
        f"no valid in-state found in {_REJECTION_TRIES} draws")


def _trace_runs(model: CausalModel, strategy: CheckStrategy, mode: str,
                init: SystemState | None):
    """The trace strategy: one ``run`` per trace run, in ``mode``, from a
    sampled valid start state, or from ``init`` (default: the model's
    initial state) if the model has unsampleable fields."""
    can_sample = not unsampleable_fields(model)
    if not can_sample and init is None:
        init = build_initial_state(model)
    for r in range(strategy.runs):
        start = _sampled_start(model, r, strategy) if can_sample else init
        cfg = RunConfig(dt=model.default_timestep,
                        max_steps=strategy.steps_per_run,
                        seed=derive_seed(strategy.seed ^ 0x7472616365, r),
                        mode=mode)
        yield run(model, start, cfg)


# --- consistency ----------------------------------------------------------------


def check_consistency(model: CausalModel, strategy: CheckStrategy,
                      init: SystemState | None = None) -> ConsistencyVerdict:
    """At most one guard may hold. enumerate/sample check arbitrary states
    (the stronger condition); trace checks the states strict runs reach,
    from ``init`` if the model cannot be sampled."""
    if len(model.laws) == 1:
        return ConsistencyVerdict("pass", states_checked=0,
                                  message="single law: vacuously consistent")
    if strategy.kind == "trace":
        return _consistency_by_trace(model, strategy, init)
    states = (enumerate_states(model) if strategy.kind == "enumerate"
              else _sampled_states(model, strategy))
    checked = 0
    for s in states:
        if halts(model, s):   # run selects no law where the model halts
            continue
        hits = [law.name for law in model.laws if eval_guard(law, s)]
        if len(hits) > 1:
            return ConsistencyVerdict("fail", states_checked=checked,
                                      witness=s, laws=tuple(hits),
                                      seed=strategy.seed)
        checked += 1
    return ConsistencyVerdict("pass", states_checked=checked,
                              seed=strategy.seed)


def _consistency_by_trace(model, strategy, init) -> ConsistencyVerdict:
    checked = 0
    for trace in _trace_runs(model, strategy, "strict", init):
        term = trace.termination
        if term.kind == "eval-error":
            return ConsistencyVerdict("error", message=term.message)
        checked += len(trace.rows) - 1
        witness, laws = term.witness, term.laws
        if term.kind == "max-steps":   # run selects no law at its last state
            witness = trace.final_state
            laws = tuple(law.name for law in model.laws
                         if eval_guard(law, witness))
        if len(laws) > 1:
            return ConsistencyVerdict("fail", states_checked=checked,
                                      witness=witness, laws=laws,
                                      seed=strategy.seed)
    return ConsistencyVerdict("pass", states_checked=checked,
                              seed=strategy.seed)


# --- completeness ----------------------------------------------------------------


def guard_disjunction_trivially_true(model: CausalModel) -> bool:
    consts = model.schema.constants
    consts_val = {n: v for n, (_, v) in consts.items()}
    return any(const_fold(law.guard, consts_val) is True
               for law in model.laws)


def check_completeness(model: CausalModel, strategy: CheckStrategy,
                       init: SystemState | None = None) -> CompletenessVerdict:
    """Every generated out-state that does not halt must satisfy some guard.

    pass-trivially requires the guard disjunction to constant-fold to
    true; otherwise out-states are generated per the strategy (trace:
    first-match runs, from ``init`` if the model cannot be sampled) and
    the first invalid one is returned as a witness with its producing law.
    """
    if guard_disjunction_trivially_true(model):
        return CompletenessVerdict("pass-trivially")
    if strategy.kind == "trace":
        return _completeness_by_trace(model, strategy, init)
    states = (enumerate_states(model) if strategy.kind == "enumerate"
              else _sampled_states(model, strategy))
    checked = 0
    found_valid = False
    for i, s in enumerate(states):
        hits = [law for law in model.laws if eval_guard(law, s)]
        if not hits:
            continue
        found_valid = True
        rng = RngStream(derive_seed(strategy.seed ^ 0x6F7574, i))
        out = apply_law(hits[0], s, model.default_timestep, rng)
        checked += 1
        if not halts(model, out) and not validstate(model, out):
            return CompletenessVerdict("fail", states_checked=checked,
                                       witness=out,
                                       producing_law=hits[0].name,
                                       seed=strategy.seed)
    if not found_valid:
        raise NoValidInStateFoundError(
            "sampling produced no state satisfying any guard")
    return CompletenessVerdict("pass-bounded", states_checked=checked,
                               seed=strategy.seed)


def _completeness_by_trace(model, strategy, init) -> CompletenessVerdict:
    checked = 0
    for trace in _trace_runs(model, strategy, "first-match", init):
        term = trace.termination
        if term.kind == "eval-error":
            return CompletenessVerdict("error", message=term.message)
        steps = len(trace.rows) - 1
        checked += steps
        # a halted run is done; run selects no law at its last state
        stuck = (term.kind == "no-applicable-law"
                 or term.kind == "max-steps"
                 and not validstate(model, trace.final_state))
        if stuck and steps:
            law = select_law(model, trace.rows[-2].snapshot, "first-match")
            return CompletenessVerdict("fail", states_checked=checked,
                                       witness=trace.final_state,
                                       producing_law=law.name,
                                       seed=strategy.seed)
    return CompletenessVerdict("pass-bounded", states_checked=checked,
                               seed=strategy.seed)


# --- full analysis ----------------------------------------------------------------


def _intrinsic_inventory(model: CausalModel) -> list:
    cml = [law.transition for law in model.laws
           if not isinstance(law.transition, NativeTransition)]
    nodes = list(walk([law.guard for law in model.laws] + cml))
    calls = (intrinsics.get(n.func) for n in nodes if isinstance(n, Call))
    kit = {intr.name: intr for intr in calls
           if intr is not None and not intr.builtin}
    notes = [f"law '{law.name}' uses a native transition "
             "(not inspectable as CML)"
             for law in model.laws
             if isinstance(law.transition, NativeTransition)]
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
    model with unsampleable fields (default: its initial state). Check
    failures are recorded in the report, never raised."""
    notes = []
    bad = unsampleable_fields(model)
    for name in bad:
        notes.append(f"field '{name}' is unsampleable")
    effective = strategy
    if strategy.kind == "sample" and bad:
        effective = replace(strategy, kind="trace")
        notes.append("sample strategy downgraded to trace "
                     "(unsampleable fields)")
    try:
        consistency = check_consistency(model, effective, init)
    except Exception as exc:  # noqa: BLE001 - report, never crash
        consistency = ConsistencyVerdict("error", message=str(exc))
    try:
        completeness = check_completeness(model, effective, init)
    except Exception as exc:  # noqa: BLE001
        completeness = CompletenessVerdict("error", message=str(exc))
    determinism = classify_determinism(model)
    notes.extend(_intrinsic_inventory(model))
    return AnalysisReport(model_name=model.name,
                          consistency=consistency,
                          completeness=completeness,
                          determinism=determinism,
                          computability_notes=tuple(notes))


def report_to_json(report: AnalysisReport) -> dict:
    def consistency_json(v: ConsistencyVerdict):
        out = {"status": v.status, "statesChecked": v.states_checked}
        if v.message:
            out["message"] = v.message
        if v.seed is not None:
            out["seed"] = v.seed
        if v.witness is not None:
            out["witness"] = state_to_json(v.witness)
            out["laws"] = list(v.laws)
        return out

    def completeness_json(v: CompletenessVerdict):
        out = {"status": v.status, "statesChecked": v.states_checked}
        if v.message:
            out["message"] = v.message
        if v.seed is not None:
            out["seed"] = v.seed
        if v.witness is not None:
            out["witness"] = state_to_json(v.witness)
            out["producingLaw"] = v.producing_law
        return out

    d = report.determinism
    return {
        "model": report.model_name,
        "consistency": consistency_json(report.consistency),
        "completeness": completeness_json(report.completeness),
        "determinism": {"deterministic": d.deterministic,
                        "randomLaws": list(d.random_laws)},
        "computabilityNotes": list(report.computability_notes),
        "realityConformance": report.reality_conformance,
    }
