"""Law engine: guard evaluation, law selection, transition application.

One causal step reads the pre-state, picks the applicable law, and builds
the post-state. All reads inside a transition see the pre-state
(simultaneous update); writes are collected and merged at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import intrinsics
from .errors import (
    BranchSignal,
    ContinuousRandomError,
    EvalError,
    MultipleApplicableError,
    NoApplicableLawError,
    RandomError,
)
from .frontend.ast_nodes import (
    Assign,
    Binary,
    Call,
    For,
    If,
    Index,
    ListLit,
    Lit,
    Member,
    Name,
    RandomExpr,
    SetLit,
    Unary,
)
from .intrinsics import _WRAP, _rank
from .state import (
    StateSchema,
    SystemState,
    VBool,
    VCGrid,
    VComplex,
    VInt,
    VList,
    VReal,
    VRecord,
    Value,
    VVector,
    check_value,
    make_initial_state,
)

_MAX_TRUNCATION_TRIES = 100_000


# --- random sources -----------------------------------------------------------


class RandomSource:
    """Interface the evaluator draws through; ``RngStream`` satisfies it.

    Categorical draws are the branchable kind; uniform/normal draws are
    continuous and only a stream-backed source supports them.
    """

    def categorical(self, probs, labels=None) -> int:
        """Finite draw; ``labels`` (outcome values) are only used by
        branching sources to name tree edges."""
        raise NotImplementedError

    def uniform01(self) -> float:
        raise NotImplementedError

    def normal(self, mean: float, sigma: float) -> float:
        raise NotImplementedError


# --- random specifications ------------------------------------------------------


@dataclass(frozen=True)
class RandomSpec:
    """Value range plus distribution, validated before sampling."""

    dist: str                    # FLAT | GAUSS | WEIGHTS | PSI
    values: tuple | None = None  # finite range (tuple of Values)
    lo: float | None = None      # interval range
    hi: float | None = None
    params: tuple = ()           # GAUSS: (mean, sigma); WEIGHTS/PSI: numbers

    def validate(self):
        if self.dist == "GAUSS":
            if len(self.params) != 2:
                raise RandomError("GAUSS takes (mean, sigma)")
            if not (self.params[1] > 0):
                raise RandomError("GAUSS sigma must be > 0")
            if self.values is not None:
                raise RandomError("GAUSS needs an interval range")
            return
        if self.values is not None:
            if len(self.values) == 0:
                raise RandomError("empty value range")
            if self.dist in ("WEIGHTS", "PSI"):
                if len(self.params) != len(self.values):
                    raise RandomError(
                        f"{self.dist} needs one parameter per value")
            elif self.dist != "FLAT":
                raise RandomError(f"{self.dist} needs a finite value set")
            return
        if self.lo is None or self.hi is None:
            raise RandomError("missing value range")
        if self.dist == "FLAT" and not (self.lo < self.hi):
            raise RandomError("continuous FLAT requires lo < hi")
        if self.dist in ("WEIGHTS", "PSI"):
            raise RandomError(f"{self.dist} needs a finite value set")

    def probabilities(self) -> np.ndarray:
        """Categorical probabilities for a finite value range."""
        m = len(self.values)
        if self.dist == "FLAT":
            return np.full(m, 1.0 / m)
        if self.dist == "WEIGHTS":
            w = np.array([float(x) for x in self.params])
            if np.any(w < 0):
                raise RandomError("weights must be >= 0")
            total = w.sum()
            if total <= 0:
                raise RandomError("weights sum to zero")
            return w / total
        if self.dist == "PSI":
            p = np.abs(np.array([complex(x) for x in self.params])) ** 2
            total = p.sum()
            if total <= 0:
                raise RandomError("amplitudes sum to zero")
            return p / total
        raise RandomError(f"{self.dist} has no categorical form")


def sample_random(spec: RandomSpec, rng) -> Value:
    """Draw one value according to ``spec``.

    FLAT over an interval is uniform; FLAT over a finite set equiprobable;
    GAUSS is normal (optionally truncated to the interval by rejection);
    WEIGHTS and PSI are categorical, PSI with probabilities proportional
    to squared amplitude moduli.
    """
    spec.validate()
    if spec.values is not None:
        labels = [v.value for v in spec.values]
        i = rng.categorical(spec.probabilities(), labels)
        return spec.values[i]
    if spec.dist == "FLAT":
        return VReal(spec.lo + (spec.hi - spec.lo) * rng.uniform01())
    # GAUSS
    mean, sigma = float(spec.params[0]), float(spec.params[1])
    if spec.lo is None:
        return VReal(rng.normal(mean, sigma))
    for _ in range(_MAX_TRUNCATION_TRIES):
        x = rng.normal(mean, sigma)
        if spec.lo <= x <= spec.hi:
            return VReal(x)
    raise RandomError("truncated GAUSS: acceptance region too improbable")


# --- model structure ----------------------------------------------------------


@dataclass(frozen=True)
class NativeTransition:
    """Transition implemented in Python: (state, dt, rnd) -> field updates."""

    fn: object
    uses_random: bool = False


@dataclass(frozen=True)
class Law:
    name: str
    guard: object                 # typed Expr, bool-valued
    transition: object            # list of statements, or NativeTransition
    uses_random: bool = False


@dataclass(frozen=True)
class CausalModel:
    name: str
    schema: StateSchema
    laws: tuple
    init: tuple = ()              # ((field name, Expr), ...)
    halt: object | None = None
    default_timestep: float = 1.0
    consts: dict = field(default_factory=dict)  # name -> Value

    def __post_init__(self):
        if not self.laws:
            raise ValueError("a causal model needs at least one law")
        if not (self.default_timestep > 0):
            raise ValueError("timestep must be positive")
        names = [l.name for l in self.laws]
        if len(set(names)) != len(names):
            raise ValueError("law names must be unique")

    def law(self, name: str) -> Law:
        for l in self.laws:
            if l.name == name:
                return l
        raise KeyError(name)


# --- evaluation environment -----------------------------------------------------


@dataclass
class _LoopBinding:
    value: Value
    root: str
    index: int


class Env:
    __slots__ = ("state", "consts", "dt", "rnd", "locals")

    def __init__(self, state, consts, dt=None, rnd=None, locals_=None):
        self.state = state
        self.consts = consts
        self.dt = dt
        self.rnd = rnd
        self.locals = locals_ if locals_ is not None else {}


def eval_expr(e, env: Env) -> Value:
    if isinstance(e, Name):
        name = e.id
        binding = env.locals.get(name)
        if binding is not None:
            return binding.value
        v = env.state.values.get(name)
        if v is not None:
            return v
        v = env.consts.get(name)
        if v is not None:
            return v
        if name == "dt":
            if env.dt is None:
                raise EvalError("'dt' is not available here", e.loc)
            return VReal(env.dt)
        raise EvalError(f"unknown name '{name}'", e.loc)
    if isinstance(e, Lit):
        kind = e.kind
        if kind == "int":
            return VInt(e.value)
        if kind == "real":
            return VReal(e.value)
        if kind == "bool":
            return VBool(e.value)
        return VComplex(e.value)
    if isinstance(e, Binary):
        return _eval_binary(e, env)
    if isinstance(e, Unary):
        v = eval_expr(e.operand, env)
        if e.op == "-":
            if isinstance(v, VInt):
                return VInt(-v.value)
            if isinstance(v, VReal):
                return VReal(-v.value)
            if isinstance(v, VComplex):
                return VComplex(-v.value)
            raise EvalError(f"cannot negate {type(v).__name__}", e.loc)
        if not isinstance(v, VBool):
            raise EvalError("'!' needs a bool", e.loc)
        return VBool(not v.value)
    if isinstance(e, Call):
        return _eval_call(e, env)
    if isinstance(e, RandomExpr):
        return _eval_random(e, env)
    if isinstance(e, Member):
        obj = eval_expr(e.obj, env)
        if not isinstance(obj, VRecord):
            raise EvalError("member access on non-record", e.loc)
        try:
            return obj.fields[e.name]
        except KeyError:
            raise EvalError(f"record has no field '{e.name}'", e.loc)
    if isinstance(e, Index):
        return _eval_index(e, env)
    if isinstance(e, ListLit):
        return VList([eval_expr(x, env) for x in e.items])
    if isinstance(e, SetLit):
        raise EvalError("value set outside random()", e.loc)
    raise EvalError(f"cannot evaluate {type(e).__name__}", getattr(e, "loc", None))


def _eval_binary(e: Binary, env: Env) -> Value:
    op = e.op
    if op == "&&":
        left = eval_expr(e.left, env)
        if not isinstance(left, VBool):
            raise EvalError("'&&' needs bools", e.loc)
        if not left.value:
            return VBool(False)
        return eval_expr(e.right, env)
    if op == "||":
        left = eval_expr(e.left, env)
        if not isinstance(left, VBool):
            raise EvalError("'||' needs bools", e.loc)
        if left.value:
            return VBool(True)
        return eval_expr(e.right, env)

    lv = eval_expr(e.left, env)
    rv = eval_expr(e.right, env)

    if op in ("==", "!="):
        if isinstance(lv, VBool) and isinstance(rv, VBool):
            eq = lv.value == rv.value
        else:
            _rank(lv, e.loc)
            _rank(rv, e.loc)
            eq = lv.value == rv.value
        return VBool(eq if op == "==" else not eq)
    if op in ("<", "<=", ">", ">="):
        if isinstance(lv, (VInt, VReal)) and isinstance(rv, (VInt, VReal)):
            a, b = lv.value, rv.value
            if op == "<":
                return VBool(a < b)
            if op == "<=":
                return VBool(a <= b)
            if op == ">":
                return VBool(a > b)
            return VBool(a >= b)
        raise EvalError("ordering needs int or real operands", e.loc)

    rank = max(_rank(lv, e.loc), _rank(rv, e.loc))
    a, b = lv.value, rv.value
    if op == "+":
        return _WRAP[rank](a + b)
    if op == "-":
        return _WRAP[rank](a - b)
    if op == "*":
        return _WRAP[rank](a * b)
    if op == "/":
        if b == 0:
            raise EvalError("division by zero", e.loc)
        return VComplex(a / b) if rank == 2 else VReal(a / b)
    if op == "^":
        if rank == 2:
            raise EvalError("'^' is not defined for complex", e.loc)
        try:
            r = a ** b
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalError(f"power failed: {exc}", e.loc)
        if rank == 0 and isinstance(r, int):
            return VInt(r)
        if isinstance(r, complex):
            raise EvalError("power of a negative base with fractional "
                            "exponent", e.loc)
        return VReal(r)
    raise EvalError(f"unknown operator '{op}'", e.loc)


def _eval_index(e: Index, env: Env) -> Value:
    obj = eval_expr(e.obj, env)
    idx = eval_expr(e.index, env)
    if not isinstance(idx, VInt):
        raise EvalError("index must be int", e.index.loc)
    i = idx.value
    if isinstance(obj, VList):
        if not 0 <= i < len(obj.items):
            raise EvalError(f"index {i} out of range (len {len(obj.items)})",
                            e.loc)
        return obj.items[i]
    if isinstance(obj, VVector):
        if not 0 <= i < len(obj.values):
            raise EvalError(f"index {i} out of range (len {len(obj.values)})",
                            e.loc)
        return VReal(obj.values[i])
    if isinstance(obj, VCGrid):
        if not 0 <= i < len(obj.amps):
            raise EvalError(f"index {i} out of range (len {len(obj.amps)})",
                            e.loc)
        return VComplex(obj.amps[i])
    raise EvalError("indexing needs a list, vector, or cgrid", e.loc)


def _eval_call(e: Call, env: Env) -> Value:
    f = e.func
    args = [eval_expr(a, env) for a in e.args]
    intr = intrinsics.get(f)
    if intr is None:
        raise EvalError(f"unknown function '{f}'", e.loc)
    if intr.stochastic and env.rnd is None:
        raise EvalError(f"stochastic intrinsic '{f}' is not allowed here",
                        e.loc)
    try:
        return intr.impl(args, env)
    except (ContinuousRandomError, BranchSignal):
        raise
    except EvalError as exc:
        if exc.loc is not None:
            raise
        raise EvalError(exc.message, e.loc)
    except Exception as exc:
        raise EvalError(f"{f}: {exc}", e.loc)


def _eval_random(e: RandomExpr, env: Env) -> Value:
    if env.rnd is None:
        raise EvalError("random() is not allowed here", e.loc)
    spec = build_random_spec(e, env)
    try:
        return sample_random(spec, env.rnd)
    except RandomError as exc:
        raise EvalError(f"random: {exc}", e.loc)


def build_random_spec(e: RandomExpr, env: Env) -> RandomSpec:
    dist = e.dist.name
    params = tuple(eval_expr(a, env).value for a in e.dist.args)
    if e.range_ is None:
        return RandomSpec(dist, params=params)
    if isinstance(e.range_, SetLit):
        values = tuple(eval_expr(item, env) for item in e.range_.items)
        return RandomSpec(dist, values=values, params=params)
    lo = eval_expr(e.range_.items[0], env).value
    hi = eval_expr(e.range_.items[1], env).value
    return RandomSpec(dist, lo=float(lo), hi=float(hi), params=params)


# --- guards and law selection ------------------------------------------------------


def eval_guard(law: Law, s: SystemState, consts: dict | None = None) -> bool:
    """Evaluate a law's guard on a state. Pure: no randomness, no mutation."""
    env = Env(s, consts if consts is not None else _consts_of(s.schema))
    try:
        v = eval_expr(law.guard, env)
    except EvalError as exc:
        raise EvalError(exc.message, exc.loc, law=law.name)
    if not isinstance(v, VBool):
        raise EvalError("guard did not evaluate to bool", law=law.name)
    return v.value


def _consts_of(schema: StateSchema) -> dict:
    return {n: v for n, (_, v) in schema.constants.items()}


def select_law(model: CausalModel, s: SystemState, mode: str = "strict") -> Law:
    """Pick the applicable law.

    strict: exactly one guard must hold (raises with the state as witness
    otherwise); first-match: first law whose guard holds.
    """
    if mode == "first-match":
        for law in model.laws:
            if eval_guard(law, s, model.consts):
                return law
        raise NoApplicableLawError(s)
    if mode != "strict":
        raise ValueError(f"unknown mode '{mode}'")
    hits = [law for law in model.laws if eval_guard(law, s, model.consts)]
    if not hits:
        raise NoApplicableLawError(s)
    if len(hits) > 1:
        raise MultipleApplicableError(s, [l.name for l in hits])
    return hits[0]


# --- transition application ----------------------------------------------------------


def apply_law(law: Law, s0: SystemState, dt: float, rng,
              consts: dict | None = None) -> SystemState:
    """Apply a law's transition to s0 and return s1 (time unchanged).

    All reads see s0; ``dt`` is available to expressions by that name.
    """
    consts = consts if consts is not None else _consts_of(s0.schema)
    schema = s0.schema
    try:
        if isinstance(law.transition, NativeTransition):
            try:
                updates = law.transition.fn(s0, dt, rng)
            except (EvalError, ContinuousRandomError, BranchSignal):
                raise
            except Exception as exc:
                raise EvalError(f"native transition failed: {exc}")
            for name, v in updates.items():
                check_value(v, schema.fields[name], schema, where=name)
            return s0.with_updates(updates)
        env = Env(s0, consts, dt=dt, rnd=rng)
        writes: list = []
        _exec_block(law.transition, env, writes)
    except EvalError as exc:
        raise EvalError(exc.message, exc.loc, law=law.name)
    values = dict(s0.values)
    touched = set()
    for path, target_td, value in writes:
        root = path[0]
        if len(path) == 1:
            values[root] = _coerce(value, target_td)
        else:
            values[root] = _set_path(values[root], path[1:],
                                     _coerce(value, target_td))
        touched.add(root)
    for root in touched:
        check_value(values[root], schema.fields[root], schema, where=root)
    return SystemState(schema, s0.time, values)


def _coerce(value: Value, td) -> Value:
    """Numeric promotion approved by the typechecker (int->real->complex)."""
    if td is None:
        return value
    if td.kind == "real" and isinstance(value, VInt):
        return VReal(float(value.value))
    if td.kind == "complex" and isinstance(value, (VInt, VReal)):
        return VComplex(complex(value.value))
    return value


def _exec_block(stmts, env: Env, writes: list):
    for stmt in stmts:
        if isinstance(stmt, Assign):
            path = _resolve_target(stmt.target, env)
            value = eval_expr(stmt.value, env)
            writes.append((path, stmt.target.ty, value))
        elif isinstance(stmt, If):
            cond = eval_expr(stmt.cond, env)
            if not isinstance(cond, VBool):
                raise EvalError("if condition must be bool", stmt.loc)
            _exec_block(stmt.then if cond.value else stmt.orelse, env, writes)
        elif isinstance(stmt, For):
            src = env.state.values.get(stmt.source.id)
            if not isinstance(src, VList):
                raise EvalError(f"'{stmt.source.id}' is not a list", stmt.loc)
            for i, item in enumerate(src.items):
                env.locals[stmt.var] = _LoopBinding(item, stmt.source.id, i)
                _exec_block(stmt.body, env, writes)
            env.locals.pop(stmt.var, None)
        else:
            raise EvalError(f"unknown statement {type(stmt).__name__}",
                            stmt.loc)


def _resolve_target(target, env: Env) -> tuple:
    if isinstance(target, Name):
        binding = env.locals.get(target.id)
        if binding is not None:
            return (binding.root, binding.index)
        if target.id in env.state.values:
            return (target.id,)
        raise EvalError(f"cannot assign to '{target.id}'", target.loc)
    if isinstance(target, Member):
        return _resolve_target(target.obj, env) + (target.name,)
    if isinstance(target, Index):
        idx = eval_expr(target.index, env)
        if not isinstance(idx, VInt):
            raise EvalError("index must be int", target.loc)
        return _resolve_target(target.obj, env) + (idx.value,)
    raise EvalError("invalid assignment target", getattr(target, "loc", None))


def _set_path(value: Value, parts: tuple, new: Value) -> Value:
    if not parts:
        return new
    p = parts[0]
    if isinstance(value, VList):
        if not isinstance(p, int) or not 0 <= p < len(value.items):
            raise EvalError(f"index {p} out of range")
        items = list(value.items)
        items[p] = _set_path(items[p], parts[1:], new)
        return VList(items)
    if isinstance(value, VRecord):
        if p not in value.fields:
            raise EvalError(f"record has no field '{p}'")
        fields = dict(value.fields)
        fields[p] = _set_path(fields[p], parts[1:], new)
        return VRecord(value.record, fields)
    if isinstance(value, VVector):
        if parts[1:] or not isinstance(p, int):
            raise EvalError("bad vector assignment")
        if not 0 <= p < len(value.values):
            raise EvalError(f"index {p} out of range")
        arr = value.values.copy()
        arr[p] = new.value
        return VVector(arr)
    if isinstance(value, VCGrid):
        if parts[1:] or not isinstance(p, int):
            raise EvalError("bad cgrid assignment")
        if not 0 <= p < len(value.amps):
            raise EvalError(f"index {p} out of range")
        arr = value.amps.copy()
        arr[p] = new.value
        return VCGrid(arr, value.dx)
    raise EvalError("cannot assign into this value")


# --- stepping -----------------------------------------------------------------------


def halts(model: CausalModel, s: SystemState) -> bool:
    """Whether the model's halt condition holds on ``s``."""
    if model.halt is None:
        return False
    return bool(eval_expr(model.halt, Env(s, model.consts)).value)


def step(model: CausalModel, s0: SystemState, dt: float, rng,
         mode: str = "strict", time_after: float | None = None) -> SystemState:
    """One causal step: select the law, apply it, advance time by dt."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    law = select_law(model, s0, mode)
    s1 = apply_law(law, s0, dt, rng, model.consts)
    t = s0.time + dt if time_after is None else time_after
    return SystemState(s1.schema, t, s1.values)


def build_initial_state(model: CausalModel) -> SystemState:
    """Evaluate the model's init block into a time-0 state."""
    assigned: dict = {}
    partial = SystemState(model.schema, 0.0,
                          {n: v for n, v in assigned.items()})
    for name, expr in model.init:
        env = Env(partial, model.consts)
        value = _coerce(eval_expr(expr, env), model.schema.fields[name])
        assigned[name] = value
        partial = SystemState(model.schema, 0.0, dict(assigned))
    return make_initial_state(model.schema, assigned)


# --- determinism classification -------------------------------------------------------


@dataclass(frozen=True)
class DeterminismVerdict:
    deterministic: bool
    random_laws: tuple = ()

    def __str__(self):
        if self.deterministic:
            return "deterministic"
        return f"nondeterministic({', '.join(self.random_laws)})"


def classify_determinism(model: CausalModel) -> DeterminismVerdict:
    """Nondeterministic iff some law samples (directly or via a stochastic
    intrinsic)."""
    names = tuple(l.name for l in model.laws if l.uses_random)
    return DeterminismVerdict(deterministic=not names, random_laws=names)
