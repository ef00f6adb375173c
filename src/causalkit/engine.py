"""Law engine: guard evaluation, law selection, transition application.

One causal step reads the pre-state, picks the applicable law, and builds
the post-state. All reads inside a transition see the pre-state
(simultaneous update); writes are collected and merged at the end.

Guards, transitions, the halt condition, ``init`` expressions and
observables are compiled once, when the model (or observable) is built,
into nested Python closures; see "Compiled closures" below.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import KW_ONLY, InitVar, dataclass, field

import numpy as np

from . import intrinsics
from .errors import (
    BranchSignal,
    ContinuousRandomError,
    EvalError,
    MultipleApplicableError,
    NoApplicableLawError,
)
from .frontend.ast_nodes import (
    Assign,
    Binary,
    Call,
    For,
    If,
    Index,
    Let,
    ListLit,
    Lit,
    Member,
    Name,
    RandomExpr,
    SetLit,
    Unary,
    format_expr,
)
from .state import (
    PAYLOAD_TYPES,
    StateSchema,
    SystemState,
    VCGrid,
    VList,
    VRecord,
    Value,
    VVector,
    check_value,
    make_initial_state,
)

_MAX_TRUNCATION_TRIES = 100_000


# --- model structure ----------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """A guarded transition, compiled against ``schema`` when constructed."""

    name: str
    guard: object                 # typed Expr, bool-valued
    transition: list              # typed statements
    uses_random: bool = False
    _: KW_ONLY
    schema: InitVar[StateSchema]
    compiled_guard: object = field(init=False, repr=False, compare=False)
    compiled_transition: object = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self, schema):
        object.__setattr__(self, "compiled_guard",
                           _compile(self.guard, _Scope(schema)))
        object.__setattr__(self, "compiled_transition",
                           _compile_transition(self.transition, schema))


@dataclass(frozen=True)
class CausalModel:
    name: str
    schema: StateSchema
    laws: tuple
    init: tuple = ()              # ((field name, Expr), ...)
    halt: object | None = None
    default_timestep: float = 1.0
    compiled_halt: object = field(init=False, repr=False, compare=False)
    compiled_init: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.laws:
            raise ValueError("a causal model needs at least one law")
        if not (self.default_timestep > 0):
            raise ValueError("timestep must be positive")
        names = [l.name for l in self.laws]
        if len(set(names)) != len(names):
            raise ValueError("law names must be unique")
        scope = _Scope(self.schema)
        object.__setattr__(self, "compiled_halt", None if self.halt is None
                           else _compile(self.halt, scope))
        object.__setattr__(self, "compiled_init", tuple(
            (name, _write(expr, self.schema.fields[name].kind, scope,
                          expr.loc, name))
            for name, expr in self.init))

    def law(self, name: str) -> Law:
        for l in self.laws:
            if l.name == name:
                return l
        raise KeyError(name)


# --- compiled closures ------------------------------------------------------------
#
# Every expression node is compiled once into a closure that takes one
# argument, ``env``: anything with a ``values`` dict of field values. Guards,
# the halt condition, init expressions and observables get the SystemState
# itself; a transition gets an Env, which adds dt, the random source, the
# slots of loop variables and lets, and the list of writes. The typechecker
# has fixed every node's type and rejected every node out of place (an
# unknown name or function, ``dt`` or a draw outside a transition), so
# nothing is checked again here;
# operators and names are resolved once: a closure of scalar
# type (int, real, bool, complex) returns a payload of exactly that kind's
# Python type, any other returns a Value. An int is promoted to real or
# complex, or a real to complex, only where the static kinds differ: at a
# write, a list literal's item or a random value set's member.


class Env:
    """What a transition's closures read and write."""

    __slots__ = ("values", "dt", "rnd", "locals", "writes")

    def __init__(self, values: dict, dt, rnd, slots: int = 0):
        self.values = values            # pre-state field values
        self.dt = None if dt is None else float(dt)
        self.rnd = rnd
        self.locals = [None] * slots    # (index, item) per loop, value per let
        self.writes = []                # (root field, path or None, value)


class _Const:
    """A payload or Value known at compile time; calling it returns it."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __call__(self, env):
        return self.value


class _Scope:
    """The names an expression can read: state fields, constants (folded
    to payloads), loop variables, lets and, in a transition, ``dt``."""

    def __init__(self, schema: StateSchema):
        self.fields = schema.fields
        self.consts = {n: v for n, (_, v) in schema.constants.items()}
        # loop variable -> (slot, list field); let -> (slot, None)
        self.locals: dict = {}
        self.slots = 0          # slots handed out so far


def compile_observable(expr, schema: StateSchema):
    """Compile a typechecked expression once; the closure maps a state to
    the expression's value there (a payload for a scalar type). A real or
    complex value must be finite, as a write's must."""
    return _finite(_compile(expr, _Scope(schema)), expr.ty.kind, expr.loc,
                   f"in observable '{format_expr(expr)}'")


def _compile(e, scope: _Scope):
    return _COMPILERS[type(e)](e, scope)


def _promoted(e, kind: str, scope):
    """``e`` compiled to give a value of ``kind``: an int or real payload
    is promoted to a wider kind here, and only here."""
    code = _compile(e, scope)
    if e.ty.kind == kind or kind not in PAYLOAD_TYPES:
        return code
    return _apply(PAYLOAD_TYPES[kind], code)


def _apply(fn, *codes):
    """fn over the operands' values; folded when every operand is constant
    (unless fn raises, which is then left to happen at run time)."""
    if all(isinstance(c, _Const) for c in codes):
        try:
            return _Const(fn(*(c.value for c in codes)))
        except Exception:
            pass
    if len(codes) == 1:
        x, = codes
        return lambda env: fn(x(env))
    left, right = codes
    if isinstance(left, _Const):
        a = left.value
        return lambda env: fn(a, right(env))
    if isinstance(right, _Const):
        b = right.value
        return lambda env: fn(left(env), b)
    return lambda env: fn(left(env), right(env))


def _lit(e: Lit, scope):
    return _Const(e.value)


def _name(e: Name, scope: _Scope):
    name = e.id
    if name in scope.locals:
        slot, source = scope.locals[name]
        if source is None:
            return lambda env: env.locals[slot]
        return lambda env: env.locals[slot][1]
    if name in scope.fields:
        return lambda env: env.values[name]
    if name in scope.consts:
        return _Const(scope.consts[name])
    loc = e.loc

    def dt(env):   # the one other name a typed transition can read
        d = env.dt
        if d is None:
            raise EvalError("'dt' is not available here", loc)
        return d
    return dt


def _unary(e: Unary, scope):
    return _apply(intrinsics.unary(e.op, e.ty.kind, e.loc),
                  _compile(e.operand, scope))


def _binary(e: Binary, scope):
    op, loc = e.op, e.loc
    left, right = _compile(e.left, scope), _compile(e.right, scope)
    if op == "&&":
        if isinstance(left, _Const):
            return right if left.value else _Const(False)
        return lambda env: left(env) and right(env)
    if op == "||":
        if isinstance(left, _Const):
            return _Const(True) if left.value else right
        return lambda env: left(env) or right(env)
    return _apply(intrinsics.binary(op, e.ty.kind, loc), left, right)


def _member(e: Member, scope):
    obj, name = _compile(e.obj, scope), e.name
    return lambda env: obj(env).fields[name]


def _index(e: Index, scope):
    obj, index, loc = _compile(e.obj, scope), _compile(e.index, scope), e.loc
    kind = e.obj.ty.kind
    # a list holds values, a vector numpy floats, a cgrid numpy complexes
    items, item = {"list": (operator.attrgetter("items"), None),
                   "vector": (operator.attrgetter("values"), float),
                   "cgrid": (operator.attrgetter("amps"), complex)}[kind]

    def at(env):
        seq = items(obj(env))
        i = index(env)
        if not 0 <= i < len(seq):
            raise EvalError(f"index {i} out of range (len {len(seq)})", loc)
        return seq[i] if item is None else item(seq[i])
    return at


def _call(e: Call, scope: _Scope):
    f, loc = e.func, e.loc
    intr = intrinsics.get(f)
    args = [_compile(a, scope) for a in e.args]
    impl, stochastic = intr.impl, intr.stochastic

    def call(env):
        values = [a(env) for a in args]
        if stochastic and env.rnd is None:
            raise EvalError(f"stochastic intrinsic '{f}' is not allowed here",
                            loc)
        try:
            return impl(values, env)
        except (ContinuousRandomError, BranchSignal):
            raise
        except EvalError as exc:
            if exc.loc is not None:
                raise
            raise EvalError(exc.message, loc)
        except Exception as exc:
            raise EvalError(f"{f}: {exc}", loc)
    if f == "sum" and e.ty.kind != "int":   # an empty list sums to int 0
        return _apply(PAYLOAD_TYPES[e.ty.kind], call)
    return call


def _random(e: RandomExpr, scope: _Scope):
    """A draw compiled to the sampler of its form, one of the six rows of
    the ``random`` table in docs/cml.md, which the typechecker has fixed.
    Each draw evaluates the parameters, then the range, checks that each
    is finite and lets the form check the rest of what depends on their
    values. A form whose parameters and range are all constant is
    prepared once (unless that fails, which is then left to the draw)."""
    loc, dist, range_ = e.loc, e.dist.name, e.range_
    codes = [_compile(a, scope) for a in e.dist.args]
    n = len(codes)
    if range_ is None:
        form, names = _gauss, ("mean", "sigma")
    elif isinstance(range_, SetLit):
        kind = range_.ty.element.kind
        codes += [_promoted(x, kind, scope) for x in range_.items]
        form, name = {"FLAT": (_flat_set, ""), "WEIGHTS": (_weights, "weight"),
                      "PSI": (_psi, "amplitude")}[dist]
        names = (name,) * n + ("value",) * len(range_.items)
    else:
        codes += [_compile(x, scope) for x in range_.items]
        form = _flat_interval if dist == "FLAT" else _gauss
        names = ("mean", "sigma")[:n] + ("lo", "hi")

    def prepare(args):
        for name, x in zip(names, args):
            if not cmath.isfinite(x):
                raise EvalError(f"random: non-finite {name} {x}", loc)
        return form(args[:n], args[n:], loc)
    sampler = lambda env: prepare(tuple([c(env) for c in codes]))
    if all(isinstance(c, _Const) for c in codes):
        try:
            sampler = _Const(prepare(tuple(c.value for c in codes)))
        except EvalError:
            pass

    def draw(env):
        rnd = env.rnd
        if rnd is None:
            raise EvalError("random() is not allowed here", loc)
        return sampler(env)(rnd)
    return draw


def _categorical(probs, values):
    """A finite set's sampler. The outcome is drawn by index, so a
    branching source records the probabilities and the values."""
    return lambda rnd: values[rnd.categorical(probs, values)]


def _normalized(probs, exact_sum: float, what: str, loc):
    """probs() / its sum. ``exact_sum``, taken in Python first, must be
    finite (numpy would warn as it overflowed), and the sum positive."""
    if not math.isfinite(exact_sum):
        raise EvalError(f"random: non-finite {what} sum {exact_sum}", loc)
    p = probs()
    total = p.sum()
    if total <= 0:
        raise EvalError(f"random: {what}s sum to zero", loc)
    return p / total


def _flat_set(params, values, loc):
    return _categorical(np.full(len(values), 1.0 / len(values)), values)


def _weights(params, values, loc):
    w = np.array([float(x) for x in params])
    if np.any(w < 0):
        raise EvalError("random: weights must be >= 0", loc)
    probs = _normalized(lambda: w, sum(params), "weight", loc)
    return _categorical(probs, values)


def _psi(params, values, loc):
    amps = [complex(x) for x in params]
    exact = sum(a.real * a.real + a.imag * a.imag for a in amps)
    probs = _normalized(lambda: np.abs(np.array(amps)) ** 2, exact,
                        "amplitude", loc)
    return _categorical(probs, values)


def _flat_interval(params, bounds, loc):
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise EvalError("random: continuous FLAT requires lo < hi", loc)
    width = hi - lo
    if not math.isfinite(width):
        raise EvalError(f"random: non-finite interval width {width}", loc)
    return lambda rnd: lo + width * rnd.uniform01()


def _gauss(params, bounds, loc):
    """Unbounded, or truncated to ``bounds`` by rejection."""
    mean, sigma = params
    if not sigma > 0:
        raise EvalError("random: GAUSS sigma must be > 0", loc)
    mean, sigma = float(mean), float(sigma)
    if not bounds:
        def sample(rnd):
            x = rnd.normal(mean, sigma)
            if not math.isfinite(x):
                raise EvalError(f"random: non-finite draw {x}", loc)
            return x
        return sample
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise EvalError(f"random: truncated GAUSS requires lo < hi, got "
                        f"lo {lo} and hi {hi}", loc)

    def truncated(rnd):
        for _ in range(_MAX_TRUNCATION_TRIES):
            x = rnd.normal(mean, sigma)
            if lo <= x <= hi:
                return x
        raise EvalError(
            "random: truncated GAUSS: acceptance region too improbable", loc)
    return truncated


def _list(e: ListLit, scope):
    # items take the literal's element type: [1, 2.5] is a list of reals
    kind = e.ty.element.kind
    items = [_promoted(x, kind, scope) for x in e.items]
    return lambda env: VList([item(env) for item in items])


_COMPILERS = {Lit: _lit, Name: _name, Unary: _unary, Binary: _binary,
              Member: _member, Index: _index, Call: _call,
              RandomExpr: _random, ListLit: _list}


# --- compiled statements: each appends its writes to env.writes ----------------


def _compile_transition(stmts, schema: StateSchema):
    """Closure (pre-state values, dt, random source) -> list of writes."""
    scope = _Scope(schema)
    body = _block(stmts, scope)
    slots = scope.slots

    def transition(values, dt, rnd):
        env = Env(values, dt, rnd, slots)
        body(env)
        return env.writes
    return transition


def _block(stmts, scope):
    outer = dict(scope.locals)
    parts = [_STATEMENTS[type(s)](s, scope) for s in stmts]
    scope.locals = outer   # a let is visible to the end of its block
    if len(parts) == 1:
        return parts[0]

    def block(env):
        for part in parts:
            part(env)
    return block


def _write(e, kind: str, scope, loc, target: str):
    """``e`` compiled for a write to a target of ``kind``: promoted, and
    for a real or complex target checked to be finite."""
    return _finite(_promoted(e, kind, scope), kind, loc,
                   f"written to '{target}'")


def _finite(code, kind: str, loc, where: str):
    """``code`` checked to give a finite value if ``kind`` is real or
    complex; else EvalError "non-finite value <v> <where>"."""
    isfinite = {"real": math.isfinite, "complex": cmath.isfinite}.get(kind)
    if isfinite is None or isinstance(code, _Const) and isfinite(code.value):
        return code

    def finite(env):
        v = code(env)
        if isfinite(v):
            return v
        raise EvalError(f"non-finite value {v} {where}", loc)
    return finite


def _assign(stmt: Assign, scope):
    root, path = _target(stmt.target, scope)
    kind = stmt.target.ty.kind
    value = _write(stmt.value, kind, scope, stmt.loc,
                   format_expr(stmt.target))
    if path is None:
        # a whole scalar field has its kind's payload type by construction,
        # so it needs no check_value; a whole composite field does (path ())
        whole = None if kind in PAYLOAD_TYPES else ()
        return lambda env: env.writes.append((root, whole, value(env)))
    return lambda env: env.writes.append((root, path(env), value(env)))


def _target(t, scope: _Scope):
    """(root field, path): path is None for a whole field, else a closure
    giving the parts below the root, innermost index evaluated first."""
    if isinstance(t, Name):
        if t.id in scope.locals:   # a loop variable: lets are not written
            slot, root = scope.locals[t.id]
            return root, lambda env: (env.locals[slot][0],)
        return t.id, None
    root, base = _target(t.obj, scope)
    if base is None:
        base = _Const(())
    if isinstance(t, Member):
        name = t.name
        return root, lambda env: base(env) + (name,)
    index = _compile(t.index, scope)

    def path(env):
        i = index(env)
        return base(env) + (i,)
    return root, path


def _if(stmt: If, scope):
    cond = _compile(stmt.cond, scope)
    then, orelse = _block(stmt.then, scope), _block(stmt.orelse, scope)
    if isinstance(cond, _Const):
        return then if cond.value else orelse
    return lambda env: (then if cond(env) else orelse)(env)


def _new_slot(name: str, source, scope: _Scope) -> int:
    slot = scope.slots
    scope.slots += 1
    scope.locals[name] = (slot, source)
    return slot


def _for(stmt: For, scope: _Scope):
    source = stmt.source.id
    slot = _new_slot(stmt.var, source, scope)
    body = _block(stmt.body, scope)
    del scope.locals[stmt.var]

    def loop(env):
        slots = env.locals
        for slots[slot] in enumerate(env.values[source].items):
            body(env)
    return loop


def _let(stmt: Let, scope: _Scope):
    value = _compile(stmt.value, scope)
    slot = _new_slot(stmt.name, None, scope)

    def let(env):
        env.locals[slot] = value(env)
    return let


_STATEMENTS = {Assign: _assign, If: _if, For: _for, Let: _let}


# --- guards and law selection ------------------------------------------------------


def eval_guard(law: Law, s: SystemState) -> bool:
    """Evaluate a law's guard on a state. Pure: no randomness, no mutation."""
    try:
        return law.compiled_guard(s)
    except EvalError as exc:
        raise EvalError(exc.message, exc.loc, law=law.name)


def select_law(model: CausalModel, s: SystemState, mode: str = "strict") -> Law:
    """Pick the applicable law.

    strict: exactly one guard must hold (raises with the state as witness
    otherwise); first-match: first law whose guard holds.
    """
    if mode == "first-match":
        for law in model.laws:
            if eval_guard(law, s):
                return law
        raise NoApplicableLawError(s)
    if mode != "strict":
        raise ValueError(f"unknown mode '{mode}'")
    hits = [law for law in model.laws if eval_guard(law, s)]
    if not hits:
        raise NoApplicableLawError(s)
    if len(hits) > 1:
        raise MultipleApplicableError(s, [l.name for l in hits])
    return hits[0]


# --- transition application ----------------------------------------------------------


def apply_law(law: Law, s0: SystemState, dt: float, rng,
              time: float | None = None) -> SystemState:
    """Apply a law's transition to s0 and return s1 at ``time`` (default
    s0's time).

    All reads see s0; ``dt`` is available to expressions by that name.
    An ``EvalError`` or ``ContinuousRandomError`` leaves with the law's name.
    """
    schema = s0.schema
    try:
        writes = law.compiled_transition(s0.values, dt, rng)
    except EvalError as exc:
        raise EvalError(exc.message, exc.loc, law=law.name)
    except ContinuousRandomError:
        raise ContinuousRandomError(law=law.name)
    values = dict(s0.values)
    composite = {}
    for root, path, value in writes:
        if path is None:
            values[root] = value
        else:
            values[root] = _set_path(values[root], path, value)
            composite[root] = None
    for root in composite:
        check_value(values[root], schema.fields[root], schema, where=root)
    return SystemState(schema, s0.time if time is None else time, values)


def _set_path(value: Value, parts: tuple, new):
    """``value`` with ``new`` at ``parts``. The typechecker has matched
    each part to the value it walks into, so only an index can be wrong."""
    if not parts:
        return new
    p = parts[0]
    if isinstance(value, VList):
        if not 0 <= p < len(value.items):
            raise EvalError(f"index {p} out of range")
        items = list(value.items)
        items[p] = _set_path(items[p], parts[1:], new)
        return VList(items)
    if isinstance(value, VRecord):
        fields = dict(value.fields)
        fields[p] = _set_path(fields[p], parts[1:], new)
        return VRecord(value.record, fields)
    if isinstance(value, VVector):
        if not 0 <= p < len(value.values):
            raise EvalError(f"index {p} out of range")
        arr = value.values.copy()
        arr[p] = new
        return VVector(arr)
    if not 0 <= p < len(value.amps):   # a cgrid
        raise EvalError(f"index {p} out of range")
    arr = value.amps.copy()
    arr[p] = new
    return VCGrid(arr, value.dx)


# --- stepping -----------------------------------------------------------------------


def halts(model: CausalModel, s: SystemState) -> bool:
    """Whether the model's halt condition holds on ``s``."""
    halt = model.compiled_halt
    return halt is not None and halt(s)


def step(model: CausalModel, s0: SystemState, dt: float, rng,
         mode: str = "strict", time_after: float | None = None) -> SystemState:
    """One causal step: select the law, apply it, stamp ``time_after``
    (default s0.time + dt). ``run``, ensembles and branching step here."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    law = select_law(model, s0, mode)
    return apply_law(law, s0, dt, rng,
                     s0.time + dt if time_after is None else time_after)


def build_initial_state(model: CausalModel) -> SystemState:
    """Evaluate the model's init block into a time-0 state."""
    assigned: dict = {}
    partial = SystemState(model.schema, 0.0, assigned)  # fields so far
    for name, value in model.compiled_init:
        assigned[name] = value(partial)
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
