"""Law engine: guard evaluation, law selection, transition application.

One causal step reads the pre-state, picks the applicable law, and builds
the post-state. All reads inside a transition see the pre-state
(simultaneous update); each write is stored into the post-state where it
stands.

A ``Law`` is its source, and its model owns what is compiled of it, so
the host calls take the model first. Building a model emits and
compiles only its ``init`` block, which every command reads. Its step
code (the transitions, the law selectors and the halt condition) is one
Python module, compiled on the first read of any part of it, once per
model (``_StepCode``); a law's lone guard, which only ``eval_guard``
reads, on that law's first ``eval_guard`` call; and the column forms of
its checks, which the analyzer's sample strategy reads, on first use
(``CausalModel.columns``). An observable list is compiled when it is
built. See "Generated code" below.
"""

from __future__ import annotations

import cmath
import functools
import gc
import itertools
import linecache
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import intrinsics
from .errors import (
    ContinuousRandomError,
    EvalError,
    MultipleApplicableError,
    NoApplicableLawError,
)
from .frontend.ast_nodes import (
    Assign, Call, Loc, Member, Name, RandomExpr, SetLit, format_expr, walk)
from .frontend.typecheck import retyped
from .pw import PwCollection
from .state import (
    PAYLOAD_TYPES,
    StateSchema,
    SystemState,
    VCGrid,
    VRecord,
    VVector,
    check_value,
    make_initial_state,
)


# --- model structure ----------------------------------------------------------


@dataclass(frozen=True)
class Law:
    """A guarded transition, as its source states it. ``uses_random`` is
    read off the transition: whether it draws, by ``random(...)`` or a
    stochastic intrinsic. What is compiled of a law belongs to the model
    that holds it (``CausalModel.transitions``, ``eval_guard``)."""

    name: str
    guard: object                 # typed Expr, bool-valued
    transition: list              # typed statements
    uses_random: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "uses_random", any(
            isinstance(n, RandomExpr) or isinstance(n, Call)
            and getattr(intrinsics.get(n.func), "stochastic", False)
            for n in walk(self.transition)))


@dataclass(frozen=True)
class CausalModel:
    name: str
    schema: StateSchema
    laws: tuple
    init: tuple = ()              # ((field name, Expr), ...)
    halt: object | None = None
    default_timestep: float = 1.0
    init_fn: object = field(init=False, repr=False, compare=False)
    code: object = field(init=False, repr=False, compare=False)  # _StepCode

    def __post_init__(self):
        if not self.laws:
            raise ValueError("a causal model needs at least one law")
        if not (self.default_timestep > 0):
            raise ValueError("timestep must be positive")
        names = [l.name for l in self.laws]
        if len(set(names)) != len(names):
            raise ValueError("law names must be unique")
        _compile_model(self)

    def law(self, name: str) -> Law:
        for l in self.laws:
            if l.name == name:
                return l
        raise KeyError(name)

    def _index(self, law: Law) -> int:
        """The index of ``law``, found by its name; ValueError unless it is
        the model's law of that name or equal to it."""
        for i, own in enumerate(self.laws):
            if own is law or own.name == law.name and own == law:
                return i
        raise ValueError(
            f"law '{law.name}' is not a law of model '{self.name}'")

    @functools.cached_property
    def transitions(self) -> list:
        """Per law, its transition (pre-state, dt, random source, time ->
        post-state) from the step code."""
        fns = self.code.fns
        return [fns[f"apply{i}"] for i in range(len(self.laws))]

    @functools.cached_property
    def selectors(self) -> dict:
        """mode -> state -> the index of the applicable law, from the step
        code."""
        fns = self.code.fns
        return {"strict": fns["select_strict"],
                "first-match": fns["select_first"]}

    @functools.cached_property
    def halt_fn(self):
        """The halt condition (state -> bool) from the step code, or None
        for a model that never halts."""
        return None if self.halt is None else self.code.fns["halt"]

    @property
    def source(self) -> str:
        """The step code's Python source."""
        self.code.fns
        return self.code.source

    @functools.cached_property
    def columns(self):
        """``columns(v, dt, n)``: the :class:`Columns` of a batch of ``n``
        states, ``v`` mapping each field to the array of its values, for a
        model ``_compile_columns`` covers; None for any other. Emitted and
        compiled on first use, so only what reads it pays for it."""
        return _compile_columns(self)


# --- generated code ---------------------------------------------------------------
#
# An _Emitter walks the typed AST once and writes Python source; see
# "Generated code" in docs/design_notes.md. The typechecker has fixed every
# node's type, folded every constant expression and rejected every node out
# of place, so nothing is checked or evaluated again here. A scalar text
# gives a payload of exactly its kind's Python type, a list text a tuple, a
# pwcollection text a PwCollection and any other its wrapper; an
# int is promoted to real or complex, or a real to complex, only where the
# static kinds differ: at a write, a list literal's item or a random value
# set's member.

_SERIAL = itertools.count(1)
# Python allows 20 statically nested loops and trys in one function; a
# transition's body sits in one try, and a for nested deeper than this
# runs its body as a function defined in the loop around it.
_MAX_LOOPS = 18


def _fail(message: str, loc):
    raise EvalError(message, loc)


def _nonfinite(value, where: str, loc) -> EvalError:
    if isinstance(value, (VVector, VCGrid)):   # its first non-finite element
        elements = _elements(value)
        i = int(np.flatnonzero(~np.isfinite(elements))[0])
        value = f"{elements[i].item()} at index {i}"
    return EvalError(f"non-finite value {value} {where}", loc)


def _elements(value) -> np.ndarray:
    return value.amps if type(value) is VCGrid else value.values


def _elements_finite(value) -> bool:
    """Whether every element of a vector or cgrid is finite (counting is
    cheaper than ``.all()``)."""
    elements = _elements(value)
    return np.count_nonzero(np.isfinite(elements)) == len(elements)


# a checked kind -> the name of its finiteness test in an _Emitter's namespace
_FINITE = {"real": "_isfinite", "complex": "_cisfinite",
           "vector": "_elements_finite", "cgrid": "_elements_finite"}


def _finite(isfinite, expr, where=None):
    """x -> x, or EvalError "non-finite value <x> <where>" at expr's
    location; ``where`` defaults to "in observable '<expr>'" (the text is
    made only then)."""
    def finite(x):
        if isfinite(x):
            return x
        raise _nonfinite(x, where or f"in observable '{format_expr(expr)}'",
                         expr.loc)
    return finite


def _indexer(elements, convert, copy, rebuild):
    """at(value, i, loc) -> convert(elements(value)[i]), and put(value, i,
    new, loc) -> rebuild(value, elements(value) copied, new at i); i
    checked."""
    def at(value, i, loc):
        seq = elements(value)
        if 0 <= i < len(seq):
            return convert(seq[i])
        raise EvalError(f"index {i} out of range (len {len(seq)})", loc)

    def put(value, i, new, loc):
        seq = elements(value)
        if 0 <= i < len(seq):
            seq = copy(seq)
            seq[i] = new
            return rebuild(value, seq)
        raise EvalError(f"index {i} out of range (len {len(seq)})", loc)
    return at, put


# kind -> its at and its put: a list is the tuple of its values (``tuple``
# gives a tuple itself), a vector holds numpy floats, a cgrid numpy
# complexes
_AT, _PUT = (dict(zip(("list", "vector", "cgrid"), fns)) for fns in zip(
    _indexer(tuple, lambda x: x, list, lambda v, s: tuple(s)),
    _indexer(operator.attrgetter("values"), float, np.ndarray.copy,
             lambda v, s: VVector(s)),
    _indexer(operator.attrgetter("amps"), complex, np.ndarray.copy,
             lambda v, s: VCGrid(s, v.dx))))


def _intrinsic_call(intr, loc):
    """(random source, *args) -> ``intr``'s value at the call at ``loc``.
    A kit function's EvalError (it carries no location) gets ``loc``, and
    any other exception (a kit function draws only by ``categorical``,
    which no source refuses) becomes EvalError "<function>: <exc>"."""
    f, impl, stochastic = intr.name, intr.impl, intr.stochastic

    def call(rnd, *args):
        if stochastic and rnd is None:
            raise EvalError(f"stochastic intrinsic '{f}' is not allowed here",
                            loc)
        try:
            return impl(args, rnd)
        except EvalError as exc:
            raise EvalError(exc.message, loc)
        except Exception as exc:
            raise EvalError(f"{f}: {exc}", loc)
    return call


class _Emitter:
    """Python source for one model or observable list, and the namespace
    it runs in: ``expr`` gives an expression's text, a statement appends
    lines to ``body``, each with its CML ``line:col`` in a comment. ``rnd``
    and ``dt`` are None in the namespace; a transition's parameters
    shadow them."""

    def __init__(self, schema: StateSchema):
        self.ns = {c.__name__: c for c in (
            EvalError, ContinuousRandomError, NoApplicableLawError,
            MultipleApplicableError, SystemState, VRecord, VVector, VCGrid,
            PwCollection, _fail, _nonfinite, _elements_finite)}
        self.ns.update(_isfinite=math.isfinite, _cisfinite=cmath.isfinite,
                       check_value=check_value, rnd=None, dt=None)
        self.field_locals = {n: f"f{i}" for i, n in enumerate(schema.fields)}
        self.schema = schema
        self.bound: dict = {}     # id or (line, col) of a bound object -> name
        self.serial = itertools.count()
        self.holes = None         # while a run's template is emitted: what
        #                           ``vary`` was given

    column = 0   # the INLINE text used: over payloads

    def start(self, reads_state: bool = True):
        """Begin a function; fields are read through locals loaded at its
        top, or (``init``) through the dict ``v`` it fills."""
        self.reads_state = reads_state
        self.reads: dict = {}     # field -> its local, in first-read order
        self.locals: dict = {}    # let or loop variable -> (text, index, list)
        self.body: list = []
        self.depth = 1
        self.loops = 0            # for loops open in the function
        self.dt_read = None       # the location of the first read of dt
        self.written: dict = {}   # composite root -> written at the top

    def loads(self, sep: str = "\n    ", reads=None) -> str:
        """The lines, or ``sep``-joined statements, that load the fields
        read into their locals."""
        return "".join(f"{sep}{local} = v[{name!r}]"
                       for name, local in (self.reads if reads is None
                                           else reads).items())

    def line(self, text: str, loc=None):
        note = "" if loc is None else f"  # {loc}"
        self.body.append("    " * self.depth + text + note)

    def name(self, prefix: str) -> str:
        return f"{prefix}{next(self.serial)}"

    def bind(self, obj, prefix: str = "_k") -> str:
        """A name for ``obj`` in the namespace (a location keyed by value,
        anything else by identity)."""
        key = (obj.line, obj.col) if type(obj) is Loc else id(obj)
        name = self.bound.get(key)
        if name is None:
            name = self.bound[key] = self.name(prefix)
            self.ns[name] = obj
        return name

    def vary(self, obj, prefix: str = "_k") -> str:
        """``bind``; or, while a run's template is emitted, the loop
        variable that holds ``obj``: an int literal, or what carries a
        location or an observable's text, in which one observable of a run
        differs from the next."""
        if self.holes is None:
            return self.bind(obj, prefix)
        self.holes.append(obj)
        return f"h{len(self.holes) - 1}"

    def const(self, value) -> str:
        """A payload's text; while a run's template is emitted, an int is a
        hole (``vary``)."""
        t = type(value)
        if t is int and self.holes is not None:
            return self.vary(value)
        if t is bool or t is int or t is float and math.isfinite(value):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        return self.bind(value)

    def folded(self, e, kind: str):
        """The payload of ``kind`` (an int promoted to real or complex, a
        real to complex) that ``promoted`` gives as a constant's text for
        ``e``; None if it gives another: ``e`` is not constant, or is an
        int, a hole while a run's template is emitted."""
        value = e.const
        if value is None or type(value) is int and self.holes is not None:
            return None
        if e.ty.kind == kind or kind not in PAYLOAD_TYPES:
            return value
        return PAYLOAD_TYPES[kind](value)

    def promoted(self, e, kind: str) -> str:
        """``e``'s text, giving a value of ``kind``."""
        if e.ty.kind == kind or kind not in PAYLOAD_TYPES:
            return self.expr(e)
        value = self.folded(e, kind)
        if value is None:
            return self.apply(PAYLOAD_TYPES[kind], self.expr(e))
        return self.const(value)

    # --- expressions: one method per node type ---------------------------

    def expr(self, e) -> str:
        """``e``'s text: that of the constant the typechecker folded it to
        (a literal's, typed or not), else its node type's."""
        if e.const is not None:
            return self.const(e.const)
        return getattr(self, "_" + type(e).__name__)(e)

    def _Name(self, e):
        name = e.id
        if name in self.locals:
            return self.locals[name][0]
        if name in self.field_locals:
            if not self.reads_state:
                return f"v[{name!r}]"
            return self.reads.setdefault(name, self.field_locals[name])
        if name in self.schema.constants:   # a name never typed
            return self.const(self.schema.constants[name][1])
        # dt, the one other name a transition can read
        self.dt_read = self.dt_read or e.loc
        return "dt"

    def apply(self, fn, *args) -> str:
        """``fn`` over the operands' texts: its inline text or a call of
        it."""
        template = intrinsics.INLINE.get(fn, (None, None))[self.column]
        if template is None:
            return f"{self.vary(fn, '_f')}({', '.join(args)})"
        return template.format(*args)

    def _Unary(self, e):
        return self.apply(intrinsics.unary(e.op, e.ty.kind, e.loc),
                          self.expr(e.operand))

    def _Binary(self, e):
        op = e.op
        left, right = self.expr(e.left), self.expr(e.right)
        if op in ("&&", "||"):
            if e.left.const is not None:   # true && x, false || x: x
                return right
            return intrinsics.INLINE[op][self.column].format(left, right)
        return self.apply(intrinsics.binary(op, e.ty.kind, e.loc), left, right)

    def _Member(self, e):
        return f"{self.expr(e.obj)}.fields[{e.name!r}]"

    def _Index(self, e):
        at = self.bind(_AT[e.obj.ty.kind], "_at")
        return f"{at}({self.expr(e.obj)}, {self.expr(e.index)}, " \
               f"{self.vary(e.loc)})"

    def _Call(self, e):
        args = "".join(", " + self.expr(a) for a in e.args)
        call = self.vary(_intrinsic_call(intrinsics.get(e.func), e.loc), "_c")
        if e.func == "sum" and e.ty.kind != "int":   # an empty list sums to 0
            return f"{PAYLOAD_TYPES[e.ty.kind].__name__}({call}(rnd{args}))"
        return f"{call}(rnd{args})"

    def _ListLit(self, e):
        # items take the literal's element type: [1, 2.5] is a list of reals;
        # a real, complex, vector or cgrid item is checked to be finite, as
        # a write of it is
        kind = e.ty.element.kind
        isfinite = self.ns[_FINITE[kind]] if kind in _FINITE else None
        items = []
        for x in e.items:
            text, value = self.promoted(x, kind), self.folded(x, kind)
            if isfinite is not None and not (
                    value is not None and isfinite(value)):
                check = _finite(isfinite, x, "in a list literal")
                text = f"{self.vary(check, '_o')}({text})"
            items.append(text)
        return f"({', '.join(items)}{',' * (len(items) == 1)})"

    def _RandomExpr(self, e):
        """A draw: the sampler its form's entry in ``intrinsics.DRAWS``
        builds, the form the typechecker has fixed. Each draw evaluates
        the parameters, then the range, checks that each is finite and
        lets the form check the rest of what depends on their values. A
        form whose parameters and range are all constant is prepared once
        (unless that fails, which is then left to the draw)."""
        loc, range_ = e.loc, e.range_
        draw = intrinsics.DRAWS[e.dist.name, e.shape]
        args = [self.expr(a) for a in e.dist.args]
        n = len(args)
        names = draw.names * n if draw.arity is None else draw.names
        items = () if range_ is None else range_.items
        values = [x.const for x in (*e.dist.args, *items)]
        if isinstance(range_, SetLit):
            kind = range_.ty.element.kind
            args += [self.promoted(x, kind) for x in items]
            names += ("value",) * len(items)
            values[n:] = [self.folded(x, kind) for x in items]
        elif range_ is not None:
            args += [self.expr(x) for x in items]
            names += ("lo", "hi")

        def prepare(*args):
            for name, x in zip(names, args):
                if not cmath.isfinite(x):
                    raise EvalError(f"random: non-finite {name} {x}", loc)
            return draw.build(args[:n], args[n:], loc)
        sampler = f"{self.vary(prepare, '_p')}({', '.join(args)})"
        if None not in values:
            try:
                sampler = self.vary(prepare(*values), "_s")
            except EvalError:
                pass
        return (f"({sampler}(rnd) if rnd is not None else "
                f"_fail('random() is not allowed here', {self.vary(loc)}))")

    # --- statements: each appends lines to body ----------------------------

    def block(self, stmts, depth: int = 1):
        outer = dict(self.locals)   # a let is visible to the end of its block
        self.depth += depth
        size = len(self.body)
        for s in stmts:
            getattr(self, "_" + type(s).__name__)(s)
        if len(self.body) == size:
            self.line("pass")
        self.depth -= depth
        self.locals = outer

    def checked(self, text: str, kind: str, loc, where: str = "",
                value=None) -> str:
        """A local holding ``text``'s value, checked to be finite if
        ``kind`` is real, complex, vector or cgrid (EvalError "non-finite
        value <v> <where>"). The text of a constant ``value`` that passes
        (a promotion keeps it finite), and an unchecked local (no local is
        assigned twice in a statement), are used as they are."""
        isfinite = _FINITE.get(kind)
        if value is not None and (
                isfinite is None or self.ns[isfinite](value)):
            return text
        if isfinite is None and text.isidentifier():
            return text
        local = self.name("t")
        self.line(f"{local} = {text}", loc)
        if isfinite is not None:
            self.line(f"if not {isfinite}({local}): raise _nonfinite("
                      f"{local}, {where!r}, {self.bind(loc)})", loc)
        return local

    def write_value(self, e, kind: str, loc, target: str) -> str:
        """``checked``; a direct call of a kernel that refuses its own
        non-finite result (``Intrinsic.checks_result``) is not scanned."""
        text = self.promoted(e, kind)
        if type(e) is Call and intrinsics.get(e.func).checks_result:
            kind = None   # no test; a promotion keeps a value finite
        return self.checked(text, kind, loc, f"written to '{target}'",
                            value=e.const)

    def _Assign(self, s):
        """The value stored into the post-state dict ``n``, a path by
        rebuilding its root from ``n``: writes merge in source order."""
        root, parts = self.target(s.target)
        value = self.write_value(s.value, s.target.ty.kind, s.loc,
                                 format_expr(s.target))
        if parts:
            value = self.rebuild(f"n[{root!r}]", parts, value, s.loc)
        self.line(f"n[{root!r}] = {value}", s.loc)
        if self.schema.fields[root].kind not in PAYLOAD_TYPES:
            # a composite root; depth 2 is the top of the body
            self.written[root] = self.written.get(root) or self.depth == 2

    def target(self, t):
        """(root field, a (container kind, text, location) per part below
        it). Each index is evaluated to a local here, an index before the
        indices inside its object."""
        if isinstance(t, Name):
            if t.id in self.locals:   # a loop variable: lets are not written
                _, index, root = self.locals[t.id]
                return root, [("list", index, t.loc)]
            return t.id, []
        part = (repr(t.name) if isinstance(t, Member)
                else self.checked(self.expr(t.index), "int", t.loc,
                                  value=t.index.const))
        root, base = self.target(t.obj)
        return root, base + [(t.obj.ty.kind, part, t.loc)]

    def rebuild(self, obj: str, parts, value: str, loc) -> str:
        """A copy of ``obj`` with ``value`` at ``parts``, each container on
        the way a local: a record member in a ``VRecord`` copy, an element
        through its kind's put, a list element on the way read by ``_AT``."""
        (kind, part, at), local = parts[0], self.name("o")
        self.line(f"{local} = {obj}", loc)
        if len(parts) > 1:
            inner = (f"{local}.fields[{part}]" if kind == "record" else
                     f"{self.bind(_AT['list'], '_at')}({local}, {part}, "
                     f"{self.bind(at)})")
            value = self.rebuild(inner, parts[1:], value, loc)
        if kind == "record":
            return f"VRecord({local}.record, {{**{local}.fields, " \
                   f"{part}: {value}}})"
        return f"{self.bind(_PUT[kind], '_put')}({local}, {part}, {value}, " \
               f"{self.bind(at)})"

    def _If(self, s):
        if s.cond.const is not None:
            return self.block(s.then if s.cond.const else s.orelse, 0)
        self.line(f"if {self.expr(s.cond)}:", s.loc)
        self.block(s.then)
        if s.orelse:
            self.line("else:")
            self.block(s.orelse)

    def _For(self, s):
        index, item = self.name("i"), self.name("l")
        head = f"for {index}, {item} in enumerate({self.expr(s.source)}):"
        self.locals[s.var] = (item, index, s.source.id)
        if self.loops < _MAX_LOOPS:
            self.line(head, s.loc)
            self.loops += 1
            self.block(s.body)
            self.loops -= 1
        else:   # the body, as a function of its own, starts a new count
            body = self.name("b")
            self.line(f"def {body}({index}, {item}):", s.loc)
            loops, self.loops = self.loops, 0
            self.block(s.body)
            self.loops = loops
            self.line(head, s.loc)
            self.line(f"    {body}({index}, {item})", s.loc)
        del self.locals[s.var]

    def _Let(self, s):
        if s.value.const is None:   # a constant is folded where it is read
            value, local = self.expr(s.value), self.name("l")
            self.line(f"{local} = {value}", s.loc)
            self.locals[s.name] = (local, None, None)

    # --- functions -----------------------------------------------------------

    def condition(self, fn: str, e) -> tuple:
        """(the one-line function ``fn`` of a state giving ``e``, e's text,
        the fields it reads)."""
        self.start()
        text = self.expr(e)
        return (f"def {fn}(s): v = s.values{self.loads('; ')}; "
                f"return {text}  # {e.loc}", text, self.reads)

    def passes(self, td, x: str) -> str:
        """A test that the value ``x`` has type ``td``, made of the walk's
        own predicates (``state.check_value``), so it holds exactly where
        the walk passes. A list's items are tested through ``all``, a
        function of its own, so lists nested past Python's static block
        limit compile."""
        kind = td.kind
        if kind in PAYLOAD_TYPES:
            return f"type({x}) is {PAYLOAD_TYPES[kind].__name__}"
        if kind == "list":
            item = self.name("x")
            return (f"type({x}) is tuple and all("
                    f"{self.passes(td.element, item)} for {item} in {x})")
        if kind == "record":
            members = self.schema.records[td.record]
            keys = self.bind(frozenset(n for n, _ in members), "_r")
            return " and ".join([
                f"type({x}) is VRecord and {x}.record == {td.record!r} and "
                f"{x}.fields.keys() == {keys}",
                *(self.passes(f, f"{x}.fields[{n!r}]") for n, f in members)])
        if kind == "vector":
            return f"isinstance({x}, VVector) and len({x}.values) == {td.length}"
        if kind == "cgrid":
            return (f"isinstance({x}, VCGrid) and len({x}.amps) == {td.length}"
                    f" and {x}.dx == {self.const(td.dx)}")
        declared = tuple((n, t.kind) for n, t in td.attrs)
        return (f"isinstance({x}, PwCollection) and "
                f"{x}.attr_decls == {declared!r}")

    def transition(self, law: Law, fn: str) -> list:
        """The body writes into ``n``, a copy of the pre-state's values;
        then each composite root written is type-checked once, in
        first-write order (one written only under an ``if`` or a ``for``
        only if its value is new): by its ``passes`` test, and only where
        that fails by ``check_value`` with the field's type bound, which
        names the error. A body that reads dt takes it as a float first (a
        None dt fails at the first read's location)."""
        self.start()
        self.block(law.transition)
        if self.dt_read is not None:
            self.body.insert(0, "        dt = float(dt) if dt is not None else "
                             f"_fail(\"'dt' is not available here\", "
                             f"{self.bind(self.dt_read)})  # {self.dt_read}")
        checks = []
        for r, always in self.written.items():
            td = self.schema.fields[r]
            new = "" if always else f"w is not v[{r!r}] and "
            checks += [f"    w = n[{r!r}]",
                       f"    if {new}not ({self.passes(td, 'w')}):",
                       f"        check_value(w, {self.bind(td, '_t')}, "
                       f"s0.schema, {r!r})"]
        return [
            f"def {fn}(s0, dt, rnd, time):  # law {law.name}",
            f"    v = s0.values{self.loads()}", "    n = v.copy()", "    try:",
            *self.body,
            "    except EvalError as e:",
            f"        raise EvalError(e.message, e.loc, law={law.name!r})",
            "    except ContinuousRandomError:",
            f"        raise ContinuousRandomError(law={law.name!r})",
            *checks, "    return SystemState(s0.schema, time, n)"]

    def init(self, model: CausalModel) -> list:
        self.start(reads_state=False)
        for name, e in model.init:
            value = self.write_value(e, model.schema.fields[name].kind, e.loc,
                                     name)
            self.line(f"v[{name!r}] = {value}", e.loc)
        return ["def init():", "    v = {}", *self.body, "    return v"]


def _compile_model(model: CausalModel):
    """Emit and compile ``model``'s init block, and give the model its
    step code (``_StepCode``, compiled on first use).

    Parts typed under other constant values than the schema's (a
    constant's name folded to another payload object) are typed again as
    copies, so a model folds its own."""
    consts = model.schema.constants
    if any(type(n) is Name and n.const is not None and n.id in consts
           and n.const is not consts[n.id][1] for n in walk(
               [[law.guard, law.transition] for law in model.laws]
               + [e for _, e in model.init] + [model.halt])):
        again = functools.partial(retyped, schema=model.schema)
        object.__setattr__(model, "laws", tuple(
            Law(law.name, again(law.guard), again(law.transition))
            for law in model.laws))
        object.__setattr__(model, "init", tuple(
            (name, again(e)) for name, e in model.init))
        if model.halt is not None:
            object.__setattr__(model, "halt", again(model.halt))
    em = _Emitter(model.schema)
    init = "\n".join(em.init(model)) + "\n"
    object.__setattr__(model, "init_fn", _exec(
        init, em.ns, f"init {model.name}", ("init",), model)[0])
    object.__setattr__(model, "code", _StepCode(model))


class _StepCode:
    """A model's step code: per law a transition, a selector per mode
    with the guards inline (it gives the law's index) and the halt
    condition, emitted as one module and compiled on the first read of
    ``fns``, which also sets ``source``, ``ns`` and ``guards`` (per law
    the line of its lone guard, compiled on its first ``guard`` call).
    Only the model holds it, and it holds the model's fields, not the
    model, so a dropped model is freed at once, and the source with it.

    strict: every guard is evaluated and exactly one must hold (else the
    state is the witness); first-match: the first law whose guard holds.
    A guard's EvalError leaves with its law's name."""

    def __init__(self, model: CausalModel):
        self.name, self.schema = model.name, model.schema
        self.laws, self.halt = model.laws, model.halt
        self.lone: dict = {}   # law index -> its compiled lone guard

    def guard(self, i: int):
        """Law ``i``'s lone guard (state -> bool), which only
        ``eval_guard`` reads: the line the emission wrote for it,
        compiled in the step code's namespace on first use."""
        fn = self.lone.get(i)
        if fn is None:
            self.fns   # emits the line
            fn = self.lone[i] = _exec(self.guards[i], self.ns,
                                      f"guard {self.laws[i].name}",
                                      ("guard",), self)[0]
        return fn

    @functools.cached_property
    def fns(self) -> dict:
        em = _Emitter(self.schema)
        lines, reads, strict, first, hits, guards = [], {}, [], [], [], []
        for i, law in enumerate(self.laws):
            guard, text, guard_reads = em.condition("guard", law.guard)
            guards.append(guard + "\n")
            reads.update(guard_reads)
            lines += em.transition(law, f"apply{i}")
            loc = f"  # {law.guard.loc}"
            strict += [f"        w = {law.name!r}",
                       f"        h{i} = {text}{loc}"]
            first += [f"        w = {law.name!r}", f"        if {text}:{loc}",
                      f"            return {i}"]
            hits.append(f"h{i}")
        chosen = str(len(hits) - 1)   # the one law whose guard holds
        for i in range(len(hits) - 2, -1, -1):
            chosen = f"{i} if h{i} else {chosen}"
        law_names = "".join(f"{law.name!r}, " for law in self.laws)
        loads = em.loads(reads=reads)
        handler = ["    except EvalError as e:",
                   "        raise EvalError(e.message, e.loc, law=w)"]
        lines += [f"def select_strict(s):\n    v = s.values{loads}",
                  "    try:", *strict, *handler,
                  f"    n = {' + '.join(hits)}",
                  f"    if n == 1:\n        return {chosen}",
                  "    if n == 0:\n        raise NoApplicableLawError(s)",
                  "    raise MultipleApplicableError(s, [name for name, h in "
                  f"zip(({law_names}), ({', '.join(hits)},)) if h])",
                  f"def select_first(s):\n    v = s.values{loads}",
                  "    try:", *first, *handler,
                  "    raise NoApplicableLawError(s)"]
        names = [f"apply{i}" for i in range(len(hits))]
        names += ["select_strict", "select_first"]
        if self.halt is not None:
            lines.append(em.condition("halt", self.halt)[0])
            names.append("halt")
        self.source = "\n".join(lines) + "\n"
        self.ns, self.guards = em.ns, guards
        return dict(zip(names, _exec(self.source, em.ns, f"step {self.name}",
                                     names, self)))


# --- column functions ----------------------------------------------------------------
#
# The analyzer's sample strategy checks a batch of states at once where a
# model allows it; see "Column fast-forward" in docs/design_notes.md.


class _Uncovered(Exception):
    """Raised by a _ColumnEmitter at what has no column text."""


# An int a column function reads lies within +-2**53, where int64 and
# float64 hold it exactly: numpy's comparisons of it with a float, and its
# promotion to one, then give Python's results.
_EXACT = 2 ** 53
_COLUMN_KINDS = ("int", "real", "bool")


class _ColumnEmitter(_Emitter):
    """Column texts: a field read is the numpy array of that field's
    values over a batch of states, an operator its ``INLINE`` column
    text. Anything else raises _Uncovered: a value of a kind but int,
    real and bool, an int constant beyond +-2**53, a call, an index, a
    draw (what ``vary`` would bind), and a statement but an assignment
    to a field."""

    column = 1

    def expr(self, e) -> str:
        if e.ty.kind not in _COLUMN_KINDS:
            raise _Uncovered
        return super().expr(e)

    def const(self, value) -> str:
        if type(value) is int and abs(value) > _EXACT:
            raise _Uncovered
        return super().const(value)

    def vary(self, obj, prefix: str = "_k"):
        raise _Uncovered

    def writes(self, law: Law) -> str:
        """A tuple of (field, value) pairs, one per assignment of the
        law's body, in order; a field assigned twice is not covered."""
        pairs = {}
        for s in law.transition:
            if (type(s) is not Assign or type(s.target) is not Name
                    or s.target.id in pairs):
                raise _Uncovered
            value = self.promoted(s.value, s.target.ty.kind)
            pairs[s.target.id] = f"({s.target.id!r}, {value}), "
        return f"({''.join(pairs.values())})"


class Columns(NamedTuple):
    """A model's checks over a batch of states, each an array with one
    entry per state."""

    halt: np.ndarray        # the halt condition holds
    applied: np.ndarray     # some guard holds: first-match selects a law
    multiple: np.ndarray    # more than one holds: strict selection fails
    post: dict              # field -> its values after the writes of the
    #                         first law whose guard holds (none if none)
    finite: np.ndarray      # every real is finite after
    post_halt: np.ndarray   # the halt condition holds after
    post_valid: np.ndarray  # some guard holds after


def _compile_columns(model: CausalModel):
    """The column function of ``model`` (see ``CausalModel.columns``), or
    None unless: every field is an int, real or bool the sampler can
    draw, an int's domain within +-2**53; no law draws; and the guards,
    the halt condition and each law body, all plain assignments to
    fields, have column texts. Two functions are emitted: ``conditions``
    gives the halt condition and every guard over a batch, ``writes``
    every law's (field, value) pairs."""
    schema = model.schema
    if schema.sampler.errors or any(law.uses_random for law in model.laws):
        return None
    for td in schema.fields.values():
        if td.kind not in _COLUMN_KINDS:
            return None
        if td.kind == "int" and any(abs(x) > _EXACT for x in (
                td.domain.values or (td.domain.lo, td.domain.hi))):
            return None
    em = _ColumnEmitter(schema)
    try:
        em.start()
        guards = "".join(f"{em.expr(law.guard)}, " for law in model.laws)
        halt = "False" if model.halt is None else em.expr(model.halt)
        source = (f"def conditions(v):{em.loads()}\n"
                  f"    return {halt}, ({guards})\n")
        em.start()
        writes = "".join(f"{em.writes(law)}, " for law in model.laws)
        source += f"def writes(v, dt):{em.loads()}\n    return ({writes})\n"
    except _Uncovered:
        return None
    em.ns["np"] = np
    conditions, writes = _exec(source, em.ns, f"columns {model.name}",
                               ("conditions", "writes"), model)
    reals = frozenset(n for n, td in schema.fields.items()
                      if td.kind == "real")
    return functools.partial(_columns, conditions, writes, reals)


def _columns(conditions, writes, reals, v, dt, n) -> Columns:
    """The checks of one batch, law by law: a law's writes are taken
    where its guard is the first that holds. A law writes a field once,
    so a write that is not finite leaves its real not finite after."""
    halt, guards = conditions(v)
    applied, multiple = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    post = dict(v)
    for g, pairs in zip(guards, writes(v, np.float64(dt))):
        at = g & ~applied
        multiple |= g & applied
        applied |= g
        for name, x in pairs:
            post[name] = np.where(at, x, post[name])
    finite = np.ones(n, dtype=bool)
    for name in reals:
        finite &= np.isfinite(post[name])
    post_halt, post_guards = conditions(post)
    post_valid = np.zeros(n, dtype=bool)
    for g in post_guards:
        post_valid |= g
    return Columns(halt | np.zeros(n, dtype=bool), applied, multiple, post,
                   finite, post_halt | np.zeros(n, dtype=bool), post_valid)


def _exec(source: str, ns: dict, what: str, names, owner=None) -> list:
    """Compile and run ``source`` in ``ns``, and return the functions it
    defines as ``names``, taken out of ns: nothing in ns refers back to
    them or to what holds them, so a dropped model is freed at once. The
    source is registered with linecache, so tracebacks show its lines,
    until ``owner`` (default: the first function) is collected."""
    filename = f"<cml {what} #{next(_SERIAL)}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), ns)
    fns = [ns.pop(name) for name in names]
    weakref.finalize(fns[0] if owner is None else owner,
                     linecache.cache.pop, filename, None)
    return fns


class Observables(tuple):
    """(label, function of a state) pairs of an observable list; ``row``
    gives every value of a state at once, from generated functions whose
    source is ``source``."""


# Items per generated function, an item being one observable or a run of
# them: compile()'s time and memory grow with the source (about 5 kB per
# item while it compiles), so a long list is compiled in parts of this many.
_ROW_PART = 64


def _observed(em: _Emitter, e) -> str:
    """``e``'s text; a real or complex value is checked to be finite, as
    a write's is."""
    text = em.expr(e)
    isfinite = {"real": math.isfinite, "complex": cmath.isfinite}.get(
        e.ty.kind)
    if isfinite is not None:
        text = f"{em.vary(_finite(isfinite, e), '_o')}({text})"
    return text


def _runs(labelled, schema: StateSchema) -> list:
    """The list as runs of adjacent observables with one template, each
    (its first expression, the values ``vary`` took per observable). A
    template is an observable's text with its int literals and what
    carries its locations left as loop variables, so ``psi[0]`` and
    ``psi[511]`` share one. It is emitted here in an emitter of its own,
    so a list without a run compiles to the text it always had."""
    probe, runs = _Emitter(schema), []
    for _, e in labelled:
        probe.start()
        probe.holes = []
        template = _observed(probe, e)
        if runs and runs[-1][0] == template:
            runs[-1][2].append(tuple(probe.holes))
        else:
            runs.append((template, e, [tuple(probe.holes)]))
    return [(e, holes) for _, e, holes in runs]


def compile_observables(labelled, schema: StateSchema) -> Observables:
    """Compile typechecked (label, expression) pairs once into one
    function from a state to the tuple of their values (payloads for
    scalar types), in list order. An observable is one call in a tuple
    expression, and a run of them one loop over the values they differ
    in, bound in the namespace (see ``_runs``). A real or complex value
    must be finite, as a write's must."""
    em = _Emitter(schema)
    runs = _runs(labelled, schema)
    parts, sources = [], []
    for first in range(0, max(len(runs), 1), _ROW_PART):
        em.start()
        items = []
        for e, holes in runs[first:first + _ROW_PART]:
            if len(holes) == 1:
                items.append(f"        {_observed(em, e)},  # {e.loc}")
                continue
            em.holes = []
            text = _observed(em, e)
            em.holes = None
            names = "".join(f"h{k}, " for k in range(len(holes[0])))
            items.append(f"        *[{text} for ({names.rstrip()}) in "
                         f"{em.bind(tuple(holes), '_r')}],  # {e.loc}")
        sources.append("\n".join([f"def row(s):\n    v = s.values{em.loads()}",
                                  "    return (", *items, "    )\n"]))
        parts += _exec(sources[-1], em.ns, "observables", ("row",))
    row = parts[0] if len(parts) == 1 else (
        lambda s: sum([part(s) for part in parts], ()))
    out = Observables((label, lambda s, i=i: row(s)[i])
                      for i, (label, _) in enumerate(labelled))
    out.row, out.source = row, "".join(sources)
    return out


def compile_observable(expr, schema: StateSchema):
    """Compile a typechecked expression once; the function maps a state
    to the expression's value there (a payload for a scalar type)."""
    return compile_observables([("", expr)], schema)[0][1]


# --- guards and law selection ------------------------------------------------------


def eval_guard(model: CausalModel, law: Law, s: SystemState) -> bool:
    """Evaluate a law of ``model`` on a state. Pure: no randomness, no
    mutation. The law's lone guard is compiled on the first call
    (``_StepCode.guard``)."""
    try:
        return model.code.guard(model._index(law))(s)
    except EvalError as exc:
        raise EvalError(exc.message, exc.loc, law=law.name)


def select_law(model: CausalModel, s: SystemState, mode: str = "strict") -> Law:
    """Pick the applicable law.

    strict: exactly one guard must hold (raises with the state as witness
    otherwise); first-match: first law whose guard holds.
    """
    select = model.selectors.get(mode)
    if select is None:
        raise ValueError(f"unknown mode '{mode}'")
    return model.laws[select(s)]


# --- transition application ----------------------------------------------------------


def apply_law(model: CausalModel, law: Law, s0: SystemState, dt: float, rng,
              time: float | None = None) -> SystemState:
    """Apply a law of ``model`` to s0 and return s1 at ``time`` (default
    s0's time).

    All reads see s0; ``dt`` is available to expressions by that name.
    An ``EvalError`` or ``ContinuousRandomError`` leaves with the law's name.
    """
    return model.transitions[model._index(law)](
        s0, dt, rng, s0.time if time is None else time)


# --- stepping -----------------------------------------------------------------------


def halts(model: CausalModel, s: SystemState) -> bool:
    """Whether the model's halt condition holds on ``s``."""
    halt = model.halt_fn
    return halt is not None and halt(s)


def step(model: CausalModel, s0: SystemState, dt: float, rng,
         mode: str = "strict", time_after: float | None = None) -> SystemState:
    """One causal step: select the law, apply it, stamp ``time_after``
    (default s0.time + dt). ``run``'s loop makes the same step through
    the selector and transitions it binds once."""
    if not (dt > 0):
        raise ValueError("dt must be positive")
    return apply_law(model, select_law(model, s0, mode), s0, dt, rng,
                     s0.time + dt if time_after is None else time_after)


def entry_point(fn):
    """``fn`` run as an entry point: under ``np.errstate(all="ignore")``,
    a new one on each call, since the write checks refuse what overflows
    and numpy's warnings would only come first; and with the cycle
    collector paused, since the values a run builds form no reference
    cycles. A collector that was off before the call (turned off by the
    caller, or by an entry point this call is nested in) is left off."""
    @functools.wraps(fn)
    def entered(*args, **kwargs):
        pause = gc.isenabled()
        if pause:
            gc.disable()
        try:
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        finally:
            if pause:
                gc.enable()
    return entered


@entry_point
def build_initial_state(model: CausalModel) -> SystemState:
    """Evaluate the model's init block into a time-0 state."""
    return make_initial_state(model.schema, model.init_fn())


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
