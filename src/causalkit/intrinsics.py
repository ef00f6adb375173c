"""The one table of functions callable from CML, of its binary
operators, and of its draw forms.

An intrinsic bundles its arity, a type rule, a runtime implementation, a
stochastic flag (stochastic intrinsics make a law count as random) and
what its implementation promises (``Intrinsic.checks_result``).
The language built-ins are registered below; the quantum kit registers
its numeric intrinsics on import. ``binary`` gives what an operator
computes: the typechecker folds each constant expression with it, and
the compiler emits the value it found, or else a call of the function
or, for one that cannot fail, its ``INLINE`` text, over payloads and
over numpy columns. ``DRAWS`` holds the six
forms of ``random(...)``, which the parser, the typechecker and the
compiler all read.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalError
from .state import TypeDesc, VCGrid, VVector


class IntrinsicTypeError(Exception):
    """Raised by an intrinsic's type rule on bad argument types."""


@dataclass
class CheckContext:
    """Lets a type rule read the constants its arguments folded to and
    the model's record declarations."""

    exprs: list     # the typed argument expressions
    records: dict   # name -> ((field, TypeDesc), ...)

    def fold(self, i: int):
        """The payload argument i folded to, or None if not a constant."""
        return self.exprs[i].const


@dataclass(frozen=True)
class Intrinsic:
    """A function callable from CML, with what it declares of itself.

    ``checks_result`` is a contract: ``impl`` refuses a non-finite result
    itself (it raises), so the compiler emits no finiteness scan for a
    write whose value is a direct call of it.
    """

    name: str
    arity: int
    stochastic: bool
    check: Callable   # (arg_types: list[TypeDesc], ctx: CheckContext) -> TypeDesc
    impl: Callable    # (args: tuple of values, random source) -> value
    builtin: bool = False  # part of the language, not of a numeric kit
    checks_result: bool = False


_REGISTRY: dict[str, Intrinsic] = {}


def register(intrinsic: Intrinsic) -> None:
    _REGISTRY[intrinsic.name] = intrinsic


def get(name: str) -> Intrinsic | None:
    return _REGISTRY.get(name)


def registered_names() -> list[str]:
    return sorted(_REGISTRY)


# --- binary operators -----------------------------------------------------------


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1


def int_power(a: int, b: int, loc=None) -> int:
    """int ``a ^ b``: a negative exponent or a result outside int64 is an
    EvalError, raised before a power that large is computed."""
    if b < 0:
        raise EvalError("int '^' needs a non-negative exponent", loc)
    # |a| >= 2 and b >= 64 is out of range; test it before computing
    if b > 63 and abs(a) > 1:
        raise EvalError("int '^' overflows int64", loc)
    r = a ** b
    if not INT64_MIN <= r <= INT64_MAX:
        raise EvalError("int '^' overflows int64", loc)
    return r


_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
# The Python texts, over the operand texts, of each function ``binary``
# and ``unary`` give that cannot fail (a real or complex overflow gives
# inf, which a write or an observable rejects), of the promotions and of
# ``&&`` and ``||`` (keyed by their spelling: their callers evaluate them):
# the compiler emits one in place of a call. Each entry is (the text over
# payloads, the text over numpy columns of int64, float64 or bool values,
# or None where there is none); numpy computes IEEE + - *, negation,
# comparisons and an exact int-to-float promotion to the same bits as
# Python, and ``&``, ``|`` and ``~`` are the bool columns' and, or, not.
INLINE = {fn: ("({} %s {})" % op,) * 2 for op, fn in _OPERATORS.items()}
INLINE.update({"&&": ("({} and {})", "({} & {})"),
               "||": ("({} or {})", "({} | {})"),
               operator.not_: ("(not {})", "(~{})"),
               operator.neg: ("(-{})",) * 2,
               float: ("float({})", "np.float64({})"),
               complex: ("complex({})", None)})


def binary(op: str, kind: str, loc=None):
    """The function (a, b) -> ``a op b`` for a typed ``op`` whose result
    has ``kind``, the one rule for the typechecker's fold and a run;
    a failure, such as an int result outside int64, is an EvalError at
    ``loc``. ``&&`` and ``||`` short-circuit, so their callers evaluate
    them."""
    if op == "/":
        def divide(a, b):
            if b == 0:
                raise EvalError("division by zero", loc)
            return a / b
        return divide
    if kind == "int" and op in ("+", "-", "*"):
        fn = _OPERATORS[op]

        def int64(a, b):
            r = fn(a, b)
            if not INT64_MIN <= r <= INT64_MAX:
                raise EvalError(f"int '{op}' overflows int64", loc)
            return r
        return int64
    if op != "^":
        return _OPERATORS[op]
    if kind == "int":
        return lambda a, b: int_power(a, b, loc)

    def power(a, b):
        try:
            r = a ** b
        except (OverflowError, ZeroDivisionError, ValueError) as exc:
            raise EvalError(f"power failed: {exc}", loc)
        if isinstance(r, complex):
            raise EvalError("power of a negative base with fractional "
                            "exponent", loc)
        return r
    return power


def unary(op: str, kind: str, loc=None):
    """The function x -> ``op x`` for a typed unary ``op``; int negation
    keeps the int64 rule of ``binary`` (-(-2^63) overflows)."""
    if op == "!":
        return operator.not_
    if kind == "int":
        sub = binary("-", "int", loc)
        return lambda x: sub(0, x)
    return operator.neg


# --- language built-ins ---------------------------------------------------------

NUMERIC = ("int", "real", "complex")   # each kind widens to the next
_REAL = ("int", "real")
_COLLECTION = ("list", "vector", "cgrid")


def _want(td: TypeDesc, kinds: tuple, what: str):
    if td.kind not in kinds:
        raise IntrinsicTypeError(f"needs {what}, got {td}")


def _rule(kinds: tuple, what: str, result):
    """Type rule that wants every argument's kind in ``kinds``. ``result``
    is the result kind, or a dict from the first argument's kind to it."""
    def check(args, ctx):
        for td in args:
            _want(td, kinds, what)
        return TypeDesc(result if isinstance(result, str)
                        else result[args[0].kind])
    return check


def _check_sum(args, ctx):
    td = args[0]
    if td.kind == "list" and td.element.kind in NUMERIC:
        return TypeDesc(td.element.kind)
    _want(td, ("vector", "cgrid"), "a numeric list")
    return TypeDesc("real" if td.kind == "vector" else "complex")


def _check_laplacian(args, ctx):
    _want(args[0], ("cgrid",), "cgrid")
    return args[0]


def _abs(args, rnd):
    r = abs(args[0])   # an int for an int, a float for a real or complex
    if type(r) is int and r > INT64_MAX:   # abs of the least int64
        raise EvalError("int abs overflows int64")
    return r


def _exp(args, rnd):
    v = args[0]
    try:
        if type(v) is complex:
            return cmath.exp(v)
        return math.exp(v)
    except OverflowError:
        raise EvalError("exp overflow")


def _sqrt(args, rnd):
    x = args[0]
    if x < 0:
        raise EvalError("sqrt of a negative number")
    return math.sqrt(x)


def _sum(args, rnd):
    v = args[0]
    if isinstance(v, VVector):
        return float(np.sum(v.values))
    if isinstance(v, VCGrid):
        return complex(np.sum(v.amps))
    # a list's items share one kind, so their sum has it (the compiler
    # promotes the int 0 that an empty list of reals or complexes sums to);
    # an int sum keeps the int64 rule at each addition, as a chain of '+'
    total = 0
    for item in v:
        total = total + item
        if type(total) is int and not INT64_MIN <= total <= INT64_MAX:
            raise EvalError("int sum overflows int64")
    return total


def _len(args, rnd):
    v = args[0]
    if type(v) is tuple:
        return len(v)
    if isinstance(v, VVector):
        return len(v.values)
    return len(v.amps)


def neighbour_sum(a: np.ndarray) -> np.ndarray:
    """a[i - 1] + a[i + 1] on a periodic grid, through one padded ring
    filled in place: the middle, then the two wrap cells."""
    ring = np.empty(len(a) + 2, a.dtype)
    ring[1:-1] = a
    ring[0] = a[-1]
    ring[-1] = a[0]
    return ring[:-2] + ring[2:]


def _laplacian(args, rnd):
    v = args[0]
    psi = v.amps
    return VCGrid((neighbour_sum(psi) - 2.0 * psi) / v.dx ** 2, v.dx)


def _real_of(fn):
    return lambda args, rnd: float(fn(args[0]))


def _register_builtins():
    number = (NUMERIC, "a number")
    real = (_REAL, "int or real")
    cplx = (("complex",), "complex")
    for name, arity, check, impl in (
        ("abs", 1, _rule(*number, {"int": "int", "real": "real",
                                   "complex": "real"}), _abs),
        ("abs2", 1, _rule(*number, "real"), _real_of(lambda x: abs(x) ** 2)),
        ("re", 1, _rule(*cplx, "real"), _real_of(lambda z: z.real)),
        ("im", 1, _rule(*cplx, "real"), _real_of(lambda z: z.imag)),
        ("conj", 1, _rule(*cplx, "complex"),
         lambda args, rnd: args[0].conjugate()),
        ("exp", 1, _rule(*number, {"int": "real", "real": "real",
                                   "complex": "complex"}), _exp),
        ("cos", 1, _rule(*real, "real"), _real_of(math.cos)),
        ("sin", 1, _rule(*real, "real"), _real_of(math.sin)),
        ("sqrt", 1, _rule(*real, "real"), _sqrt),
        ("sum", 1, _check_sum, _sum),
        ("len", 1, _rule(_COLLECTION, "a collection", "int"), _len),
        ("laplacian", 1, _check_laplacian, _laplacian),
        ("complex", 2, _rule(*real, "complex"),
         lambda args, rnd: complex(args[0], args[1])),
    ):
        register(Intrinsic(name, arity, False, check, impl, builtin=True))


_register_builtins()


# --- draws: one entry per form of random(...) -----------------------------------


_MAX_TRUNCATION_TRIES = 100_000


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


@dataclass(frozen=True)
class Draw:
    """A form of ``random(range, distribution)``. ``build`` maps (the
    parameters, the set's values or the interval's bounds, a location) to
    the form's sampler (random source -> value), or raises EvalError."""

    arity: int | None      # parameter count; None: one per value of the set
    arity_error: str       # the typechecker's text for another count
    names: tuple           # in run-time messages; arity None: one for all
    build: Callable
    kinds: tuple = ()      # the kinds a parameter may have, and the
    kind_error: str = ""   # typechecker's text for another
    what: str = ""         # an interval form's name in its lo < hi message


# keyed by (distribution, range shape), the shape "none", "interval" or
# "set"; each entry is a row of the `random` table in docs/cml.md
DRAWS = {
    ("FLAT", "set"): Draw(0, "FLAT takes no parameters", (), _flat_set),
    ("FLAT", "interval"): Draw(0, "FLAT takes no parameters", (),
                               _flat_interval, what="continuous FLAT"),
    ("GAUSS", "none"): Draw(2, "GAUSS takes (mean, sigma)", ("mean", "sigma"),
                            _gauss, _REAL, "GAUSS parameters must be real"),
    ("GAUSS", "interval"): Draw(2, "GAUSS takes (mean, sigma)",
                                ("mean", "sigma"), _gauss, _REAL,
                                "GAUSS parameters must be real",
                                "truncated GAUSS"),
    ("WEIGHTS", "set"): Draw(None, "WEIGHTS needs one weight per value",
                             ("weight",), _weights, _REAL,
                             "weights must be real"),
    ("PSI", "set"): Draw(None, "PSI needs one amplitude per value",
                         ("amplitude",), _psi, NUMERIC,
                         "amplitudes must be numeric"),
}
