"""The one table of functions callable from CML, and of its binary
operators.

An intrinsic bundles its arity, a type rule, a runtime implementation and
a stochastic flag (stochastic intrinsics make a law count as random).
The language built-ins are registered below; the quantum kit registers
its numeric intrinsics on import. ``binary`` gives what an operator
computes, for the compiler and the typechecker's constant folder alike.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvalError
from .state import TypeDesc, VCGrid, VList, VVector


class IntrinsicTypeError(Exception):
    """Raised by an intrinsic's type rule on bad argument types."""


@dataclass
class CheckContext:
    """Lets a type rule inspect argument expressions (constant folding)
    and the model's record declarations."""

    exprs: list
    fold_expr: Callable
    records: dict   # name -> ((field, TypeDesc), ...)

    def fold(self, i: int):
        """Literal value of argument i, or None if not a constant."""
        return self.fold_expr(self.exprs[i])


@dataclass(frozen=True)
class Intrinsic:
    name: str
    arity: int
    stochastic: bool
    check: Callable   # (arg_types: list[TypeDesc], ctx: CheckContext) -> TypeDesc
    impl: Callable    # (args: list of values, env) -> value
    builtin: bool = False  # part of the language, not of a numeric kit


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


def binary(op: str, kind: str, loc=None):
    """The function (a, b) -> ``a op b`` for a typed ``op`` whose result
    has ``kind``, the one rule for the compiler and the constant folder;
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

_NUMBER = ("int", "real", "complex")
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
    if td.kind == "list" and td.element.kind in _NUMBER:
        return TypeDesc(td.element.kind)
    _want(td, ("vector", "cgrid"), "a numeric list")
    return TypeDesc("real" if td.kind == "vector" else "complex")


def _check_laplacian(args, ctx):
    _want(args[0], ("cgrid",), "cgrid")
    return args[0]


def _abs(args, env):
    return abs(args[0])   # an int for an int, a float for a real or complex


def _exp(args, env):
    v = args[0]
    try:
        if type(v) is complex:
            return cmath.exp(v)
        return math.exp(v)
    except OverflowError:
        raise EvalError("exp overflow")


def _sqrt(args, env):
    x = args[0]
    if x < 0:
        raise EvalError("sqrt of a negative number")
    return math.sqrt(x)


def _sum(args, env):
    v = args[0]
    if isinstance(v, VVector):
        return float(np.sum(v.values))
    if isinstance(v, VCGrid):
        return complex(np.sum(v.amps))
    # a list's items share one kind, so their sum has it (the compiler
    # promotes the int 0 that an empty list of reals or complexes sums to)
    total = 0
    for item in v.items:
        total = total + item
    return total


def _len(args, env):
    v = args[0]
    if isinstance(v, VList):
        return len(v.items)
    if isinstance(v, VVector):
        return len(v.values)
    return len(v.amps)


def neighbour_sum(a: np.ndarray) -> np.ndarray:
    """a[i - 1] + a[i + 1] on a periodic grid, through one padded ring."""
    ring = np.concatenate((a[-1:], a, a[:1]))
    return ring[:-2] + ring[2:]


def _laplacian(args, env):
    v = args[0]
    psi = v.amps
    return VCGrid((neighbour_sum(psi) - 2.0 * psi) / v.dx ** 2, v.dx)


def _real_of(fn):
    return lambda args, env: float(fn(args[0]))


def _register_builtins():
    number = (_NUMBER, "a number")
    real = (_REAL, "int or real")
    cplx = (("complex",), "complex")
    for name, arity, check, impl in (
        ("abs", 1, _rule(*number, {"int": "int", "real": "real",
                                   "complex": "real"}), _abs),
        ("abs2", 1, _rule(*number, "real"), _real_of(lambda x: abs(x) ** 2)),
        ("re", 1, _rule(*cplx, "real"), _real_of(lambda z: z.real)),
        ("im", 1, _rule(*cplx, "real"), _real_of(lambda z: z.imag)),
        ("conj", 1, _rule(*cplx, "complex"),
         lambda args, env: args[0].conjugate()),
        ("exp", 1, _rule(*number, {"int": "real", "real": "real",
                                   "complex": "complex"}), _exp),
        ("cos", 1, _rule(*real, "real"), _real_of(math.cos)),
        ("sin", 1, _rule(*real, "real"), _real_of(math.sin)),
        ("sqrt", 1, _rule(*real, "real"), _sqrt),
        ("sum", 1, _check_sum, _sum),
        ("len", 1, _rule(_COLLECTION, "a collection", "int"), _len),
        ("laplacian", 1, _check_laplacian, _laplacian),
        ("complex", 2, _rule(*real, "complex"),
         lambda args, env: complex(args[0], args[1])),
    ):
        register(Intrinsic(name, arity, False, check, impl, builtin=True))


_register_builtins()
