"""Typed value universe, state schemas, and system states.

A schema declares the fields of the system state (with optional sampling
domains) and so fixes each field's type. A value is tagless where its
Python type says all: an int, real, bool or complex value is a plain
``int``, ``float``, ``bool`` or ``complex`` payload, a list the ``tuple``
of its items and a path collection its ``PwCollection``. Only three
kinds are wrapped: a vector (``VVector``, since an ndarray's ``==`` is
elementwise), a cgrid (``VCGrid``, which carries its ``dx``) and a record
(``VRecord``, which carries its name). A ``SystemState`` built directly
checks only its time; ``check_values`` checks the values that enter from
the host: in ``make_initial_state``, ``state_from_json`` and the start
state of ``run``, ``branch_run`` and ``run_ensemble``.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    MissingAttributeError,
    MissingFieldError,
    SchemaError,
    TypeMismatchError,
    UnsampleableFieldError,
)
from .pw import ATTR_KINDS, PwCollection
from .rng import RngStream

# the exact Python type of each scalar kind's payload, and back (bool is
# a subclass of int, so payloads are told apart by exact type)
PAYLOAD_TYPES = {"int": int, "real": float, "bool": bool, "complex": complex}
_SCALAR_KIND = {t: k for k, t in PAYLOAD_TYPES.items()}
# every kind of TypeDesc, and those whose fields may declare a domain
_KINDS = (*PAYLOAD_TYPES, "vector", "cgrid", "list", "record", "pwcollection")
_DOMAIN_KINDS = (*PAYLOAD_TYPES, "vector")
# the longest vector or cgrid, and the most cells or bins an intrinsic
# builds: 16 MiB of complex cells
MAX_CELLS = 2 ** 20


@dataclass(frozen=True)
class Domain:
    """Sampling/enumeration domain as written: a closed interval or a
    finite value set. ``of`` checks and converts it for a field's kind."""

    lo: float | None = None
    hi: float | None = None
    values: tuple | None = None  # a field's holds its kind's payloads (of)

    def __post_init__(self):
        if self.values is not None:
            if len(self.values) == 0:
                raise SchemaError("finite domain must be non-empty")
            if self.lo is not None or self.hi is not None:
                raise SchemaError("domain is either an interval or a finite set")
        elif self.lo is None or self.hi is None:
            raise SchemaError("interval domain needs both bounds")

    @property
    def is_finite(self) -> bool:
        return self.values is not None

    def of(self, kind: str) -> "Domain":
        """This domain as a field of ``kind`` holds it, the one place a
        domain is converted: an interval's bounds must be real and lo <=
        hi; a set holds the kind's payloads (1.0 for 1 in a real set, True
        for 1 in a bool set), an int interval the exact ints ceil(lo) to
        floor(hi); a real or vector interval keeps its bounds (``_interval``
        converts them). SchemaError for a complex or non-int value where
        the kind holds none, or an int interval of no int."""
        if not self.is_finite:
            if isinstance(self.lo, complex) or isinstance(self.hi, complex):
                raise SchemaError("interval bounds must be real")
            if not (self.lo <= self.hi):
                raise SchemaError(f"empty interval domain [{self.lo}, {self.hi}]")
        convert = PAYLOAD_TYPES.get(kind, float if kind == "vector" else None)
        if self.is_finite and convert is not None:
            if kind == "int" and not all(isinstance(v, numbers.Integral)
                                         for v in self.values):
                raise SchemaError("int domain needs integer values")
            if kind in ("real", "vector") and any(
                    isinstance(v, complex) for v in self.values):
                raise SchemaError(f"{kind} domain needs real values")
            return Domain(values=tuple(convert(v) for v in self.values))
        if kind != "int" or self.is_finite:
            return self
        try:
            lo, hi = math.ceil(self.lo), math.floor(self.hi)
        except OverflowError:
            raise SchemaError("int domain bounds must be finite")
        if lo > hi:
            raise SchemaError(f"int domain [{self.lo}, {self.hi}] holds no int")
        return Domain(lo=lo, hi=hi)


@dataclass(frozen=True)
class TypeDesc:
    """Descriptor for a field type; use the class-method constructors."""

    kind: str
    length: int | None = None          # vector, cgrid
    dx: float | None = None            # cgrid spacing
    element: "TypeDesc | None" = None  # list element
    bound: int | None = None           # list length used for sampling
    record: str | None = None          # record reference
    attrs: tuple | None = None         # pwcollection: ((name, TypeDesc), ...)
    domain: Domain | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown type kind '{self.kind}'")
        if self.kind in ("vector", "cgrid"):
            if self.length is None or self.length < 1:
                raise SchemaError(f"{self.kind} length must be >= 1")
            if self.length > MAX_CELLS:
                raise SchemaError(f"{self.kind} length must be at most "
                                  f"{MAX_CELLS}")
        if self.kind == "cgrid":
            if self.dx is None or not (self.dx > 0):
                raise SchemaError("cgrid dx must be > 0")
        if self.kind == "pwcollection":
            if not self.attrs:
                raise SchemaError("pwcollection needs at least one attribute")
            for _, td in self.attrs:
                if td.kind not in ATTR_KINDS:
                    raise SchemaError(
                        f"pwcollection attributes must be scalar, got {td.kind}")
        if self.bound is not None and self.bound < 0:
            raise SchemaError("list bound must be >= 0")
        if self.domain is not None:
            self.check_domain_shape(self.domain.is_finite)
            object.__setattr__(self, "domain", self.domain.of(self.kind))

    def check_domain_shape(self, finite: bool):
        """SchemaError unless a field of this type may carry a value set
        (``finite``) or an interval; the typechecker asks before it folds
        the bounds, so a domain's shape is reported before its bounds."""
        if self.kind not in _DOMAIN_KINDS:
            raise SchemaError(f"type {self} cannot carry a domain")
        if not finite and self.kind in ("bool", "complex"):
            raise SchemaError(f"{self.kind} fields need a finite value set")

    @classmethod
    def real(cls, domain: Domain | None = None):
        return cls("real", domain=domain)

    @classmethod
    def int_(cls, domain: Domain | None = None):
        return cls("int", domain=domain)

    @classmethod
    def bool_(cls):
        return cls("bool")

    @classmethod
    def vector(cls, length: int, domain: Domain | None = None):
        return cls("vector", length=length, domain=domain)

    @classmethod
    def list_of(cls, element, bound: int | None = None):
        return cls("list", element=element, bound=bound)

    @classmethod
    def record_ref(cls, name: str):
        return cls("record", record=name)

    @classmethod
    def cgrid(cls, length: int, dx: float):
        return cls("cgrid", length=length, dx=dx)

    @classmethod
    def pwcollection(cls, attrs):
        return cls("pwcollection", attrs=tuple(attrs))

    def __str__(self):
        if self.kind == "vector":
            return f"vector({self.length})"
        if self.kind == "cgrid":
            return f"cgrid({self.length}, {self.dx})"
        if self.kind == "list":
            bound = "" if self.bound is None else f", {self.bound}"
            return f"list({self.element}{bound})"
        if self.kind == "record":
            return self.record
        if self.kind == "pwcollection":
            inner = ", ".join(f"{n}: {t}" for n, t in self.attrs)
            return f"pwcollection({inner})"
        return self.kind


@dataclass(frozen=True)
class StateSchema:
    """Ordered field declarations plus record definitions and constants."""

    fields: dict  # name -> TypeDesc (insertion-ordered)
    records: dict = field(default_factory=dict)  # name -> ((field, TypeDesc), ...)
    constants: dict = field(default_factory=dict)  # name -> (TypeDesc, payload)
    time_domain: Domain | None = None

    def __post_init__(self):
        overlap = set(self.fields) & set(self.constants)
        if overlap:
            raise SchemaError(f"names used as both field and constant: {sorted(overlap)}")
        t = self.time_domain
        if t is not None:
            t = t.of("real")
            object.__setattr__(self, "time_domain", t)
            if not t.is_finite and not math.isfinite(t.hi - t.lo):
                raise SchemaError("time domain width overflows")
        for name, td in self.all_type_decls():
            self._check_refs_resolve(td, where=name)
        self._check_record_cycles()

    @cached_property
    def sampler(self) -> "Sampler":
        """Draws this schema's states from stream words; built once."""
        return Sampler(self)

    def all_type_decls(self):
        for name, td in self.fields.items():
            yield name, td
        for rec, fs in self.records.items():
            for fname, td in fs:
                yield f"{rec}.{fname}", td
        for name, (td, _) in self.constants.items():
            yield name, td

    def _check_refs_resolve(self, td: TypeDesc, where: str):
        if td.kind == "record" and td.record not in self.records:
            raise SchemaError(f"{where}: unknown record '{td.record}'")
        if td.kind == "list":
            if not isinstance(td.element, TypeDesc):
                raise SchemaError(f"{where}: list has no element type")
            self._check_refs_resolve(td.element, where)

    def _check_record_cycles(self):
        # DFS over record -> record references with an explicit stack: a
        # recursive closure would be a reference cycle holding the schema
        def refs(name):
            for _, td in self.records[name]:
                while td.kind == "list":
                    td = td.element
                if td.kind == "record":
                    yield td.record

        done: set = set()
        path, stack = [], [iter(self.records)]   # path: records being visited
        while stack:
            name = next(stack[-1], None)
            if name is None:
                stack.pop()
                if path:
                    done.add(path.pop())
            elif name in path:
                raise SchemaError(f"cyclic record definition through '{name}'")
            elif name not in done:
                path.append(name)
                stack.append(refs(name))


# --- values -----------------------------------------------------------------


# The composites a step builds most store through their slot descriptors,
# as SystemState does, instead of a frozen __setattr__ per field.


@dataclass(frozen=True, slots=True, eq=False, init=False)
class VVector:
    values: np.ndarray

    def __init__(self, values):
        _SET_VECTOR(self, np.asarray(values, dtype=np.float64))


@dataclass(frozen=True, slots=True, init=False)
class VRecord:
    record: str
    fields: dict  # name -> value

    def __init__(self, record: str, fields: dict):
        _SET_RECORD(self, record)
        _SET_FIELDS(self, fields)


_SET_VECTOR, _SET_RECORD, _SET_FIELDS = (
    VVector.values.__set__, VRecord.record.__set__, VRecord.fields.__set__)


@dataclass(frozen=True, slots=True, eq=False)
class VCGrid:
    amps: np.ndarray
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "amps",
                           np.asarray(self.amps, dtype=np.complex128))


def check_value(value, td: TypeDesc, schema: StateSchema, where: str = "value"):
    """Raise TypeMismatchError for the first part of ``value``, in its own
    order (a record's members in the value's order), whose type is wrong
    or that holds a non-finite number (see ``_first_nonfinite``), named
    by its path joined with ``.`` (a list's items by the list's). A
    scalar payload must have exactly its kind's Python type."""
    _check(value, td, schema.records, where)


def _check(value, td: TypeDesc, records: dict, where: str):
    kind = td.kind
    if kind in PAYLOAD_TYPES:
        ok = type(value) is PAYLOAD_TYPES[kind]
    elif kind == "list":
        ok = type(value) is tuple
    elif kind == "record":
        members = dict(records[td.record])
        ok = (type(value) is VRecord and value.record == td.record
              and value.fields.keys() == members.keys())
    elif kind == "vector":
        ok = isinstance(value, VVector) and len(value.values) == td.length
    elif kind == "cgrid":
        ok = (isinstance(value, VCGrid) and len(value.amps) == td.length
              and value.dx == td.dx)
    else:   # a pwcollection
        ok = isinstance(value, PwCollection) and value.attr_decls == tuple(
            (n, t.kind) for n, t in td.attrs)
    if not ok:
        raise TypeMismatchError(where, td, _describe(value))
    if kind == "list":
        for x in value:
            _check(x, td.element, records, where)
    elif kind == "record":
        for name, x in value.fields.items():
            _check(x, members[name], records, f"{where}.{name}")
    else:
        bad = _first_nonfinite(value, kind)
        if bad is not None:
            raise TypeMismatchError(where, "a finite value", bad)


def _first_nonfinite(value, kind: str):
    """The first number of a well-typed ``value`` of ``kind`` that is not
    finite, in the order ``state_to_json`` writes them (a complex's real
    part before its imaginary one); None if there is none."""
    if kind in ("real", "complex"):
        if cmath.isfinite(value):
            return None
        numbers = np.array([value]).view(np.float64)
    elif kind == "vector":
        numbers = value.values
    elif kind == "cgrid":
        numbers = np.concatenate([value.amps.real, value.amps.imag])
    elif kind == "pwcollection":
        numbers = np.concatenate([value.amps.view(np.float64)] + [
            value.columns[n].ravel()
            for n, k in value.attr_decls if k == "real"])
    else:
        return None
    bad = np.flatnonzero(~np.isfinite(numbers))
    return numbers[bad[0]].item() if len(bad) else None


def _describe(value) -> str:
    if isinstance(value, VVector):
        return f"vector({len(value.values)})"
    if isinstance(value, VCGrid):
        return f"cgrid({len(value.amps)}, {value.dx})"
    if isinstance(value, VRecord):
        return value.record
    if isinstance(value, PwCollection):
        return "pw"
    if type(value) is tuple:
        return "list"
    if isinstance(value, list):   # the likeliest host mistake
        return "a Python list; a list value is a tuple"
    return _SCALAR_KIND.get(type(value), type(value).__name__)


# --- system states ----------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class SystemState:
    """Immutable snapshot: schema reference, time coordinate, field values.

    States stay frozen: the ensemble memo keys on ``id(state)`` and trials
    share pre-states. Each step builds one, so ``__init__`` stores through
    the slot descriptors instead of a frozen ``__setattr__`` per field."""

    schema: StateSchema
    time: float
    values: dict  # field name -> value

    def __init__(self, schema: StateSchema, time: float, values: dict):
        if not math.isfinite(time):
            raise SchemaError("state time must be finite")
        _SET_SCHEMA(self, schema)
        _SET_TIME(self, time)
        _SET_VALUES(self, values)


_SET_SCHEMA, _SET_TIME, _SET_VALUES = (
    SystemState.schema.__set__, SystemState.time.__set__,
    SystemState.values.__set__)


def check_values(schema: StateSchema, values: dict) -> dict:
    """``values`` in schema order, checked as every value from the host
    is: an undeclared name is a SchemaError, a missing one a
    MissingFieldError, and each value goes through ``check_value``."""
    for name in values:
        if name not in schema.fields:
            raise SchemaError(f"assignment to unknown field '{name}'")
    out = {}
    for name, td in schema.fields.items():
        if name not in values:
            raise MissingFieldError(name)
        check_value(values[name], td, schema, where=name)
        out[name] = values[name]
    return out


def make_initial_state(schema: StateSchema, assignments: dict) -> SystemState:
    """Build the time-0 state from a complete set of field assignments."""
    return SystemState(schema, 0.0, check_values(schema, assignments))


def sample_state(schema: StateSchema, rng: RngStream) -> SystemState:
    """Draw a well-typed state uniformly from the declared field domains,
    from the next ``schema.sampler.width`` words of ``rng``."""
    sampler = schema.sampler
    return sampler(schema, rng.words(sampler.width)[None])[0]


class Sampler:
    """Draws the states of a schema from stream words, many at once.

    A state takes ``width`` words, one per value in this order: fields in
    declaration order, within a field vector cells, list elements and
    record fields in order, and the time coordinate last. A word w is the
    uniform u = (w >> 11) * 2**-53 of ``RngStream.uniform01``, and a value
    is drawn from u as ``RngStream`` would: lo + (hi - lo) * u on a real
    interval, lo + min(int(u * n), n - 1) on an int interval of n values,
    the value at that index of a finite set, and u >= 0.5 for a bool with
    no domain. ``sampler(schema, words)`` maps an (N, width) uint64 matrix
    to N states of ``schema``, the schema it was built for, one per row,
    built from what ``columns`` draws from the same words. ``errors``
    holds, in field order, the UnsampleableFieldError of each field that
    cannot be drawn; a sampler with errors raises the first.

    The schema caches its sampler, so the sampler holds neither the schema
    nor a raised error, whose traceback holds the frame that built it:
    either would be a reference cycle that keeps a dropped schema alive
    until the collector runs.
    """

    def __init__(self, schema: StateSchema):
        self.errors = {}
        self._fields = []   # (name, draw, first column, end column)
        col = 0
        for name, td in schema.fields.items():
            try:
                draw, width = _draw(td, schema.records, name)
            except UnsampleableFieldError as exc:
                self.errors[name] = UnsampleableFieldError(exc.name, exc.reason)
                continue
            self._fields.append((name, draw, col, col + width))
            col += width
        domain = schema.time_domain
        self._time = None if domain is None else _leaf(domain, "real", "time")
        self.width = col + (domain is not None)

    def columns(self, words: np.ndarray) -> tuple:
        """(field name -> its values, the times) drawn from the rows of
        ``words``: a scalar field's values as a numpy array of its kind's
        dtype (or of objects, or a list, where an int does not fit
        int64), a composite field's as a list; the times as an array, or
        None without a time domain."""
        if self.errors:   # the first, raised afresh
            error = next(iter(self.errors.values()))
            raise UnsampleableFieldError(error.name, error.reason)
        u = (words >> 11) * 2.0**-53
        columns = {name: draw(u[:, a:b]) for name, draw, a, b in self._fields}
        return columns, None if self._time is None else self._time(u[:, -1])

    def __call__(self, schema: StateSchema, words: np.ndarray) -> list:
        columns, times = self.columns(words)
        n = len(words)
        times = [0.0] * n if times is None else times.tolist()
        rows = _rows([_listed(c) for c in columns.values()], n)
        return [SystemState(schema, t, dict(zip(columns, row)))
                for t, row in zip(times, rows)]


def _rows(columns: list, n: int):
    """The n rows of equal-length ``columns``; n empty rows if none."""
    return zip(*columns) if columns else [()] * n


def _listed(values) -> list:
    """A draw's values as a list: an array's as payloads."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _draw(td: TypeDesc, records: dict, name: str):
    """(draw, width): ``draw(u)`` gives the values of type ``td`` drawn
    from the rows of ``u``, an (N, width) matrix of uniforms, as
    ``Sampler.columns`` gives a field's. Raises
    UnsampleableFieldError naming ``name`` (or ``name.field`` within a
    record) if ``td`` cannot be drawn."""
    kind = td.kind
    if kind in ("cgrid", "pwcollection"):
        raise UnsampleableFieldError(name, f"{kind} fields are unsampleable")
    if kind == "bool" and td.domain is None:
        return (lambda u: u[:, 0] >= 0.5), 1
    if kind in PAYLOAD_TYPES:
        if td.domain is None:
            raise UnsampleableFieldError(name)
        leaf = _leaf(td.domain, kind, name)
        return (lambda u: leaf(u[:, 0])), 1
    if kind == "vector":
        if td.domain is None or td.domain.is_finite:
            raise UnsampleableFieldError(name, "vector needs an interval domain")
        lo, width = _interval(td.domain, name)
        return (lambda u: [VVector(row) for row in lo + width * u]), td.length
    if kind == "list":
        if td.bound is None:
            raise UnsampleableFieldError(name, "list needs a length bound")
        if td.bound == 0:
            return (lambda u: [()] * len(u)), 0
        item, w = _draw(td.element, records, name)
        spans = [(j * w, (j + 1) * w) for j in range(td.bound)]
        return (lambda u: list(zip(*(_listed(item(u[:, a:b]))
                                     for a, b in spans))),
                w * td.bound)
    rec, parts, col = td.record, [], 0   # a record
    for fname, ftd in records[rec]:
        draw, w = _draw(ftd, records, f"{name}.{fname}")
        parts.append((fname, draw, col, col + w))
        col += w
    names = [p[0] for p in parts]

    def draw_record(u):
        columns = [_listed(draw(u[:, a:b])) for _, draw, a, b in parts]
        return [VRecord(rec, dict(zip(names, row)))
                for row in _rows(columns, len(u))]
    return draw_record, col


# the dtype of each scalar kind's column of payloads
_DTYPES = {"int": np.int64, "real": np.float64, "bool": np.bool_,
           "complex": np.complex128}


def _leaf(domain: Domain, kind: str, name: str):
    """``leaf(u)``: the payloads of kind ``kind`` drawn from ``domain``
    (a field's, which holds them: see ``Domain.of``) for a column ``u``
    of uniforms, as ``Sampler.columns`` gives them."""
    if domain.is_finite:
        try:
            table = np.array(domain.values, dtype=_DTYPES[kind])
        except OverflowError:   # an int outside int64
            table = np.empty(len(domain.values), dtype=object)
            table[:] = domain.values
        n = len(table)
        return lambda u: table[np.minimum((u * n).astype(np.intp), n - 1)]
    if kind == "int":
        lo, hi = domain.lo, domain.hi
        n = hi - lo + 1
        try:
            scale = float(n)
        except OverflowError:
            raise UnsampleableFieldError(name, "interval width overflows")
        if -2**63 <= lo and hi < 2**63:
            # offsets below 2**64 and sums in int64, both exact
            top, base = np.uint64(n - 1), np.uint64(lo % 2**64)
            return lambda u: (np.minimum((u * scale).astype(np.uint64), top)
                              + base).view(np.int64)
        return lambda u: [lo + min(int(x), n - 1)
                          for x in (u * scale).tolist()]
    lo, width = _interval(domain, name)
    return lambda u: lo + width * u


def _interval(domain: Domain, name: str):
    """(lo, hi - lo) of an interval domain as the floats that
    ``RngStream.uniform`` computes with; UnsampleableFieldError if the
    width is not a finite float."""
    try:
        lo, width = float(domain.lo), float(domain.hi - domain.lo)
    except OverflowError:
        lo = width = math.inf
    if not math.isfinite(width):
        raise UnsampleableFieldError(name, "interval width overflows")
    return lo, width


# --- serialization ----------------------------------------------------------


def value_to_json(v):
    kind = _SCALAR_KIND.get(type(v))
    if kind == "complex":
        return {"kind": "complex", "re": v.real, "im": v.imag}
    if kind is not None:
        return {"kind": kind, "v": v}
    if isinstance(v, VVector):
        return {"kind": "vector", "v": [float(x) for x in v.values]}
    if type(v) is tuple:
        return {"kind": "list", "items": [value_to_json(x) for x in v]}
    if isinstance(v, VRecord):
        return {"kind": "record", "record": v.record,
                "fields": {k: value_to_json(x) for k, x in v.fields.items()}}
    if isinstance(v, VCGrid):
        return {"kind": "cgrid", "dx": v.dx,
                "re": [float(x) for x in v.amps.real],
                "im": [float(x) for x in v.amps.imag]}
    if isinstance(v, PwCollection):
        names = [n for n, _ in v.attr_decls]
        # per path, per attribute: that attribute's value for each particle
        rows = zip(*(v.columns[n].tolist() for n in names))
        return {"kind": "pw",
                "attrs": [[n, k] for n, k in v.attr_decls],
                "normalized": v.normalized,
                "paths": [{"amp": [a.real, a.imag],
                           "particles": [dict(zip(names, values))
                                         for values in zip(*row)]}
                          for a, row in zip(v.amps.tolist(), rows)]}
    raise TypeError(f"unsupported value type {type(v)!r}")


def value_from_json(data, where: str = "value"):
    """The value that ``value_to_json`` writes as ``data``. A JSON object
    that no value is written as (a member missing, an unknown kind, a
    payload whose JSON type does not fit its kind) is a TypeMismatchError
    naming ``where``, the value's path as ``check_value`` names it; no
    payload is converted but an integer for a real (see ``_real``)."""
    if type(data) is not dict:
        raise TypeMismatchError(where, "a value object", _got(data))
    kind = data.get("kind", _NOTHING)
    if kind == "complex":
        return complex(_real(data.get("re", _NOTHING), where),
                       _real(data.get("im", _NOTHING), where))
    if kind == "real":
        return _real(data.get("v", _NOTHING), where)
    if kind in ("int", "bool"):
        return _member(data, "v", PAYLOAD_TYPES[kind], where, kind)
    if kind == "vector":
        return VVector(_reals(data.get("v", _NOTHING), where))
    if kind == "list":
        items = _member(data, "items", list, where, "a list of items")
        return tuple([value_from_json(x, where) for x in items])
    if kind == "record":
        fields = _member(data, "fields", dict, where, "an object of fields")
        return VRecord(_member(data, "record", str, where, "a record name"),
                       {k: value_from_json(x, f"{where}.{k}")
                        for k, x in fields.items()})
    if kind == "cgrid":
        re = _reals(data.get("re", _NOTHING), where)
        im = _reals(data.get("im", _NOTHING), where)
        if len(re) != len(im):
            raise TypeMismatchError(where, "as many im as re parts",
                                    f"{len(im)} and {len(re)}")
        return VCGrid(np.array(re) + 1j * np.array(im),
                      _real(data.get("dx", _NOTHING), where))
    if kind == "pw":
        return _pw_from_json(data, where)
    raise TypeMismatchError(where, "a value kind", _got(kind))


def _pw_from_json(data: dict, where: str) -> PwCollection:
    attrs = _member(data, "attrs", list, where, "a list of attributes")
    if not attrs or any(type(a) is not list or len(a) != 2
                        or type(a[0]) is not str or type(a[1]) is not str
                        for a in attrs):
        raise TypeMismatchError(where, "[name, kind] attribute pairs",
                                _got(attrs))
    paths = _member(data, "paths", list, where, "a list of paths")
    amps, particles = [], []
    for p in paths:
        if type(p) is not dict:
            raise TypeMismatchError(where, "a path object", _got(p))
        amp = _member(p, "amp", list, where, "an [re, im] amplitude")
        if len(amp) != 2:
            raise TypeMismatchError(where, "an [re, im] amplitude", _got(amp))
        amps.append(complex(_real(amp[0], where), _real(amp[1], where)))
        ps = _member(p, "particles", list, where, "a list of particles")
        for d in ps:
            if type(d) is not dict:
                raise TypeMismatchError(where, "a particle object", _got(d))
            for x in d.values():
                if type(x) not in (int, float, bool):
                    raise TypeMismatchError(where, "an attribute value",
                                            _got(x))
        particles.append(ps)
    counts = sorted({len(ps) for ps in particles})
    if len(counts) != 1 or counts[0] == 0:
        raise TypeMismatchError(where, "one particle count >= 1 on every path",
                                counts)
    names = {n for ps in particles for d in ps for n in d}
    try:   # an undeclared name is left to PwCollection to reject
        columns = {n: [[d[n] for d in ps] for ps in particles]
                   for n in names.union(n for n, _ in attrs)}
    except KeyError as exc:
        raise MissingAttributeError(f"path lacks attribute {exc}")
    normalized = data.get("normalized", False)
    if type(normalized) is not bool:
        raise TypeMismatchError(where, "a bool for normalized", _got(normalized))
    return PwCollection(tuple((n, k) for n, k in attrs), amps, columns,
                        normalized=normalized)


_NOTHING = object()   # what a JSON object lacks


def _got(x) -> str:
    if x is _NOTHING:
        return "nothing"
    if isinstance(x, dict):
        return "an object"
    if isinstance(x, list):
        return "an array"
    return repr(x)


def _member(data: dict, key: str, type_, where: str, expected: str):
    """``data[key]``, of exactly ``type_``; else a TypeMismatchError."""
    x = data.get(key, _NOTHING)
    if type(x) is not type_:
        raise TypeMismatchError(where, expected, _got(x))
    return x


def _real(x, where: str) -> float:
    """A JSON number as a real: a float, or an integer of at most 2**53
    in magnitude, which converts exactly."""
    if type(x) is float:
        return x
    if type(x) is int and abs(x) <= 2**53:
        return float(x)
    raise TypeMismatchError(where, "a real number", _got(x))


def _reals(x, where: str) -> list:
    if type(x) is not list:
        raise TypeMismatchError(where, "an array of real numbers", _got(x))
    return [_real(v, where) for v in x]


def state_to_json(state: SystemState) -> dict:
    return {"time": state.time,
            "values": {n: value_to_json(v) for n, v in state.values.items()}}


def state_from_json(data: dict, schema: StateSchema) -> SystemState:
    """The state that ``state_to_json`` writes as ``data``, its values
    checked as ``make_initial_state`` checks them, a non-finite number
    included. JSON that no state is written as is a TypeMismatchError
    naming ``time``, ``values`` or the field (see ``value_from_json``)."""
    if type(data) is not dict:
        raise TypeMismatchError("state", "a state object", _got(data))
    time = _real(data.get("time", _NOTHING), "time")
    if not math.isfinite(time):
        raise TypeMismatchError("time", "a finite value", time)
    values = data.get("values", _NOTHING)
    if type(values) is not dict:
        raise TypeMismatchError("values", "an object of field values",
                                _got(values))
    return SystemState(schema, time, check_values(
        schema, {n: value_from_json(v, n) for n, v in values.items()}))
