"""Typed value universe, state schemas, and system states.

A schema declares the fields of the system state (with optional sampling
domains) and so fixes each field's type: an int, real, bool or complex
value is a plain Python ``int``, ``float``, ``bool`` or ``complex``
payload, and only composite values (vectors, lists, records, grids, path
collections) are ``Value`` objects. Values are checked against their
declared type at construction, so any state obtained through this module
is well-typed.
"""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class Domain:
    """Sampling/enumeration domain: a closed interval or a finite value set."""

    lo: float | None = None
    hi: float | None = None
    values: tuple | None = None  # raw payloads (floats/ints/bools)

    def __post_init__(self):
        if self.values is not None:
            if len(self.values) == 0:
                raise SchemaError("finite domain must be non-empty")
            if self.lo is not None or self.hi is not None:
                raise SchemaError("domain is either an interval or a finite set")
        else:
            if self.lo is None or self.hi is None:
                raise SchemaError("interval domain needs both bounds")
            if not (self.lo <= self.hi):
                raise SchemaError(f"empty interval domain [{self.lo}, {self.hi}]")

    @property
    def is_finite(self) -> bool:
        return self.values is not None


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
        if self.kind in ("vector", "cgrid"):
            if self.length is None or self.length < 1:
                raise SchemaError(f"{self.kind} length must be >= 1")
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
    _checkers: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)   # TypeDesc -> its checker

    def __post_init__(self):
        overlap = set(self.fields) & set(self.constants)
        if overlap:
            raise SchemaError(f"names used as both field and constant: {sorted(overlap)}")
        t = self.time_domain
        if t is not None and not t.is_finite and not math.isfinite(t.hi - t.lo):
            raise SchemaError("time domain width overflows")
        for name, td in self.all_type_decls():
            self._check_refs_resolve(td, where=name)
        self._check_record_cycles()

    @cached_property
    def sampler(self) -> "Sampler":
        """Draws this schema's states from stream words; built once."""
        return Sampler(self)

    def checker(self, td: TypeDesc):
        """``check_value`` against ``td`` as a function of (value,
        where), built once per type and kept here."""
        check = self._checkers.get(td)
        if check is None:
            check = self._checkers[td] = _checker(td, self.records)
        return check

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


class Value:
    """Base of the composite values. Instances are immutable by convention."""

    __slots__ = ()


# the exact Python type of each scalar kind's payload, and back (bool is
# a subclass of int, so payloads are told apart by exact type)
PAYLOAD_TYPES = {"int": int, "real": float, "bool": bool, "complex": complex}
_SCALAR_KIND = {t: k for k, t in PAYLOAD_TYPES.items()}


# The composites a step builds most store through their slot descriptors,
# as SystemState does, instead of a frozen __setattr__ per field.


@dataclass(frozen=True, slots=True, eq=False, init=False)
class VVector(Value):
    values: np.ndarray

    def __init__(self, values):
        _SET_VECTOR(self, np.asarray(values, dtype=np.float64))


@dataclass(frozen=True, slots=True, init=False)
class VList(Value):
    items: tuple

    def __init__(self, items):
        _SET_ITEMS(self, tuple(items))


@dataclass(frozen=True, slots=True, init=False)
class VRecord(Value):
    record: str
    fields: dict  # name -> Value

    def __init__(self, record: str, fields: dict):
        _SET_RECORD(self, record)
        _SET_FIELDS(self, fields)


_SET_VECTOR, _SET_ITEMS, _SET_RECORD, _SET_FIELDS = (
    VVector.values.__set__, VList.items.__set__, VRecord.record.__set__,
    VRecord.fields.__set__)


@dataclass(frozen=True, slots=True, eq=False)
class VCGrid(Value):
    amps: np.ndarray
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "amps",
                           np.asarray(self.amps, dtype=np.complex128))


@dataclass(frozen=True, slots=True, eq=False)
class VPw(Value):
    pw: PwCollection


def check_value(value, td: TypeDesc, schema: StateSchema, where: str = "value"):
    """Raise TypeMismatchError unless ``value`` has the type ``td``; a
    scalar payload must have exactly its kind's Python type."""
    schema.checker(td)(value, where)


def _checker(td: TypeDesc, records: dict):
    """check(value, where) against ``td``: TypeMismatchError for the first
    part of ``value``, in its own order (a record's fields in the value's
    order), whose type is wrong. A field's check gets ``(where, field)``,
    made into text only for the error. It holds no schema, so the schema
    that keeps it is freed at once."""
    kind = td.kind
    if kind in PAYLOAD_TYPES:
        payload = PAYLOAD_TYPES[kind]

        def check(value, where):
            if type(value) is not payload:
                _mismatch(where, td, value)
        return check
    if kind == "list":
        item = _checker(td.element, records)

        def check(value, where):
            if type(value) is not VList:
                _mismatch(where, td, value)
            for x in value.items:
                item(x, where)
        return check
    if kind == "record":
        # name -> (payload type of a scalar field, else None; the field's
        # check; its type), so a scalar field is checked without a call
        fields = {n: (PAYLOAD_TYPES.get(f.kind), _checker(f, records), f)
                  for n, f in records[td.record]}

        def check(value, where):
            if not (type(value) is VRecord and value.record == td.record
                    and value.fields.keys() == fields.keys()):
                _mismatch(where, td, value)
            for name, x in value.fields.items():
                payload, check_field, field_td = fields[name]
                if payload is None:
                    check_field(x, (where, name))
                elif type(x) is not payload:
                    _mismatch((where, name), field_td, x)
        return check
    if kind == "vector":
        ok = lambda v: isinstance(v, VVector) and len(v.values) == td.length
    elif kind == "cgrid":
        ok = lambda v: (isinstance(v, VCGrid) and len(v.amps) == td.length
                        and v.dx == td.dx)
    elif kind == "pwcollection":
        declared = tuple((n, t.kind) for n, t in td.attrs)
        ok = lambda v: isinstance(v, VPw) and v.pw.attr_decls == declared
    else:
        raise SchemaError(f"unknown type kind '{kind}'")

    def check(value, where):
        if not ok(value):
            _mismatch(where, td, value)
    return check


def _mismatch(where, td: TypeDesc, value):
    names = []
    while type(where) is tuple:   # (where, field) pairs, innermost last
        where, name = where
        names.append(name)
    raise TypeMismatchError(".".join([where, *reversed(names)]), td,
                            _describe(value))


def _describe(value) -> str:
    if isinstance(value, VVector):
        return f"vector({len(value.values)})"
    if isinstance(value, VCGrid):
        return f"cgrid({len(value.amps)}, {value.dx})"
    if isinstance(value, VRecord):
        return value.record
    if isinstance(value, Value):
        return type(value).__name__.lstrip("V").lower()
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
    values: dict  # field name -> payload or Value

    def __init__(self, schema: StateSchema, time: float, values: dict):
        if not math.isfinite(time):
            raise SchemaError("state time must be finite")
        _SET_SCHEMA(self, schema)
        _SET_TIME(self, time)
        _SET_VALUES(self, values)

    def get(self, name: str):
        return self.values[name]


_SET_SCHEMA, _SET_TIME, _SET_VALUES = (
    SystemState.schema.__set__, SystemState.time.__set__,
    SystemState.values.__set__)


def make_initial_state(schema: StateSchema, assignments: dict) -> SystemState:
    """Build the time-0 state from a complete set of field assignments."""
    for name in assignments:
        if name not in schema.fields:
            raise SchemaError(f"assignment to unknown field '{name}'")
    values = {}
    for name, td in schema.fields.items():
        if name not in assignments:
            raise MissingFieldError(name)
        v = assignments[name]
        check_value(v, td, schema, where=name)
        values[name] = v
    return SystemState(schema, 0.0, values)


def sample_state(schema: StateSchema, rng: RngStream) -> SystemState:
    """Draw a well-typed state uniformly from the declared field domains,
    from the next ``schema.sampler.width`` words of ``rng``."""
    sampler = schema.sampler
    return sampler(rng.words(sampler.width)[None])[0]


class Sampler:
    """Draws the states of a schema from stream words, many at once.

    A state takes ``width`` words, one per value in this order: fields in
    declaration order, within a field vector cells, list elements and
    record fields in order, and the time coordinate last. A word w is the
    uniform u = (w >> 11) * 2**-53 of ``RngStream.uniform01``, and a value
    is drawn from u as ``RngStream`` would: lo + (hi - lo) * u on a real
    interval, lo + min(int(u * n), n - 1) on an int interval of n values,
    the value at that index of a finite set, and u >= 0.5 for a bool with
    no domain. ``sampler(words)`` maps an (N, width) uint64 matrix to N
    states, one per row. ``errors`` holds, in field order, the
    UnsampleableFieldError of each field that cannot be drawn; a sampler
    with errors raises the first.
    """

    def __init__(self, schema: StateSchema):
        self.schema = schema
        self.errors = {}
        self._fields = []   # (name, draw, first column, end column)
        col = 0
        for name, td in schema.fields.items():
            try:
                draw, width = _draw(td, schema.records, name)
            except UnsampleableFieldError as exc:
                self.errors[name] = exc
                continue
            self._fields.append((name, draw, col, col + width))
            col += width
        domain = schema.time_domain
        self._time = None if domain is None else _leaf(domain, "real", "time")
        self.width = col + (domain is not None)

    def __call__(self, words: np.ndarray) -> list:
        if self.errors:
            raise next(iter(self.errors.values()))
        u = (words >> 11) * 2.0**-53
        n = len(u)
        columns = [draw(u[:, a:b]) for _, draw, a, b in self._fields]
        times = [0.0] * n if self._time is None else self._time(u[:, -1])
        schema, names = self.schema, [f[0] for f in self._fields]
        return [SystemState(schema, t, dict(zip(names, row)))
                for t, row in zip(times, _rows(columns, n))]


def _rows(columns: list, n: int):
    """The n rows of equal-length ``columns``; n empty rows if none."""
    return zip(*columns) if columns else [()] * n


def _draw(td: TypeDesc, records: dict, name: str):
    """(draw, width): ``draw(u)`` lists the values of type ``td`` drawn
    from the rows of ``u``, an (N, width) matrix of uniforms. Raises
    UnsampleableFieldError naming ``name`` (or ``name.field`` within a
    record) if ``td`` cannot be drawn."""
    kind = td.kind
    if kind in ("cgrid", "pwcollection"):
        raise UnsampleableFieldError(name, f"{kind} fields are unsampleable")
    if kind == "bool" and td.domain is None:
        return (lambda u: (u[:, 0] >= 0.5).tolist()), 1
    if kind in PAYLOAD_TYPES:
        if td.domain is None:
            raise UnsampleableFieldError(name)
        if kind == "complex" and not td.domain.is_finite:
            raise UnsampleableFieldError(name, "complex needs a finite domain")
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
            return (lambda u: [VList(())] * len(u)), 0
        item, w = _draw(td.element, records, name)
        spans = [(j * w, (j + 1) * w) for j in range(td.bound)]
        return (lambda u: [VList(items) for items in
                           zip(*(item(u[:, a:b]) for a, b in spans))],
                w * td.bound)
    if kind == "record":
        rec, parts, col = td.record, [], 0
        for fname, ftd in records[rec]:
            draw, w = _draw(ftd, records, f"{name}.{fname}")
            parts.append((fname, draw, col, col + w))
            col += w
        names = [p[0] for p in parts]

        def draw_record(u):
            columns = [draw(u[:, a:b]) for _, draw, a, b in parts]
            return [VRecord(rec, dict(zip(names, row)))
                    for row in _rows(columns, len(u))]
        return draw_record, col
    raise UnsampleableFieldError(name, f"cannot sample kind '{kind}'")


def _leaf(domain: Domain, kind: str, name: str):
    """``leaf(u)``: the payloads of kind ``kind`` drawn from ``domain``
    for a column ``u`` of uniforms. A finite value may be of another
    payload type (an int in a real set) and is converted."""
    if domain.is_finite:
        convert = PAYLOAD_TYPES[kind]
        table = np.empty(len(domain.values), dtype=object)
        table[:] = [convert(v) for v in domain.values]
        n = len(table)
        return lambda u: table[np.minimum((u * n).astype(np.intp),
                                          n - 1)].tolist()
    if kind == "int":
        lo, hi = int(domain.lo), int(domain.hi)
        n = hi - lo + 1
        try:
            scale = float(n)
        except OverflowError:
            raise UnsampleableFieldError(name, "interval width overflows")
        if -2**63 <= lo and hi < 2**63:
            # offsets below 2**64 and sums in int64, both exact
            top, base = np.uint64(n - 1), np.uint64(lo % 2**64)
            return lambda u: (np.minimum((u * scale).astype(np.uint64), top)
                              + base).view(np.int64).tolist()
        return lambda u: [lo + min(int(x), n - 1)
                          for x in (u * scale).tolist()]
    lo, width = _interval(domain, name)
    if kind == "bool":
        return lambda u: (lo + width * u != 0.0).tolist()
    return lambda u: (lo + width * u).tolist()


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
    if isinstance(v, VList):
        return {"kind": "list", "items": [value_to_json(x) for x in v.items]}
    if isinstance(v, VRecord):
        return {"kind": "record", "record": v.record,
                "fields": {k: value_to_json(x) for k, x in v.fields.items()}}
    if isinstance(v, VCGrid):
        return {"kind": "cgrid", "dx": v.dx,
                "re": [float(x) for x in v.amps.real],
                "im": [float(x) for x in v.amps.imag]}
    if isinstance(v, VPw):
        pw = v.pw
        names = [n for n, _ in pw.attr_decls]
        # per path, per attribute: that attribute's value for each particle
        rows = zip(*(pw.columns[n].tolist() for n in names))
        return {"kind": "pw",
                "attrs": [[n, k] for n, k in pw.attr_decls],
                "normalized": pw.normalized,
                "paths": [{"amp": [a.real, a.imag],
                           "particles": [dict(zip(names, values))
                                         for values in zip(*row)]}
                          for a, row in zip(pw.amps.tolist(), rows)]}
    raise TypeError(f"unsupported value type {type(v)!r}")


def value_from_json(data):
    kind = data["kind"]
    if kind == "complex":
        return complex(data["re"], data["im"])
    if kind in PAYLOAD_TYPES:
        return PAYLOAD_TYPES[kind](data["v"])
    if kind == "vector":
        return VVector(data["v"])
    if kind == "list":
        return VList([value_from_json(x) for x in data["items"]])
    if kind == "record":
        return VRecord(data["record"],
                       {k: value_from_json(x) for k, x in data["fields"].items()})
    if kind == "cgrid":
        return VCGrid(np.array(data["re"]) + 1j * np.array(data["im"]), data["dx"])
    if kind == "pw":
        decls = tuple((n, k) for n, k in data["attrs"])
        paths = data["paths"]
        names = {n for p in paths for d in p["particles"] for n in d}
        try:   # an undeclared name is left to PwCollection to reject
            columns = {n: [[d[n] for d in p["particles"]] for p in paths]
                       for n in names.union(n for n, _ in decls)}
        except KeyError as exc:
            raise MissingAttributeError(f"path lacks attribute {exc}")
        return VPw(PwCollection(decls,
                                [complex(*p["amp"]) for p in paths], columns,
                                normalized=data.get("normalized", False)))
    raise ValueError(f"unknown value kind '{kind}'")


def state_to_json(state: SystemState) -> dict:
    return {"time": state.time,
            "values": {n: value_to_json(v) for n, v in state.values.items()}}


def state_from_json(data: dict, schema: StateSchema) -> SystemState:
    for name, v in data["values"].items():
        _check_finite(v, name)
    values = {n: value_from_json(v) for n, v in data["values"].items()}
    state = SystemState(schema, float(data["time"]), values)
    for name, td in schema.fields.items():
        if name not in values:
            raise MissingFieldError(name)
        check_value(values[name], td, schema, where=name)
    return state


def _check_finite(data, where: str):
    """TypeMismatchError naming field ``where`` if its JSON ``data`` holds
    ``inf`` or ``nan`` anywhere, which no state holds."""
    if isinstance(data, dict):
        data = list(data.values())
    if isinstance(data, list):
        for x in data:
            _check_finite(x, where)
    elif isinstance(data, float) and not math.isfinite(data):
        raise TypeMismatchError(where, "a finite value", data)
