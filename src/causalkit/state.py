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

import numpy as np

from .errors import (
    MissingAttributeError,
    MissingFieldError,
    SchemaError,
    SchemaMismatchError,
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
        for name, td in self.all_type_decls():
            self._check_refs_resolve(td, where=name)
        self._check_record_cycles()

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
        # DFS over record -> record references
        visiting, done = set(), set()

        def refs(td: TypeDesc):
            if td.kind == "record":
                yield td.record
            elif td.kind == "list":
                yield from refs(td.element)

        def visit(name):
            if name in done:
                return
            if name in visiting:
                raise SchemaError(f"cyclic record definition through '{name}'")
            visiting.add(name)
            for _, td in self.records[name]:
                for ref in refs(td):
                    visit(ref)
            visiting.discard(name)
            done.add(name)

        for name in self.records:
            visit(name)


# --- values -----------------------------------------------------------------


class Value:
    """Base of the composite values. Instances are immutable by convention."""

    __slots__ = ()


# the exact Python type of each scalar kind's payload, and back (bool is
# a subclass of int, so payloads are told apart by exact type)
PAYLOAD_TYPES = {"int": int, "real": float, "bool": bool, "complex": complex}
_SCALAR_KIND = {t: k for k, t in PAYLOAD_TYPES.items()}


@dataclass(frozen=True, slots=True, eq=False)
class VVector(Value):
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.float64))


@dataclass(frozen=True, slots=True)
class VList(Value):
    items: tuple

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))


@dataclass(frozen=True, slots=True)
class VRecord(Value):
    record: str
    fields: dict  # name -> Value


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
            if not isinstance(value, VList):
                _mismatch(where, td, value)
            for x in value.items:
                item(x, where)
        return check
    if kind == "record":
        fields = {n: _checker(f, records) for n, f in records[td.record]}

        def check(value, where):
            if not (isinstance(value, VRecord) and value.record == td.record
                    and value.fields.keys() == fields.keys()):
                _mismatch(where, td, value)
            for name, x in value.fields.items():
                fields[name](x, (where, name))
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


@dataclass(frozen=True)
class SystemState:
    """Immutable snapshot: schema reference, time coordinate, field values."""

    schema: StateSchema
    time: float
    values: dict  # field name -> payload or Value

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise SchemaError("state time must be finite")

    def get(self, name: str):
        return self.values[name]


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
    """Draw a well-typed state uniformly from the declared field domains."""
    values = {name: sample_value(td, schema, rng, name)
              for name, td in schema.fields.items()}
    if schema.time_domain is not None:
        t = _sample_raw_from_domain(schema.time_domain, "real", rng)
    else:
        t = 0.0
    return SystemState(schema, float(t), values)


def _sample_raw_from_domain(domain: Domain, kind: str, rng: RngStream):
    if domain.is_finite:
        return domain.values[rng.randint_below(len(domain.values))]
    if kind == "int":
        lo, hi = int(domain.lo), int(domain.hi)
        return lo + rng.randint_below(hi - lo + 1)
    return rng.uniform(domain.lo, domain.hi)


def sample_value(td: TypeDesc, schema: StateSchema, rng: RngStream, name: str):
    kind = td.kind
    if kind in ("cgrid", "pwcollection"):
        raise UnsampleableFieldError(name, f"{kind} fields are unsampleable")
    if kind == "bool":
        if td.domain is not None:
            return bool(_sample_raw_from_domain(td.domain, kind, rng))
        return rng.randint_below(2) == 1
    if kind in ("real", "int", "complex"):
        if td.domain is None:
            raise UnsampleableFieldError(name)
        if kind == "complex" and not td.domain.is_finite:
            raise UnsampleableFieldError(name, "complex needs a finite domain")
        # a finite domain may list ints for a real or complex field
        return PAYLOAD_TYPES[kind](_sample_raw_from_domain(td.domain, kind, rng))
    if kind == "vector":
        if td.domain is None or td.domain.is_finite:
            raise UnsampleableFieldError(name, "vector needs an interval domain")
        return VVector([rng.uniform(td.domain.lo, td.domain.hi)
                        for _ in range(td.length)])
    if kind == "list":
        if td.bound is None:
            raise UnsampleableFieldError(name, "list needs a length bound")
        return VList([sample_value(td.element, schema, rng, name)
                      for _ in range(td.bound)])
    if kind == "record":
        return VRecord(td.record, {
            fname: sample_value(ftd, schema, rng, f"{name}.{fname}")
            for fname, ftd in schema.records[td.record]})
    raise UnsampleableFieldError(name, f"cannot sample kind '{kind}'")


def deep_equal(a: SystemState, b: SystemState, tol: float = 0.0) -> bool:
    """Field-by-field equality; floats compared within absolute tolerance."""
    if a.schema is not b.schema and a.schema != b.schema:
        raise SchemaMismatchError("states have different schemas")
    if not _close(a.time, b.time, tol):
        return False
    return all(_value_equal(a.values[n], b.values[n], tol) for n in a.schema.fields)


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def _value_equal(a, b, tol: float) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) in (int, bool):
        return a == b
    if type(a) is float:
        return _close(a, b, tol)
    if type(a) is complex:
        return abs(a - b) <= tol
    if isinstance(a, VVector):
        return _arrays_close(a.values, b.values, tol)
    if isinstance(a, VCGrid):
        return a.dx == b.dx and _arrays_close(a.amps, b.amps, tol)
    if isinstance(a, VList):
        return (len(a.items) == len(b.items)
                and all(_value_equal(x, y, tol) for x, y in zip(a.items, b.items)))
    if isinstance(a, VRecord):
        return (a.record == b.record and set(a.fields) == set(b.fields)
                and all(_value_equal(v, b.fields[k], tol) for k, v in a.fields.items()))
    if isinstance(a, VPw):   # real attributes within tol, the rest exactly
        pa, pb = a.pw, b.pw
        return (pa.attr_decls == pb.attr_decls
                and _arrays_close(pa.amps, pb.amps, tol)
                and all(_arrays_close(pa.columns[n], pb.columns[n], tol)
                        if k == "real"
                        else np.array_equal(pa.columns[n], pb.columns[n])
                        for n, k in pa.attr_decls))
    raise TypeError(f"unsupported value type {type(a)!r}")


def _arrays_close(x: np.ndarray, y: np.ndarray, tol: float) -> bool:
    return x.shape == y.shape and bool(np.all(np.abs(x - y) <= tol))


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
