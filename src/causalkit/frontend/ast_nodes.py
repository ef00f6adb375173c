"""AST node definitions, diagnostics, and the canonical pretty-printer."""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields


@dataclass(frozen=True)
class Loc:
    line: int
    col: int

    def __str__(self):
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    loc: Loc

    def __str__(self):
        return f"{self.loc}: {self.severity}: {self.message}"


# --- expressions ------------------------------------------------------------


@dataclass
class Expr:
    loc: Loc
    ty: object = field(default=None, repr=False, compare=False)  # set by typecheck


@dataclass
class Lit(Expr):
    value: object = None   # int | float | bool | complex
    kind: str = ""         # "int" | "real" | "bool" | "complex"


@dataclass
class Name(Expr):
    id: str = ""


@dataclass
class Member(Expr):
    obj: Expr = None
    name: str = ""


@dataclass
class Index(Expr):
    obj: Expr = None
    index: Expr = None


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Expr = None


@dataclass
class Binary(Expr):
    op: str = ""
    left: Expr = None
    right: Expr = None


@dataclass
class Call(Expr):
    func: str = ""
    args: list = field(default_factory=list)


@dataclass
class ListLit(Expr):
    items: list = field(default_factory=list)


@dataclass
class SetLit(Expr):
    items: list = field(default_factory=list)


@dataclass
class DistExpr(Expr):
    name: str = ""  # FLAT | GAUSS | WEIGHTS | PSI
    args: list = field(default_factory=list)


@dataclass
class RandomExpr(Expr):
    range_: Expr | None = None  # ListLit interval or SetLit, or None
    dist: DistExpr = None


# --- statements -------------------------------------------------------------


@dataclass
class Stmt:
    loc: Loc


@dataclass
class Assign(Stmt):
    target: Expr = None  # Name / Member / Index chain
    value: Expr = None


@dataclass
class For(Stmt):
    var: str = ""
    source: Name = None  # must name a list-typed state field
    body: list = field(default_factory=list)


@dataclass
class Let(Stmt):
    name: str = ""       # visible to the statements after it in its block
    value: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then: list = field(default_factory=list)
    orelse: list = field(default_factory=list)


# --- declarations -----------------------------------------------------------


@dataclass
class TypeExpr:
    loc: Loc
    name: str
    args: list = field(default_factory=list)   # constant exprs (lengths, dx) or TypeExpr
    attrs: list | None = None                  # pwcollection: [(name, TypeExpr)]


@dataclass
class DomainExpr:
    loc: Loc
    kind: str  # "interval" | "set"
    items: list = field(default_factory=list)


@dataclass
class FieldDecl:
    loc: Loc
    name: str
    type_: TypeExpr
    domain: DomainExpr | None = None


@dataclass
class ConstDecl:
    loc: Loc
    name: str
    type_: TypeExpr
    value: Expr = None
    param: bool = False   # a `param`, which --param NAME=VALUE may replace


@dataclass
class RecordDecl:
    loc: Loc
    name: str
    fields: list = field(default_factory=list)  # FieldDecl (no domains used)


@dataclass
class LawDecl:
    loc: Loc
    name: str
    guard: Expr = None
    body: list = field(default_factory=list)


@dataclass
class ModelAst:
    loc: Loc
    name: str
    consts: list = field(default_factory=list)
    records: list = field(default_factory=list)
    state_fields: list = field(default_factory=list)
    init: list = field(default_factory=list)   # Assign statements
    halt: Expr | None = None
    laws: list = field(default_factory=list)


# --- traversal and structural equality (both skip locations and types) ------

_IGNORED = {"loc", "ty"}


def walk(node):
    """Yield every AST node in ``node`` (a node or a list of nodes), each
    before the nodes below it."""
    if isinstance(node, list):
        for item in node:
            yield from walk(item)
    elif hasattr(node, "__dataclass_fields__"):
        yield node
        for f in dc_fields(node):
            if f.name not in _IGNORED:
                yield from walk(getattr(node, f.name))


def structurally_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dataclass_fields__"):
        for f in dc_fields(a):
            if f.name in _IGNORED:
                continue
            if not structurally_equal(getattr(a, f.name), getattr(b, f.name)):
                return False
        return True
    return a == b


# --- pretty printer ----------------------------------------------------------
# Canonical form: fully parenthesized expressions, one statement per line.
# Used by the round-trip tests and for echoing models in tooling.


def format_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        if e.kind == "bool":
            return "true" if e.value else "false"
        if e.kind == "complex":
            return repr(e.value.imag) + "i"
        if e.kind == "real":
            s = repr(float(e.value))
            return s
        return str(e.value)
    if isinstance(e, Name):
        return e.id
    if isinstance(e, Member):
        return f"{format_expr(e.obj)}.{e.name}"
    if isinstance(e, Index):
        return f"{format_expr(e.obj)}[{format_expr(e.index)}]"
    if isinstance(e, Unary):
        return f"({e.op}{format_expr(e.operand)})"
    if isinstance(e, Binary):
        return f"({format_expr(e.left)} {e.op} {format_expr(e.right)})"
    if isinstance(e, Call):
        return f"{e.func}({', '.join(format_expr(a) for a in e.args)})"
    if isinstance(e, ListLit):
        return f"[{', '.join(format_expr(x) for x in e.items)}]"
    if isinstance(e, SetLit):
        return f"{{{', '.join(format_expr(x) for x in e.items)}}}"
    if isinstance(e, DistExpr):
        if e.args:
            return f"{e.name}({', '.join(format_expr(a) for a in e.args)})"
        return e.name
    if isinstance(e, RandomExpr):
        parts = [] if e.range_ is None else [format_expr(e.range_)]
        parts.append(format_expr(e.dist))
        return f"random({', '.join(parts)})"
    raise TypeError(f"cannot format {type(e)!r}")


def format_type(t: TypeExpr) -> str:
    if t.attrs is not None:
        inner = ", ".join(f"{n}: {format_type(ty)}" for n, ty in t.attrs)
        return f"{t.name}({inner})"
    if t.args:
        parts = [format_type(a) if isinstance(a, TypeExpr) else format_expr(a)
                 for a in t.args]
        return f"{t.name}({', '.join(parts)})"
    return t.name


def _format_domain(d: DomainExpr) -> str:
    items = ", ".join(format_expr(x) for x in d.items)
    return f"[{items}]" if d.kind == "interval" else f"{{{items}}}"


def _format_stmt(s: Stmt, indent: int) -> list:
    pad = "  " * indent
    if isinstance(s, Assign):
        return [f"{pad}{format_expr(s.target)} = {format_expr(s.value)};"]
    if isinstance(s, Let):
        return [f"{pad}let {s.name} = {format_expr(s.value)};"]
    if isinstance(s, For):
        lines = [f"{pad}for {s.var} in {s.source.id} {{"]
        for st in s.body:
            lines += _format_stmt(st, indent + 1)
        lines.append(f"{pad}}}")
        return lines
    if isinstance(s, If):
        lines = [f"{pad}if {format_expr(s.cond)} {{"]
        for st in s.then:
            lines += _format_stmt(st, indent + 1)
        if s.orelse:
            lines.append(f"{pad}}} else {{")
            for st in s.orelse:
                lines += _format_stmt(st, indent + 1)
        lines.append(f"{pad}}}")
        return lines
    raise TypeError(f"cannot format {type(s)!r}")


def format_model(m: ModelAst) -> str:
    lines = [f"model {m.name} {{"]
    for c in m.consts:
        keyword = "param" if c.param else "const"
        lines.append(f"  {keyword} {c.name}: {format_type(c.type_)} = "
                     f"{format_expr(c.value)};")
    for r in m.records:
        lines.append(f"  record {r.name} {{")
        for f in r.fields:
            lines.append(f"    {f.name}: {format_type(f.type_)};")
        lines.append("  }")
    lines.append("  state {")
    for f in m.state_fields:
        dom = f" in {_format_domain(f.domain)}" if f.domain else ""
        lines.append(f"    {f.name}: {format_type(f.type_)}{dom};")
    lines.append("  }")
    lines.append("  init {")
    for a in m.init:
        lines += _format_stmt(a, 2)
    lines.append("  }")
    if m.halt is not None:
        lines.append(f"  halt when {format_expr(m.halt)};")
    for law in m.laws:
        lines.append(f"  law {law.name} {{")
        lines.append(f"    when {format_expr(law.guard)};")
        lines.append("    then {")
        for st in law.body:
            lines += _format_stmt(st, 3)
        lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
