"""AST node definitions, diagnostics, and the canonical pretty-printer."""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dc_fields, is_dataclass


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
    # set by typecheck: the type, and the payload of a constant expression
    # or the message of the evaluation in it that failed
    ty: object = field(default=None, repr=False, compare=False)
    const: object = field(default=None, repr=False, compare=False)
    const_error: str | None = field(default=None, repr=False, compare=False)


@dataclass
class Lit(Expr):
    value: object = None   # int | float | bool | complex
    kind: str = ""         # "int" | "real" | "bool" | "complex"

    def __post_init__(self):   # a literal is constant, typed or not
        self.const = self.value


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
    name: str = ""  # a distribution of intrinsics.DRAWS
    args: list = field(default_factory=list)


@dataclass
class RandomExpr(Expr):
    range_: Expr | None = None  # ListLit interval or SetLit, or None
    dist: DistExpr = None

    @property
    def shape(self) -> str:   # with dist.name, the key of intrinsics.DRAWS
        return ("none" if self.range_ is None else
                "set" if isinstance(self.range_, SetLit) else "interval")


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

# node class (each dataclass above) -> its fields but loc and those the
# typechecker sets (compare=False), in declaration order
_FIELDS = {cls: tuple(f.name for f in dc_fields(cls)
                      if f.name != "loc" and f.compare)
           for cls in list(globals().values())
           if isinstance(cls, type) and is_dataclass(cls)}
# node class -> those of its fields that can hold a node (not a str or bool
# field), last first: the order in which walk stacks them
_CHILDREN = {cls: tuple(name for name in reversed(names)
                        if cls.__dataclass_fields__[name].type
                        not in ("str", "bool"))
             for cls, names in _FIELDS.items()}


def walk(node):
    """Yield every AST node in ``node`` (a node or a list of nodes), each
    before the nodes below it, those in field order."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            stack += node[::-1]
        elif type(node) in _CHILDREN:
            yield node
            for name in _CHILDREN[type(node)]:
                stack.append(getattr(node, name))


def structurally_equal(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(structurally_equal, a, b))
    names = _FIELDS.get(type(a))
    if names is not None:
        return all(structurally_equal(getattr(a, name), getattr(b, name))
                   for name in names)
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
