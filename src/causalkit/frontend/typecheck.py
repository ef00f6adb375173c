"""Typechecker: resolves names, annotates every expression with a type,
and enforces the structural rules (bool guards, no sampling in guards,
assignments only to state fields).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace

from .. import intrinsics
from ..errors import BadParamError, EvalError, SchemaError
from ..quantum import MAX_CELLS
from ..state import PAYLOAD_TYPES, Domain, StateSchema, TypeDesc
from .ast_nodes import (
    Assign,
    Binary,
    Call,
    Diagnostic,
    DistExpr,
    Expr,
    For,
    If,
    Index,
    Let,
    ListLit,
    Lit,
    Loc,
    Member,
    ModelAst,
    Name,
    RandomExpr,
    SetLit,
    TypeExpr,
    Unary,
    walk,
)
from .parser import parse_expression

_NUMERIC = ("int", "real", "complex")
_SCALAR_TYPE_NAMES = ("real", "int", "bool", "complex")

RESERVED_NAMES = ("dt", "random", "true", "false")


class _Fail(Exception):
    def __init__(self, diag: Diagnostic):
        self.diag = diag


def _err(code: str, message: str, loc: Loc) -> _Fail:
    return _Fail(Diagnostic("error", code, message, loc))


@dataclass
class TypedModel:
    name: str
    ast: ModelAst
    schema: StateSchema
    uses_random: dict  # law name -> bool


@dataclass
class _Ctx:
    fields: dict
    consts: dict          # name -> TypeDesc
    records: dict         # name -> ((field, TypeDesc), ...)
    diags: list
    # None in a law body; elsewhere dt, random() and stochastic intrinsics
    # are banned, and this is the diagnostic code a draw gets
    ban: str | None
    locals: dict = field(default_factory=dict)   # loop variable -> TypeDesc
    lets: dict = field(default_factory=dict)     # let name -> TypeDesc
    init_assigned: set | None = None  # init context: fields readable so far
    consts_val: dict = field(default_factory=dict)  # name -> payload


def typecheck(ast: ModelAst, params: dict | None = None):
    """Typecheck a parsed model. Returns (TypedModel | None, diagnostics).

    ``params`` maps `param` names to the source text of their values; an
    unknown name, or a value that is not a finite constant of the
    declared type, raises BadParamError.
    """
    diags: list[Diagnostic] = []

    const_ctx = _collect_consts(ast, diags, params or {})
    consts_td, consts_val = const_ctx.consts, const_ctx.consts_val
    records = _collect_records(ast, const_ctx)
    fields = _collect_fields(ast, replace(const_ctx, records=records,
                                          ban="bad-domain"))
    if any(d.severity == "error" for d in diags):
        return None, diags

    try:
        schema = StateSchema(fields=fields, records=records,
                             constants={n: (consts_td[n], consts_val[n])
                                        for n in consts_td})
    except SchemaError as exc:
        diags.append(Diagnostic("error", "bad-schema", str(exc), ast.loc))
        return None, diags

    def ctx(ban, **kw):
        return _Ctx(fields, consts_td, records, diags, ban,
                    consts_val=consts_val, **kw)

    _check_init(ast, ctx("random-in-init", init_assigned=set()))

    if ast.halt is not None:
        _expect_bool(ast.halt, ctx("random-in-halt"), "halt condition")

    seen = set()
    uses_random = {}
    for law in ast.laws:
        if law.name in seen:
            diags.append(Diagnostic("error", "duplicate-name",
                                    f"duplicate law name '{law.name}'", law.loc))
        seen.add(law.name)
        typed = _expect_bool(law.guard, ctx("random-in-guard"),
                             f"guard of law '{law.name}'")
        # folding reads the types, so only a guard that typechecked folds
        if typed and const_fold(law.guard, consts_val) is False:
            diags.append(Diagnostic("warning", "guard-never-true",
                                    f"guard of law '{law.name}' is constantly false",
                                    law.guard.loc))
        _check_block(law.body, ctx(None))
        uses_random[law.name] = any(
            isinstance(n, RandomExpr) or isinstance(n, Call)
            and getattr(intrinsics.get(n.func), "stochastic", False)
            for n in walk(law.body))

    if any(d.severity == "error" for d in diags):
        return None, diags
    return TypedModel(ast.name, ast, schema, uses_random), diags


def check_standalone_expr(expr: Expr, schema: StateSchema):
    """Type an expression against a schema (observables, built guards)."""
    diags: list[Diagnostic] = []
    consts_td = {n: td for n, (td, _) in schema.constants.items()}
    consts_val = {n: v for n, (_, v) in schema.constants.items()}
    ctx = _Ctx(dict(schema.fields), consts_td, dict(schema.records), diags,
               "random-in-observable", consts_val=consts_val)
    try:
        td = _check_expr(expr, ctx)
    except _Fail as f:
        diags.append(f.diag)
        return None, diags
    return td, diags


# --- declaration collection ---------------------------------------------------


def _collect_records(ast: ModelAst, const_ctx: _Ctx) -> dict:
    names = {r.name for r in ast.records}
    diags = const_ctx.diags
    records: dict = {}
    for r in ast.records:
        if r.name in records:
            diags.append(Diagnostic("error", "duplicate-name",
                                    f"duplicate record '{r.name}'", r.loc))
            continue
        fields = []
        seen = set()
        for f in r.fields:
            if f.name in seen:
                diags.append(Diagnostic("error", "duplicate-name",
                                        f"duplicate field '{f.name}' in record '{r.name}'",
                                        f.loc))
                continue
            seen.add(f.name)
            try:
                fields.append((f.name, _resolve_type(f.type_, names,
                                                     const_ctx)))
            except _Fail as fail:
                diags.append(fail.diag)
        records[r.name] = tuple(fields)
    return records


def _collect_consts(ast: ModelAst, diags, params: dict) -> _Ctx:
    """Type and fold each initializer in turn, or a param's value in
    ``params``; it reads only the constants declared before it. Returns
    the context that reads them all."""
    unknown = set(params) - {c.name for c in ast.consts if c.param}
    if unknown:
        raise BadParamError(f"unknown parameter(s) for '{ast.name}': "
                            f"{', '.join(sorted(unknown))}")
    record_names = {r.name for r in ast.records}
    ctx = _Ctx({}, {}, {}, diags, "not-constant")
    consts_td, consts_val = ctx.consts, ctx.consts_val
    for c in ast.consts:
        if c.name in consts_td:
            diags.append(Diagnostic("error", "duplicate-name",
                                    f"duplicate constant '{c.name}'", c.loc))
            continue
        if c.name in RESERVED_NAMES:
            diags.append(Diagnostic("error", "reserved-name",
                                    f"'{c.name}' is reserved", c.loc))
            continue
        try:
            td = _resolve_type(c.type_, record_names, ctx)
            if td.kind not in _SCALAR_TYPE_NAMES:
                raise _err("bad-type", "constants must be scalar", c.loc)
            value = _constant(c.value, td, ctx, c)
            if c.name in params:
                value = _param_value(params[c.name], td, ctx, c)
            consts_td[c.name] = td
            consts_val[c.name] = value
        except _Fail as fail:
            diags.append(fail.diag)
    return ctx


def _constant(e: Expr, td: TypeDesc, ctx: _Ctx, c):
    """The payload of constant ``c`` with initializer ``e`` of type ``td``."""
    value_td = _check_expr(e, ctx)
    raw = _fold_constant(e, ctx.consts_val,
                         f"initializer of constant '{c.name}'")
    if raw is None:
        raise _err("not-constant",
                   f"initializer of constant '{c.name}' is not constant",
                   e.loc)
    _require_assignable(value_td, td, c.loc, f"constant '{c.name}'")
    return PAYLOAD_TYPES[td.kind](raw)


def _param_value(text: str, td: TypeDesc, ctx: _Ctx, c):
    """The payload of param ``c`` given the value ``text``, checked as its
    initializer is; a value that is not is a BadParamError."""
    expr, _ = parse_expression(text)
    try:
        if expr is not None:
            return _constant(expr, td, ctx, c)
    except _Fail:
        pass
    raise BadParamError(f"bad value for parameter '{c.name}': {text!r}")


def _fold_constant(e: Expr, consts_val: dict, what: str):
    """Fold the typed constant expression ``e``, or None if it reads
    anything but constants; a failing evaluation or a non-finite value is
    a bad-constant diagnostic about ``what``."""
    try:
        raw = _fold(e, consts_val)
    except EvalError as exc:
        raise _err("bad-constant", f"{what}: {exc.message}", e.loc)
    if isinstance(raw, (float, complex)) and not cmath.isfinite(raw):
        raise _err("bad-constant", f"{what}: non-finite value {raw}", e.loc)
    return raw


def _collect_fields(ast: ModelAst, bound_ctx: _Ctx) -> dict:
    """Resolve each field's type; its domain bounds are typed and folded
    in ``bound_ctx``, which reads only constants."""
    records, diags = bound_ctx.records, bound_ctx.diags
    fields: dict = {}
    for f in ast.state_fields:
        if f.name in fields:
            diags.append(Diagnostic("error", "duplicate-name",
                                    f"duplicate field '{f.name}'", f.loc))
            continue
        if f.name in RESERVED_NAMES:
            diags.append(Diagnostic("error", "reserved-name",
                                    f"'{f.name}' is reserved", f.loc))
            continue
        try:
            td = _resolve_type(f.type_, set(records), bound_ctx)
            if f.domain is not None:
                td = _attach_domain(td, f.domain, bound_ctx)
            fields[f.name] = td
        except _Fail as fail:
            diags.append(fail.diag)
    return fields


def _resolve_type(t: TypeExpr, record_names: set, ctx: _Ctx) -> TypeDesc:
    """The type ``t`` names; its lengths, dx and list bound are constant
    expressions, folded in ``ctx``."""
    try:
        if t.name in _SCALAR_TYPE_NAMES:
            return TypeDesc(t.name)
        if t.name in ("vector", "cgrid"):
            arity = 1 if t.name == "vector" else 2
            if len(t.args) != arity:
                raise _err("bad-type", f"{t.name} takes {arity} argument"
                           f"{'s' if arity > 1 else ''}", t.loc)
            length = _const_arg(t.args[0], ("int",), f"{t.name} length", ctx)
            if length > MAX_CELLS:
                raise _err("bad-type", f"{t.name} length must be at most "
                           f"{MAX_CELLS}", t.loc)
            if t.name == "vector":
                return TypeDesc.vector(length)
            dx = _const_arg(t.args[1], ("int", "real"), "cgrid dx", ctx)
            return TypeDesc.cgrid(length, float(dx))
        if t.name == "list":
            elem = _resolve_type(t.args[0], record_names, ctx)
            bound = _const_arg(t.args[1], ("int",), "list bound", ctx) \
                if len(t.args) > 1 else None
            return TypeDesc.list_of(elem, bound)
        if t.name == "pwcollection":
            attrs = [(n, _resolve_type(ty, record_names, ctx))
                     for n, ty in t.attrs]
            return TypeDesc.pwcollection(attrs)
        if t.name in record_names:
            return TypeDesc.record_ref(t.name)
    except SchemaError as exc:
        raise _err("bad-type", str(exc), t.loc)
    raise _err("unknown-name", f"unknown type '{t.name}'", t.loc)


def _const_arg(e: Expr, kinds: tuple, what: str, ctx: _Ctx):
    """A type argument: a constant of one of ``kinds``, folded."""
    td = _check_expr(e, ctx)
    raw = _fold_constant(e, ctx.consts_val, what) if td.kind in kinds \
        else None
    if raw is None:
        raise _err("bad-type", f"{what} must be an {' or '.join(kinds)} "
                   "constant", e.loc)
    return raw


def _attach_domain(td: TypeDesc, dom, ctx: _Ctx) -> TypeDesc:
    def fold(e):
        bound_td = _check_expr(e, ctx)
        if (bound_td.kind == "bool") != (td.kind == "bool"):
            want = "bool" if td.kind == "bool" else "numeric"
            raise _err("type-mismatch",
                       f"domain bound must be {want}, got {bound_td}", e.loc)
        raw = _fold_constant(e, ctx.consts_val, "domain bound")
        if raw is None:
            raise _err("bad-domain", "domain bounds must be constant", e.loc)
        return raw

    if td.kind not in ("real", "int", "bool", "complex", "vector"):
        raise _err("bad-domain", f"type {td} cannot carry a domain", dom.loc)
    try:
        if dom.kind == "interval":
            if td.kind in ("bool", "complex"):
                raise _err("bad-domain",
                           f"{td.kind} fields need a finite value set", dom.loc)
            lo, hi = fold(dom.items[0]), fold(dom.items[1])
            domain = Domain(lo=float(lo), hi=float(hi))
        else:
            values = tuple(fold(e) for e in dom.items)
            for v in values:
                if td.kind == "int" and not isinstance(v, int):
                    raise _err("bad-domain", "int domain needs integer values",
                               dom.loc)
            domain = Domain(values=values)
    except SchemaError as exc:
        raise _err("bad-domain", str(exc), dom.loc)
    return TypeDesc(td.kind, length=td.length, dx=td.dx, element=td.element,
                    bound=td.bound, record=td.record, attrs=td.attrs,
                    domain=domain)


# --- init block ---------------------------------------------------------------


def _check_init(ast: ModelAst, ctx: _Ctx):
    for stmt in ast.init:
        try:
            if not isinstance(stmt.target, Name):
                raise _err("bad-init", "init assigns whole fields only",
                           stmt.loc)
            name = stmt.target.id
            if name in ctx.consts:
                raise _err("assign-to-constant",
                           f"cannot assign to constant '{name}'", stmt.loc)
            if name not in ctx.fields:
                raise _err("unknown-name", f"unknown field '{name}'", stmt.loc)
            td = _check_expr(stmt.value, ctx)
            _require_assignable(td, ctx.fields[name], stmt.loc,
                                f"field '{name}'")
            stmt.target.ty = ctx.fields[name]
            ctx.init_assigned.add(name)
        except _Fail as fail:
            ctx.diags.append(fail.diag)


# --- statements -----------------------------------------------------------------


def _check_block(stmts: list, ctx: _Ctx):
    """Check statements in order; a let is visible to the statements after
    it in its block."""
    inner = replace(ctx, lets=dict(ctx.lets))
    for stmt in stmts:
        _check_stmt(stmt, inner)


def _check_stmt(stmt, ctx: _Ctx):
    try:
        if isinstance(stmt, Assign):
            target_td = _check_target(stmt.target, ctx)
            value_td = _check_expr(stmt.value, ctx)
            _require_assignable(value_td, target_td, stmt.loc, "assignment")
        elif isinstance(stmt, Let):
            td = _check_expr(stmt.value, ctx)
            _check_new_name(stmt.name, stmt.loc, ctx, "let")
            ctx.lets[stmt.name] = td
        elif isinstance(stmt, For):
            _check_for(stmt, ctx)
        elif isinstance(stmt, If):
            _expect_bool(stmt.cond, ctx, "if condition")
            _check_block(stmt.then, ctx)
            _check_block(stmt.orelse, ctx)
        else:
            raise _err("internal", f"unknown statement {type(stmt)}", stmt.loc)
    except _Fail as fail:
        ctx.diags.append(fail.diag)


def _check_for(stmt: For, ctx: _Ctx):
    src = stmt.source.id
    if src not in ctx.fields:
        raise _err("unknown-name", f"unknown field '{src}'", stmt.source.loc)
    src_td = ctx.fields[src]
    if src_td.kind != "list":
        raise _err("type-mismatch", f"'for' needs a list field, got {src_td}",
                   stmt.source.loc)
    _check_new_name(stmt.var, stmt.loc, ctx, "loop variable")
    stmt.source.ty = src_td
    _check_block(stmt.body, replace(ctx, locals={**ctx.locals,
                                                 stmt.var: src_td.element}))


def _check_new_name(name: str, loc: Loc, ctx: _Ctx, what: str):
    """A loop variable or let may not shadow another name."""
    if any(name in names for names in (ctx.fields, ctx.consts, ctx.locals,
                                       ctx.lets)):
        raise _err("duplicate-name",
                   f"{what} '{name}' shadows an existing name", loc)
    if name in RESERVED_NAMES:
        raise _err("reserved-name", f"'{name}' is reserved", loc)


def _check_target(target: Expr, ctx: _Ctx) -> TypeDesc:
    """Type an lvalue; the root must be a state field or a loop variable."""
    if isinstance(target, Name):
        if target.id in ctx.consts:
            raise _err("assign-to-constant",
                       f"cannot assign to constant '{target.id}'", target.loc)
        if target.id in ctx.lets:
            raise _err("assign-to-let",
                       f"cannot assign to let '{target.id}'", target.loc)
        if target.id in ctx.locals:
            target.ty = ctx.locals[target.id]
            return target.ty
        if target.id in ctx.fields:
            target.ty = ctx.fields[target.id]
            return target.ty
        raise _err("unknown-name",
                   f"cannot assign to unknown name '{target.id}'", target.loc)
    if isinstance(target, Member):
        base = _check_target(target.obj, ctx)
        target.ty = _member_type(base, target.name, target.loc, ctx)
        return target.ty
    if isinstance(target, Index):
        base = _check_target(target.obj, ctx)
        _expect_kind(_check_expr(target.index, ctx), "int", target.index.loc,
                     "list index")
        target.ty = _element_type(base, target.loc, ctx, writing=True)
        return target.ty
    raise _err("bad-target", "invalid assignment target", target.loc)


def _require_assignable(got: TypeDesc, want: TypeDesc, loc: Loc, what: str):
    if _same_shape(got, want):
        return
    if want.kind == "real" and got.kind == "int":
        return
    if want.kind == "complex" and got.kind in ("int", "real"):
        return
    raise _err("type-mismatch", f"{what}: expected {want}, got {got}", loc)


def _same_shape(a: TypeDesc, b: TypeDesc) -> bool:
    """Structural equality ignoring domains and list bounds."""
    if a.kind != b.kind:
        return False
    if a.kind in ("vector", "cgrid"):
        return a.length == b.length and (a.kind != "cgrid" or a.dx == b.dx)
    if a.kind == "list":
        return _same_shape(a.element, b.element)
    if a.kind == "record":
        return a.record == b.record
    if a.kind == "pwcollection":
        return tuple((n, t.kind) for n, t in a.attrs) == \
            tuple((n, t.kind) for n, t in b.attrs)
    return True


# --- expressions -----------------------------------------------------------------


def _expect_bool(expr: Expr, ctx: _Ctx, what: str) -> bool:
    """Whether ``expr`` typechecks as bool; if not, the diagnostic is kept."""
    try:
        td = _check_expr(expr, ctx)
        if td.kind != "bool":
            raise _err("type-mismatch", f"{what} must be bool, got {td}",
                       expr.loc)
        return True
    except _Fail as fail:
        ctx.diags.append(fail.diag)
        return False


def _expect_kind(td: TypeDesc, kind: str, loc: Loc, what: str):
    if td.kind != kind:
        raise _err("type-mismatch", f"{what} must be {kind}, got {td}", loc)


def _check_expr(e: Expr, ctx: _Ctx) -> TypeDesc:
    td = _infer(e, ctx)
    e.ty = td
    return td


def _infer(e: Expr, ctx: _Ctx) -> TypeDesc:
    if isinstance(e, Lit):
        return TypeDesc(e.kind)
    if isinstance(e, Name):
        return _lookup(e, ctx)
    if isinstance(e, Member):
        base = _check_expr(e.obj, ctx)
        return _member_type(base, e.name, e.loc, ctx)
    if isinstance(e, Index):
        base = _check_expr(e.obj, ctx)
        _expect_kind(_check_expr(e.index, ctx), "int", e.index.loc, "index")
        return _element_type(base, e.loc, ctx, writing=False)
    if isinstance(e, Unary):
        td = _check_expr(e.operand, ctx)
        if e.op == "-":
            if td.kind not in _NUMERIC:
                raise _err("type-mismatch", f"cannot negate {td}", e.loc)
            return TypeDesc(td.kind)
        _expect_kind(td, "bool", e.loc, "operand of '!'")
        return TypeDesc("bool")
    if isinstance(e, Binary):
        return _binary_type(e, ctx)
    if isinstance(e, Call):
        return _call_type(e, ctx)
    if isinstance(e, RandomExpr):
        return _random_type(e, ctx)
    if isinstance(e, ListLit):
        return _list_lit_type(e, ctx)
    if isinstance(e, SetLit):
        raise _err("bad-expr", "value sets are only valid as random ranges",
                   e.loc)
    if isinstance(e, DistExpr):
        raise _err("bad-expr", "distributions are only valid inside random()",
                   e.loc)
    raise _err("internal", f"unknown expression {type(e)}", e.loc)


def _lookup(e: Name, ctx: _Ctx) -> TypeDesc:
    if e.id in ctx.locals:
        return ctx.locals[e.id]
    if e.id in ctx.lets:
        return ctx.lets[e.id]
    if e.id in ctx.consts:
        return ctx.consts[e.id]
    if e.id in ctx.fields:
        if ctx.init_assigned is not None and e.id not in ctx.init_assigned:
            raise _err("unknown-name",
                       f"field '{e.id}' read before initialization", e.loc)
        return ctx.fields[e.id]
    if e.id == "dt":
        if ctx.ban is not None:
            raise _err("unknown-name",
                       "'dt' is only available in transition blocks", e.loc)
        return TypeDesc("real")
    raise _err("unknown-name", f"unknown name '{e.id}'", e.loc)


def _member_type(base: TypeDesc, name: str, loc: Loc, ctx: _Ctx) -> TypeDesc:
    if base.kind != "record":
        raise _err("type-mismatch", f"member access needs a record, got {base}",
                   loc)
    for fname, td in ctx.records[base.record]:
        if fname == name:
            return td
    raise _err("unknown-name",
               f"record '{base.record}' has no field '{name}'", loc)


def _element_type(base: TypeDesc, loc: Loc, ctx: _Ctx, writing: bool) -> TypeDesc:
    if base.kind == "list":
        return base.element
    if base.kind == "vector":
        return TypeDesc("real")
    if base.kind == "cgrid":
        return TypeDesc("complex")
    raise _err("type-mismatch", f"cannot index {base}", loc)


def _join_numeric(a: TypeDesc, b: TypeDesc, loc: Loc, what: str) -> str:
    if a.kind not in _NUMERIC or b.kind not in _NUMERIC:
        raise _err("type-mismatch",
                   f"{what} needs numeric operands, got {a} and {b}", loc)
    for kind in ("complex", "real", "int"):
        if a.kind == kind or b.kind == kind:
            return kind
    raise _err("internal", "unreachable", loc)


def _binary_type(e: Binary, ctx: _Ctx) -> TypeDesc:
    lt = _check_expr(e.left, ctx)
    rt = _check_expr(e.right, ctx)
    op = e.op
    if op in ("&&", "||"):
        _expect_kind(lt, "bool", e.left.loc, f"operand of '{op}'")
        _expect_kind(rt, "bool", e.right.loc, f"operand of '{op}'")
        return TypeDesc("bool")
    if op in ("<", "<=", ">", ">="):
        for td, side in ((lt, e.left), (rt, e.right)):
            if td.kind not in ("int", "real"):
                raise _err("type-mismatch",
                           f"ordering needs int or real, got {td}", side.loc)
        return TypeDesc("bool")
    if op in ("==", "!="):
        if lt.kind == "bool" and rt.kind == "bool":
            return TypeDesc("bool")
        _join_numeric(lt, rt, e.loc, f"'{op}'")
        return TypeDesc("bool")
    if op == "^":
        kind = _join_numeric(lt, rt, e.loc, "'^'")
        if kind == "complex":
            raise _err("type-mismatch", "'^' is not defined for complex "
                       "(use exp/conj)", e.loc)
        return TypeDesc(kind)
    if op == "/":
        kind = _join_numeric(lt, rt, e.loc, "'/'")
        return TypeDesc("complex" if kind == "complex" else "real")
    kind = _join_numeric(lt, rt, e.loc, f"'{op}'")
    return TypeDesc(kind)


def _list_lit_type(e: ListLit, ctx: _Ctx) -> TypeDesc:
    if not e.items:
        raise _err("bad-expr", "cannot infer the type of an empty list", e.loc)
    kinds = [_check_expr(item, ctx) for item in e.items]
    elem = kinds[0]
    for td, item in zip(kinds[1:], e.items[1:]):
        if _same_shape(td, elem):
            continue
        if td.kind in _NUMERIC and elem.kind in _NUMERIC:
            elem = TypeDesc(_join_numeric(td, elem, item.loc, "list literal"))
            continue
        raise _err("type-mismatch", "list literal elements disagree", item.loc)
    return TypeDesc.list_of(elem)


def _call_type(e: Call, ctx: _Ctx) -> TypeDesc:
    args = [_check_expr(a, ctx) for a in e.args]
    f = e.func
    intr = intrinsics.get(f)
    if intr is None:
        raise _err("unknown-intrinsic", f"unknown function '{f}'", e.loc)
    if intr.stochastic and ctx.ban is not None:
        raise _err(ctx.ban,
                   f"stochastic intrinsic '{f}' is not allowed here", e.loc)
    if len(args) != intr.arity:
        raise _err("bad-arity", f"{f} takes {intr.arity} "
                   f"argument{'s' if intr.arity != 1 else ''}", e.loc)
    try:
        check_ctx = intrinsics.CheckContext(
            e.args, lambda ex: const_fold(ex, ctx.consts_val), ctx.records)
        td = intr.check(args, check_ctx)
    except intrinsics.IntrinsicTypeError as exc:
        raise _err("type-mismatch", f"{f}: {exc}", e.loc)
    if td.kind == "record" and td.record not in ctx.records:
        raise _err("unknown-name", f"{f}: the model declares no record "
                   f"'{td.record}'", e.loc)
    return td


def _random_type(e: RandomExpr, ctx: _Ctx) -> TypeDesc:
    if ctx.ban is not None:
        raise _err(ctx.ban, "random() is not allowed here", e.loc)
    dist = e.dist
    for a in dist.args:
        _check_expr(a, ctx)
    if e.range_ is None:
        if dist.name != "GAUSS":
            raise _err("bad-random",
                       f"{dist.name} needs an explicit value range", e.loc)
        _gauss_args(dist)
        return TypeDesc("real")
    if isinstance(e.range_, ListLit):
        if len(e.range_.items) != 2:
            raise _err("bad-random", "interval range must be [lo, hi]",
                       e.range_.loc)
        for item in e.range_.items:
            _check_expr(item, ctx)
            if item.ty.kind not in ("int", "real"):
                raise _err("type-mismatch", "range bounds must be real",
                           item.loc)
        e.range_.ty = TypeDesc.list_of(TypeDesc("real"))
        if dist.name == "FLAT":
            if dist.args:
                raise _err("bad-random", "FLAT takes no parameters", dist.loc)
        elif dist.name == "GAUSS":
            _gauss_args(dist)
        else:
            raise _err("bad-random",
                       f"{dist.name} needs a finite value set", e.loc)
        return TypeDesc("real")
    # finite set range
    items = e.range_.items
    kinds = []
    for item in items:
        td = _check_expr(item, ctx)
        if td.kind not in ("int", "real", "bool"):
            raise _err("type-mismatch",
                       "set elements must be int, real, or bool", item.loc)
        kinds.append(td.kind)
    if "bool" in kinds and any(k != "bool" for k in kinds):
        raise _err("type-mismatch", "set elements disagree", e.range_.loc)
    result = "bool" if kinds[0] == "bool" else \
        ("real" if "real" in kinds else "int")
    e.range_.ty = TypeDesc.list_of(TypeDesc(result))
    if dist.name == "FLAT":
        if dist.args:
            raise _err("bad-random", "FLAT takes no parameters", dist.loc)
    elif dist.name == "WEIGHTS":
        if len(dist.args) != len(items):
            raise _err("bad-random",
                       "WEIGHTS needs one weight per value", dist.loc)
        for a in dist.args:
            if a.ty.kind not in ("int", "real"):
                raise _err("type-mismatch", "weights must be real", a.loc)
    elif dist.name == "PSI":
        if len(dist.args) != len(items):
            raise _err("bad-random",
                       "PSI needs one amplitude per value", dist.loc)
        for a in dist.args:
            if a.ty.kind not in _NUMERIC:
                raise _err("type-mismatch", "amplitudes must be numeric",
                           a.loc)
    else:
        raise _err("bad-random", "GAUSS needs an interval range", e.loc)
    return TypeDesc(result)


def _gauss_args(dist: DistExpr):
    if len(dist.args) != 2:
        raise _err("bad-random", "GAUSS takes (mean, sigma)", dist.loc)
    for a in dist.args:
        if a.ty.kind not in ("int", "real"):
            raise _err("type-mismatch", "GAUSS parameters must be real", a.loc)


# --- constant folding ------------------------------------------------------------


def const_fold(e: Expr, consts_val: dict):
    """Fold a typed expression to a payload, or None if it is not
    constant or fails. ``consts_val`` maps constant names to payloads."""
    try:
        return _fold(e, consts_val)
    except EvalError:
        return None


def _fold(e: Expr, consts_val: dict):
    """Fold a typed expression as the compiled closure would evaluate it:
    None if it reads anything but constants; a failure raises EvalError."""
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Name):
        return consts_val.get(e.id)
    if isinstance(e, Unary):
        x = _fold(e.operand, consts_val)
        if x is None:
            return None
        return intrinsics.unary(e.op, e.ty.kind, e.loc)(x)
    if isinstance(e, Binary):
        left = _fold(e.left, consts_val)
        if left is None:
            return None
        # && and || short-circuit, as the compiled closure does
        if e.op == "&&" and not left or e.op == "||" and left:
            return left
        right = _fold(e.right, consts_val)
        if right is None or e.op in ("&&", "||"):
            return right
        try:
            return intrinsics.binary(e.op, e.ty.kind, e.loc)(left, right)
        except OverflowError as exc:   # an int too large for a float
            raise EvalError(str(exc), e.loc)
    return None
