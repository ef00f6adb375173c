"""Recursive-descent parser for CML; expressions by precedence climbing.

``parse`` never raises on malformed input: it returns the AST (or None)
together with a list of diagnostics locating the first offending token.

Nesting is bounded by ``MAX_DEPTH`` (code ``too-deep``), so that no later
stage recurses past Python's stack. Counted are the brackets and blocks
open around a token, and the blocks around an expression plus the height
of its tree; operator chains are read by loops and bounded by height. A
parenthesis adds no tree node, so pretty-printed text (one pair around
each operator) is never deeper than its source.
"""

from __future__ import annotations

from ..intrinsics import DRAWS
from .ast_nodes import (
    Assign,
    Binary,
    Call,
    ConstDecl,
    Diagnostic,
    DistExpr,
    DomainExpr,
    Expr,
    FieldDecl,
    For,
    If,
    Index,
    LawDecl,
    Let,
    ListLit,
    Lit,
    Loc,
    Member,
    ModelAst,
    Name,
    RandomExpr,
    RecordDecl,
    SetLit,
    TypeExpr,
    Unary,
)
from .lexer import tokenize

DIST_NAMES = tuple(dict.fromkeys(name for name, _ in DRAWS))

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")

# binding power of each binary operator; prefix '!' binds between '&&'
# and the comparisons, prefix '-' and '^' tighter than all of them
_POWERS = {"||": 1, "&&": 2, **dict.fromkeys(_CMP_OPS, 4),
           "+": 5, "-": 5, "*": 6, "/": 6}
_NOT_POWER = 3

MAX_DEPTH = 50


class _ParseAbort(Exception):
    pass


class _Parser:
    def __init__(self, tokens, diags):
        self.tokens = tokens
        self.diags = diags
        self.pos = 0
        self.tok = tokens[0]  # the current token, tokens[pos]
        self.depth = 0       # open brackets and blocks
        self.blocks = 0      # open blocks
        # id(expression node) -> (node, height of its tree); holding the
        # node keeps its id from being reused while the parse runs
        self.heights = {}

    # -- token plumbing ----------------------------------------------------

    def at(self, kind: str) -> bool:
        return self.tok.kind == kind

    def advance(self):
        t = self.tok
        if t.kind != "EOF":
            self.pos += 1
            self.tok = self.tokens[self.pos]
        return t

    def error(self, message: str, loc: Loc | None = None):
        self.diags.append(Diagnostic("error", "syntax", message,
                                     loc or self.tok.loc))
        raise _ParseAbort()

    def expect(self, kind: str, what: str | None = None):
        if not self.at(kind):
            expected = what or f"'{kind}'"
            self.error(f"expected {expected}, found '{self.tok.text or 'end of input'}'")
        return self.advance()

    def accept(self, kind: str):
        if self.at(kind):
            return self.advance()
        return None

    # -- nesting -------------------------------------------------------------

    def too_deep(self, loc: Loc):
        self.diags.append(Diagnostic(
            "error", "too-deep", f"nesting deeper than {MAX_DEPTH} levels",
            loc))
        raise _ParseAbort()

    def open(self, kind: str):
        """Consume an opening bracket, one level deeper."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.too_deep(self.tok.loc)
        return self.expect(kind)

    def close(self, kind: str):
        self.expect(kind)
        self.depth -= 1

    def node(self, node: Expr, *children) -> Expr:
        """Record the tree height of a new expression node."""
        height = 1 + max((self.heights.get(id(c), (c, 0))[1]
                          for c in children), default=0)
        if self.blocks + height > MAX_DEPTH:
            self.too_deep(node.loc)
        self.heights[id(node)] = node, height
        return node

    # -- model structure ----------------------------------------------------

    def model(self) -> ModelAst:
        start = self.expect("model").loc
        name = self.expect("IDENT", "model name").text
        self.expect("{")
        m = ModelAst(start, name)
        seen_state = seen_init = False
        while not self.at("}"):
            if self.at("const") or self.at("param"):
                m.consts.append(self.const_decl())
            elif self.at("record"):
                m.records.append(self.record_decl())
            elif self.at("state"):
                if seen_state:
                    self.error("duplicate state block")
                seen_state = True
                m.state_fields = self.state_block()
            elif self.at("init"):
                if seen_init:
                    self.error("duplicate init block")
                seen_init = True
                m.init = self.init_block()
            elif self.at("halt"):
                if m.halt is not None:
                    self.error("duplicate halt declaration")
                self.advance()
                self.expect("when")
                m.halt = self.expression()
                self.expect(";")
            elif self.at("law"):
                m.laws.append(self.law_decl())
            else:
                self.error("expected const, param, record, state, init, halt, "
                           "or law")
        self.expect("}")
        if not self.at("EOF"):
            self.error("unexpected input after model")
        if not seen_state:
            self.diags.append(Diagnostic("error", "syntax",
                                         "model has no state block", start))
            raise _ParseAbort()
        if not seen_init:
            self.diags.append(Diagnostic("error", "syntax",
                                         "model has no init block", start))
            raise _ParseAbort()
        if not m.laws:
            self.diags.append(Diagnostic("error", "no-laws",
                                         "model declares no laws", start))
            raise _ParseAbort()
        return m

    def const_decl(self) -> ConstDecl:
        keyword = self.advance()   # const or param
        name = self.expect("IDENT", "constant name").text
        self.expect(":")
        ty = self.type_expr()
        self.expect("=")
        value = self.expression()
        self.expect(";")
        return ConstDecl(keyword.loc, name, ty, value,
                         param=keyword.kind == "param")

    def record_decl(self) -> RecordDecl:
        loc = self.expect("record").loc
        name = self.expect("IDENT", "record name").text
        self.expect("{")
        fields = []
        while not self.at("}"):
            fields.append(self.field_decl(allow_domain=False))
        self.expect("}")
        return RecordDecl(loc, name, fields)

    def state_block(self) -> list:
        self.expect("state")
        self.expect("{")
        fields = []
        while not self.at("}"):
            fields.append(self.field_decl(allow_domain=True))
        self.expect("}")
        return fields

    def field_decl(self, allow_domain: bool) -> FieldDecl:
        name_tok = self.expect("IDENT", "field name")
        self.expect(":")
        ty = self.type_expr()
        domain = None
        if self.at("in"):
            if not allow_domain:
                self.error("domains are only allowed on state fields")
            self.advance()
            domain = self.domain_expr()
        self.expect(";")
        return FieldDecl(name_tok.loc, name_tok.text, ty, domain)

    def init_block(self) -> list:
        self.expect("init")
        self.expect("{")
        assigns = []
        while not self.at("}"):
            assigns.append(self.assignment())
        self.expect("}")
        return assigns

    def law_decl(self) -> LawDecl:
        loc = self.expect("law").loc
        name = self.expect("IDENT", "law name").text
        self.expect("{")
        self.expect("when")
        guard = self.expression()
        self.expect(";")
        self.expect("then")
        body = self.block()
        self.expect("}")
        return LawDecl(loc, name, guard, body)

    # -- statements ----------------------------------------------------------

    def block(self, braced: bool = True) -> list:
        """The statements of a block, one level deeper; an else-if is an
        unbraced block of one statement."""
        self.depth += 1
        self.blocks += 1
        if self.depth > MAX_DEPTH:
            self.too_deep(self.tok.loc)
        if braced:
            self.expect("{")
            stmts = []
            while not self.at("}"):
                stmts.append(self.statement())
            self.expect("}")
        else:
            stmts = [self.statement()]
        self.depth -= 1
        self.blocks -= 1
        return stmts

    def statement(self):
        if self.at("for"):
            loc = self.advance().loc
            var = self.expect("IDENT", "loop variable").text
            self.expect("in")
            src_tok = self.expect("IDENT", "list field name")
            body = self.block()
            return For(loc, var, Name(src_tok.loc, id=src_tok.text), body)
        if self.at("if"):
            loc = self.advance().loc
            cond = self.expression()
            then = self.block()
            orelse = []
            if self.accept("else"):
                orelse = self.block(braced=not self.at("if"))
            return If(loc, cond, then, orelse)
        if self.at("let"):
            loc = self.advance().loc
            name = self.expect("IDENT", "let name").text
            self.expect("=")
            value = self.expression()
            self.expect(";")
            return Let(loc, name, value)
        return self.assignment()

    def assignment(self) -> Assign:
        target = self.lvalue()
        self.expect("=")
        value = self.expression()
        self.expect(";")
        return Assign(target.loc, target, value)

    def lvalue(self) -> Expr:
        tok = self.expect("IDENT", "assignment target")
        return self.postfix(Name(tok.loc, id=tok.text))

    # -- types and domains -----------------------------------------------------

    def type_expr(self) -> TypeExpr:
        tok = self.expect("IDENT", "type name")
        name, loc = tok.text, tok.loc
        if name in ("vector", "cgrid"):   # lengths and dx are constants
            return TypeExpr(loc, name, self.expr_list("(", ")"))
        if name == "list":
            self.open("(")
            elem = self.type_expr()
            args = [elem]
            if self.accept(","):
                args.append(self.expression())
            self.close(")")
            return TypeExpr(loc, name, args)
        if name == "pwcollection":
            self.open("(")
            attrs = []
            while True:
                attr = self.expect("IDENT", "attribute name")
                self.expect(":")
                attrs.append((attr.text, self.type_expr()))
                if not self.accept(","):
                    break
            self.close(")")
            return TypeExpr(loc, name, attrs=attrs)
        return TypeExpr(loc, name)

    def domain_expr(self) -> DomainExpr:
        if self.at("["):
            loc = self.advance().loc
            lo = self.expression()
            self.expect(",")
            hi = self.expression()
            self.expect("]")
            return DomainExpr(loc, "interval", [lo, hi])
        if self.at("{"):
            loc = self.advance().loc
            items = [self.expression()]
            while self.accept(","):
                items.append(self.expression())
            self.expect("}")
            return DomainExpr(loc, "set", items)
        self.error("expected a domain ([lo, hi] or {v, ...})")

    # -- expressions -------------------------------------------------------------

    def expression(self, rbp: int = 0) -> Expr:
        """An expression of the operators that bind tighter than ``rbp``,
        by precedence climbing (Pratt, POPL 1973): a binary operator takes
        as its right operand what binds tighter than itself, so each is
        left-associative. A run of prefix '!' is read by a loop, and only
        where ``rbp`` binds looser than '!' (``a == !b`` is an error)."""
        if rbp < _NOT_POWER and self.at("!"):
            nots = self.prefix_locs("!")
            left = self.prefixed(nots, "!", self.expression(_NOT_POWER))
        else:
            left = self.unary_expr()
        while _POWERS.get(self.tok.kind, 0) > rbp:
            op_tok = self.advance()
            right = self.expression(_POWERS[op_tok.kind])
            if op_tok.kind in _CMP_OPS and self.tok.kind in _CMP_OPS:
                self.error("comparisons cannot be chained")
            left = self.binary(op_tok, left, right)
        return left

    def binary(self, op_tok, left, right) -> Expr:
        return self.node(Binary(op_tok.loc, op=op_tok.kind, left=left,
                                right=right), left, right)

    def prefixed(self, locs: list, op: str, operand) -> Expr:
        """``operand`` under the prefix operators at ``locs``, outermost
        first."""
        for loc in reversed(locs):
            operand = self.node(Unary(loc, op=op, operand=operand), operand)
        return operand

    def prefix_locs(self, op: str) -> list:
        locs = []
        while self.at(op):
            locs.append(self.advance().loc)
        return locs

    def unary_expr(self) -> Expr:
        """Prefix '-' binds looser than '^', which is right-associative
        (-a ^ -b ^ c is -(a ^ -(b ^ c))); both are read by a loop."""
        chain = []   # (prefix '-' locs, base, '^' token) per link
        while True:
            minus = self.prefix_locs("-")
            base = self.postfix_expr()
            if not self.at("^"):
                break
            chain.append((minus, base, self.advance()))
        node = self.prefixed(minus, "-", base)
        for minus, base, caret in reversed(chain):
            node = self.prefixed(minus, "-", self.binary(caret, base, node))
        return node

    def postfix_expr(self) -> Expr:
        return self.postfix(self.primary())

    def postfix(self, node: Expr) -> Expr:
        while True:
            if self.accept("."):
                member = self.expect("IDENT", "member name")
                node = self.node(Member(member.loc, obj=node,
                                        name=member.text), node)
            elif self.at("["):
                loc = self.open("[").loc
                idx = self.expression()
                self.close("]")
                node = self.node(Index(loc, obj=node, index=idx), node, idx)
            else:
                return node

    def primary(self) -> Expr:
        tok = self.tok
        if tok.kind in ("INT", "REAL"):
            self.advance()
            return Lit(tok.loc, value=tok.value,
                       kind="int" if tok.kind == "INT" else "real")
        if tok.kind == "IMAG":
            self.advance()
            return Lit(tok.loc, value=tok.value, kind="complex")
        if tok.kind in ("true", "false"):
            self.advance()
            return Lit(tok.loc, value=tok.value, kind="bool")
        if tok.kind == "(":
            self.open("(")
            inner = self.expression()
            self.close(")")
            return inner
        if tok.kind == "[":
            items = self.expr_list("[", "]")
            return self.node(ListLit(tok.loc, items=items), *items)
        if tok.kind == "{":
            items = self.expr_list("{", "}")
            if not items:
                self.error("value set cannot be empty", tok.loc)
            return self.node(SetLit(tok.loc, items=items), *items)
        if tok.kind == "IDENT":
            self.advance()
            if self.at("("):
                return self.call(tok)
            return Name(tok.loc, id=tok.text)
        self.error(f"expected an expression, found '{tok.text or 'end of input'}'")

    def expr_list(self, opening: str, closing: str) -> list:
        self.open(opening)
        items = []
        if not self.at(closing):
            items.append(self.expression())
            while self.accept(","):
                items.append(self.expression())
        self.close(closing)
        return items

    def call(self, name_tok) -> Expr:
        args = self.expr_list("(", ")")
        loc = name_tok.loc
        if name_tok.text == "random":
            return self.random_expr(loc, args)
        return self.node(Call(loc, func=name_tok.text, args=args), *args)

    def random_expr(self, loc, args) -> RandomExpr:
        if len(args) not in (1, 2):
            self.error("random takes (range, distribution) or (distribution)", loc)
        dist_arg = args[-1]
        range_ = args[0] if len(args) == 2 else None
        if isinstance(dist_arg, Name) and dist_arg.id in DIST_NAMES:
            dist = DistExpr(dist_arg.loc, name=dist_arg.id)
        elif isinstance(dist_arg, Call) and dist_arg.func in DIST_NAMES:
            dist = self.node(DistExpr(dist_arg.loc, name=dist_arg.func,
                                      args=dist_arg.args), *dist_arg.args)
        else:
            self.error(f"expected a distribution ({', '.join(DIST_NAMES)})",
                       dist_arg.loc)
        if range_ is not None and not isinstance(range_, (ListLit, SetLit)):
            self.error("random range must be [lo, hi] or {v, ...}", range_.loc)
        return self.node(RandomExpr(loc, range_=range_, dist=dist), *args)


def parse(source: str):
    """Parse CML source. Returns (ModelAst | None, diagnostics)."""
    tokens, diags = tokenize(source)
    if diags:
        return None, diags
    parser = _Parser(tokens, diags)
    try:
        ast = parser.model()
    except _ParseAbort:
        return None, parser.diags
    return ast, parser.diags


def parse_expression(source: str):
    """Parse a standalone expression (observables, guards built in code)."""
    tokens, diags = tokenize(source)
    if diags:
        return None, diags
    parser = _Parser(tokens, diags)
    try:
        expr = parser.expression()
        if not parser.at("EOF"):
            parser.error("unexpected input after expression")
    except _ParseAbort:
        return None, parser.diags
    return expr, parser.diags
