"""Tokenizer for CML source text."""

from __future__ import annotations

from dataclasses import dataclass

from ..intrinsics import INT64_MAX
from .ast_nodes import Diagnostic, Loc

KEYWORDS = frozenset({
    "model", "const", "param", "record", "state", "init", "halt", "law",
    "when", "then", "if", "else", "for", "let", "in", "true", "false",
})

_TWO_CHAR = ("==", "!=", "<=", ">=", "&&", "||")
_ONE_CHAR = "+-*/^<>=!(){}[],;:."


@dataclass(frozen=True)
class Token:
    kind: str   # "IDENT", "INT", "REAL", "IMAG", "EOF", a keyword, or an operator
    text: str
    value: object
    loc: Loc


def tokenize(source: str) -> tuple[list, list]:
    """Return (tokens, diagnostics). Tokens end with an EOF marker."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    i, line, col = 0, 1, 1
    n = len(source)

    def loc():
        return Loc(line, col)

    while i < n:
        c = source[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if source.startswith("//", i):
            i = source.find("\n", i)
            if i < 0:
                i = n
            continue
        start_loc = loc()
        if c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "IDENT"
            value = {"true": True, "false": False}.get(text)
            tokens.append(Token(kind, text, value, start_loc))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            is_real = False
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == "." and j + 1 < n and source[j + 1].isdigit():
                is_real = True
                j += 1
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    is_real = True
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            if j < n and source[j] == "i":
                j += 1
                tokens.append(Token("IMAG", source[i:j], complex(0.0, float(text)),
                                    start_loc))
            elif is_real:
                tokens.append(Token("REAL", text, float(text), start_loc))
            # an int64 has at most 19 digits; int() refuses strings of
            # more than 4300, so longer ones are not parsed
            elif len(text.lstrip("0")) > 19 or int(text) > INT64_MAX:
                diags.append(Diagnostic(
                    "error", "bad-literal",
                    f"int literal outside int64 (largest is {INT64_MAX})",
                    start_loc))
            else:
                tokens.append(Token("INT", text, int(text), start_loc))
            col += j - i
            i = j
            continue
        two = source[i:i + 2]
        if two in _TWO_CHAR:
            tokens.append(Token(two, two, None, start_loc))
            i += 2
            col += 2
            continue
        if c in _ONE_CHAR:
            tokens.append(Token(c, c, None, start_loc))
            i += 1
            col += 1
            continue
        diags.append(Diagnostic("error", "bad-char",
                                f"unexpected character {c!r}", start_loc))
        i += 1
        col += 1

    tokens.append(Token("EOF", "", None, loc()))
    return tokens, diags
