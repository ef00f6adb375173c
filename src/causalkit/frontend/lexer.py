"""Tokenizer for CML source text: one master regular expression, matched
token after token (the "Writing a Tokenizer" recipe of the ``re`` docs)."""

from __future__ import annotations

import functools
import re
import sys
from typing import NamedTuple

from ..intrinsics import INT64_MAX
from .ast_nodes import Diagnostic, Loc

KEYWORDS = frozenset({
    "model", "const", "param", "record", "state", "init", "halt", "law",
    "when", "then", "if", "else", "for", "let", "in", "true", "false",
})

# A number is digits, then a fraction only if a digit follows the '.', an
# exponent only if a digit follows the 'e' and its sign, then an optional
# imaginary 'i'. \d and \w are Unicode classes: \w is what str.isalnum()
# accepts, plus '_'.
_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<space>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?i?)
  | (?P<name>[^\W\d]\w*)
  | (?P<op>==|!=|<=|>=|&&|\|\||[-+*/^<>=!(){}\[\],;:.])
  | (?P<other>.)
""", re.VERBOSE)

_BOOLS = {"true": True, "false": False}

# Tokens at one (line, col) of different sources share one immutable Loc:
# an observable list is tokenized one observable at a time.
_loc = functools.lru_cache(maxsize=1 << 16)(Loc)


class Token(NamedTuple):
    kind: str   # "IDENT", "INT", "REAL", "IMAG", "EOF", a keyword, or an operator
    text: str
    value: object
    loc: Loc


def tokenize(source: str) -> tuple[list, list]:
    """Return (tokens, diagnostics). Tokens end with an EOF marker."""
    tokens: list[Token] = []
    diags: list[Diagnostic] = []
    add = tokens.append
    new = tuple.__new__       # a Token without NamedTuple's Python __new__
    match = _TOKEN.match
    line, line_start = 1, 0   # line_start: index of the line's first char
    pos, n = 0, len(source)
    tail = 0                  # where EOF sits; a comment does not move it
    while pos < n:
        m = match(source, pos)
        start, pos = pos, m.end()
        group = m.lastgroup
        if group == "space":
            tail = pos
            continue
        if group == "newline":
            line += 1
            line_start = tail = pos
            continue
        if group == "comment":
            continue
        tail = pos
        text = source[start:pos]
        loc = _loc(line, start - line_start + 1)
        if group == "op":
            add(new(Token, (text, text, None, loc)))
        elif group == "name" and (text[0].isalpha() or text[0] == "_"):
            add(new(Token, (text if text in KEYWORDS else "IDENT", text,
                            _BOOLS.get(text), loc)))
        elif group == "number":
            imag = text[-1] == "i"
            if imag or "." in text or "e" in text or "E" in text:
                x = float(text[:-1] if imag else text)
                if x > sys.float_info.max:   # it parsed to inf
                    diags.append(Diagnostic(
                        "error", "bad-literal",
                        f"{'imaginary' if imag else 'real'} literal "
                        f"overflows a float (largest is {sys.float_info.max})",
                        loc))
                elif imag:
                    add(new(Token, ("IMAG", text, complex(0.0, x), loc)))
                else:
                    add(new(Token, ("REAL", text, x, loc)))
            # an int64 has at most 19 digits; int() refuses strings of
            # more than 4300, so longer ones are not parsed
            elif len(text.lstrip("0")) > 19 or int(text) > INT64_MAX:
                diags.append(Diagnostic(
                    "error", "bad-literal",
                    f"int literal outside int64 (largest is {INT64_MAX})",
                    loc))
            else:
                add(new(Token, ("INT", text, int(text), loc)))
        else:
            # no token starts with this character; after a numeric one such
            # as '½', which \w takes, the scan resumes at the next character
            pos = tail = start + 1
            diags.append(Diagnostic("error", "bad-char",
                                    f"unexpected character {text[0]!r}",
                                    loc))
    add(new(Token, ("EOF", "", None, _loc(line, tail - line_start + 1))))
    return tokens, diags
