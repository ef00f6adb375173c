"""The tokenizer against frozen digests.

``fixtures/tokens_golden.json`` maps each tracked ``.cml`` file, the
expression corpus of ``test_expr_golden`` and a list of lexical edge
cases to the SHA-256 of what ``tokenize`` gave for them on the tree taken
as the reference: every token's kind, text, value (by ``repr``, so 1,
1.0 and True differ) and ``line:col``, then every diagnostic. Pin a file
added later, before changing the lexer, with

    PYTHONPATH=src python tests/test_tokens_golden.py

which records digests only for sources not yet in the fixture and leaves
every existing entry untouched.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from test_expr_golden import generate

from causalkit.frontend.lexer import tokenize

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).parent / "fixtures" / "tokens_golden.json"

# sources whose tokens the .cml files and expressions leave unpinned
EDGE_CASES = (
    "", "   \t\r\n", "// only a comment", "x // trailing comment\n// end",
    "1.5e3 1e-3 2E+2 1e 1e+ 1.e5 1. .5 3.0i 2i 1e3i 00012 0",
    "9223372036854775807 9223372036854775808 " + "9" * 30 + " 0" * 3,
    "000000000000000000000000009223372036854775807",
    "== != <= >= && || = ! < > + - * / ^ ( ) { } [ ] , ; : .",
    "===!==&&&|||", "a|b", "a&b", "x # y $ z", "café été _x9 x_",
    "١٢ ½x ٣.٥ x²", "a\fb\vc\xa0d", "model modelx in_ true false truex",
    "a\n  b\n\tc\r\n d", "1.2.3", "1..2", "x.y.z[0]", "0x1F", "1_000",
    "let a = -b^2;", "random({0, 1}, FLAT)",
)


def token_text(source: str) -> str:
    tokens, diags = tokenize(source)
    lines = [f"{t.kind}\t{t.text}\t{t.value!r}\t{t.loc}" for t in tokens]
    lines += [f"{d.severity}\t{d.code}\t{d.message}\t{d.loc}" for d in diags]
    return "\n".join(lines)


def _digest(sources) -> str:
    h = hashlib.sha256()
    for source in sources:
        h.update(token_text(source).encode("utf-8") + b"\0")
    return h.hexdigest()


def sources() -> dict:
    """Name -> the sources it stands for."""
    out = {"expr_golden": generate(), "edge cases": list(EDGE_CASES)}
    for path in sorted(ROOT.glob("**/*.cml")):
        rel = path.relative_to(ROOT).as_posix()
        if not rel.startswith(("src/", "tests/", "cmlbench/", "docs/")):
            continue
        out[rel] = [path.read_text(encoding="utf-8")]
    return out


def _pins() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(sources()))
def test_tokens_match_the_reference(name):
    assert _digest(sources()[name]) == _pins()[name]


if __name__ == "__main__":
    pins = _pins() if FIXTURE.exists() else {}
    for name, texts in sources().items():
        pins.setdefault(name, _digest(texts))
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
