"""Same seed, byte-identical output: replay pinned `cml` invocations and
compare the SHA-256 of their stdout with `fixtures/golden_cli.json`.

The fixture was generated from a tree whose outputs were taken as the
reference. Regenerate it only when a change is meant to alter output:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from causalkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "fixtures" / "golden_cli.json"

# argv of each pinned invocation; .cml paths are relative to the repo root
INVOCATIONS = (
    ("histogram", "builtin:double_slit", "--param", "detector=off",
     "--observables", "detected", "--trials", "2000", "--seed", "7"),
    ("histogram", "builtin:double_slit", "--param", "detector=on",
     "--observables", "detected", "--trials", "2000", "--seed", "7"),
    ("histogram", "builtin:double_slit", "--param", "detector=on",
     "--observables", "detected", "--trials", "1", "--seed", "3"),
    ("histogram", "builtin:entangled_pair", "--observables", "s1 - s2",
     "--trials", "500", "--seed", "1"),
    ("histogram", "builtin:counter", "--observables", "n", "--trials", "50",
     "--steps", "20"),
    ("histogram", "builtin:harmonic_oscillator", "--observables", "x",
     "--trials", "20", "--steps", "50", "--bins", "5"),
    ("histogram", "tests/fixtures/flat_real.cml", "--observables", "x",
     "--trials", "500", "--bins", "10", "--seed", "11"),
    ("histogram", "tests/fixtures/mixed_draws.cml", "--observables", "x",
     "--trials", "300", "--bins", "8", "--seed", "5"),
    ("histogram", "cmlbench/models/walk.cml", "--observables", "x",
     "--steps", "20", "--trials", "500", "--seed", "2"),
    ("run", "builtin:harmonic_oscillator", "--steps", "200",
     "--observables", "x,v"),
    ("branch", "builtin:entangled_pair"),
    ("run", "tests/fixtures/builtins.cml", "--observables",
     "abs(k),abs(r),abs(z),abs2(k),abs2(r),abs2(z),re(z),im(z),conj(z),"
     "exp(k),exp(r),exp(z),cos(k),cos(r),sin(k),sin(r),sqrt(n),"
     "sqrt(abs(r)),sum(v),sum(g),sum(li),sum(lr),sum(lz),len(li),len(v),"
     "len(g),laplacian(g)[3],sum(laplacian(g)),complex(k, r),complex(r, n)"),
    ("analyze", "cmlbench/models/quadrants.cml", "--strategy", "trace"),
    ("analyze", "src/causalkit/models/schrodinger_1d.cml", "--runs", "2",
     "--steps", "5"),
)


def _resolve(argv) -> list:
    return [str(ROOT / a) if a.endswith(".cml") else a for a in argv]


def invoke(argv) -> tuple:
    """Run one invocation in-process; returns (exit code, stdout digest)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_resolve(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def _golden() -> dict:
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    return {tuple(e["argv"]): e for e in entries}


def test_every_invocation_is_pinned():
    assert set(_golden()) == set(INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda a: " ".join(a[:2]))
def test_stdout_matches_golden_digest(argv):
    entry = _golden()[argv]
    assert invoke(argv) == (entry["exit"], entry["sha256"])


if __name__ == "__main__":
    records = []
    for argv in INVOCATIONS:
        code, digest = invoke(argv)
        records.append({"argv": list(argv), "exit": code, "sha256": digest})
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} digests to {GOLDEN}")
