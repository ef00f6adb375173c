"""Same seed, byte-identical output: replay pinned `cml` invocations and
compare the SHA-256 of their stdout with `fixtures/golden_cli.json`.

The fixture was generated from a tree whose outputs were taken as the
reference. After adding an invocation, pin it with

    PYTHONPATH=src python tests/test_golden_cli.py

which records digests only for invocations not yet in the fixture and
leaves every existing entry untouched. Run it before changing the
program, so the new digests come from the reference tree.
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

# second invocations of a command on one model, named apart in ``_id``
ENERGY_RUN = ("run", "builtin:harmonic_oscillator", "--observables",
              "x,v,0.5*v*v+0.5*x*x", "--steps", "300", "--dt", "0.001")
OVERLAP_SAMPLE = ("analyze", "tests/fixtures/overlap.cml", "--samples", "200")
ESCAPING_SAMPLE = ("analyze", "tests/fixtures/escaping.cml", "--samples",
                   "200")
FALLIBLE_DEPTH3 = ("branch", "tests/fixtures/fallible.cml", "--depth", "3",
                   "--width", "8", "--steps", "4")
FALLIBLE_DEPTH5 = ("branch", "tests/fixtures/fallible.cml", "--depth", "5",
                   "--width", "8", "--steps", "4")
DETECTOR_BRANCH = ("branch", "builtin:double_slit", "--param", "detector=on",
                   "--depth", "4", "--width", "64")
# the tree the benchmark's `branch` workload encodes: 1.9 MB, width-pruned
WALK_PRUNED = ("branch", "tests/fixtures/walk.cml", "--depth", "24",
               "--width", "64", "--steps", "25", "--seed", "1")
# leaves that compare equal but print apart: 0.0 and -0.0 at one depth, in
# a real and in both parts of a complex, next to a bool drawn by FLAT
SIGNED_ZERO = ("branch", "tests/fixtures/signed_zero.cml", "--depth", "8",
               "--width", "64")
# the bundled models with parameters, pinned before they became .cml files
SLIT_OFF_BRANCH = ("branch", "builtin:double_slit", "--param", "bins=8",
                   "--depth", "2")
SLIT_ALL_PARAMS = ("branch", "builtin:double_slit", "--param", "detector=on",
                   "--param", "bins=4", "--param", "halfwidth=30",
                   "--param", "separation=2.5", "--param", "distance=80",
                   "--param", "k=3.5", "--depth", "4")
QFTCA_PARAMS = ("branch", "builtin:qftca_toy", "--param", "cells=5",
                "--param", "alpha=0.35", "--steps", "3")
SLIT_K_HISTOGRAM = ("histogram", "builtin:double_slit", "--param", "bins=16",
                    "--param", "k=3.0", "--observables", "detected",
                    "--trials", "500", "--seed", "4")
SLIT_ANALYZE = ("analyze", "builtin:double_slit", "--runs", "2", "--steps",
                "5")
QFTCA_ANALYZE = ("analyze", "builtin:qftca_toy", "--runs", "2", "--steps",
                 "5")
# the benchmark's `analyze` model sampled at three seeds; 5,000 samples
# cross a 4,096-key chunk of the sampler
QUADRANTS_SAMPLES = tuple(
    ("analyze", "cmlbench/models/quadrants.cml", "--samples", samples,
     "--seed", seed)
    for samples, seed in (("1500", "1"), ("300", "2"), ("5000", "3")))
# the first overlapping state is sampled state 6,172, past the first chunk
RARE_OVERLAP = ("analyze", "tests/fixtures/rare_overlap.cml", "--samples",
                "8000", "--seed", "5")
# a guard that raises where the law before it holds (strict trace runs end
# eval-error, first-match runs go on), and one that raises only at halting
# states; both under sample and trace
GUARD_ERROR = tuple(
    ("analyze", f"tests/fixtures/{name}.cml", "--strategy", kind, *budget,
     "--seed", "3")
    for name in ("guard_error", "halt_guard_error")
    for kind, budget in (("sample", ("--samples", "200")),
                         ("trace", ("--runs", "4", "--steps", "10"))))
TWO_COIN_ENUMERATE = ("analyze", "tests/fixtures/two_coin.cml", "--strategy",
                      "enumerate")
# 50 trials: the trie memo must hold the whole ensemble
SLIT_SMALL_HISTOGRAM = ("histogram", "builtin:double_slit", "--param",
                        "detector=on", "--observables", "detected",
                        "--trials", "50", "--seed", "0")
NAMED = {
    ENERGY_RUN: "run builtin:harmonic_oscillator energy",
    OVERLAP_SAMPLE: "analyze tests/fixtures/overlap.cml sample",
    ESCAPING_SAMPLE: "analyze tests/fixtures/escaping.cml sample",
    FALLIBLE_DEPTH3: "branch tests/fixtures/fallible.cml depth 3",
    FALLIBLE_DEPTH5: "branch tests/fixtures/fallible.cml depth 5",
    DETECTOR_BRANCH: "branch builtin:double_slit detector on",
    WALK_PRUNED: "branch tests/fixtures/walk.cml pruned",
    SIGNED_ZERO: "branch tests/fixtures/signed_zero.cml",
    SLIT_OFF_BRANCH: "branch builtin:double_slit detector off",
    SLIT_ALL_PARAMS: "branch builtin:double_slit every parameter",
    QFTCA_PARAMS: "branch builtin:qftca_toy cells and alpha",
    SLIT_K_HISTOGRAM: "histogram builtin:double_slit bins and k",
    SLIT_ANALYZE: "analyze builtin:double_slit",
    QFTCA_ANALYZE: "analyze builtin:qftca_toy",
    **{argv: f"analyze cmlbench/models/quadrants.cml sample seed {argv[-1]}"
       for argv in QUADRANTS_SAMPLES},
    RARE_OVERLAP: "analyze tests/fixtures/rare_overlap.cml",
    **{argv: f"analyze {argv[1]} {argv[3]}" for argv in GUARD_ERROR},
    TWO_COIN_ENUMERATE: "analyze tests/fixtures/two_coin.cml enumerate",
    SLIT_SMALL_HISTOGRAM: "histogram builtin:double_slit 50 trials",
}

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
    ENERGY_RUN,
    ("run", "builtin:qftca_toy", "--param", "cells=12", "--observables",
     "world.particles[0].vel + world.particles[1].vel", "--steps", "300"),
    ("run", "builtin:schrodinger_1d", "--steps", "20", "--record-every", "20",
     "--observables", "psi[0],psi[255],psi[511]"),
    ("branch", "cmlbench/models/walk.cml", "--depth", "10", "--width", "16",
     "--steps", "11"),
    ("run", "tests/fixtures/language.cml", "--observables",
     "n,j,k,x,y,z,flag,hits,v[0],v[3],g[0],g[3],li[0],li[3],lr[0],lr[2],"
     "lz[0],lz[1],flag == on,n != 2.5,-x,!flag,-z,abs(x) ^ 0.5,k ^ 2,n / 4,"
     "y == -2.5"),
    ("run", "tests/fixtures/overlap.cml", "--format", "jsonl"),
    ("run", "tests/fixtures/escaping.cml", "--format", "jsonl", "--steps",
     "5"),
    ("run", "builtin:counter", "--format", "jsonl", "--record-every", "3",
     "--steps", "20"),
    ("branch", "tests/fixtures/two_coin.cml"),
    ("analyze", "tests/fixtures/overlap.cml", "--strategy", "trace",
     "--runs", "6", "--steps", "30", "--seed", "3"),
    ("analyze", "tests/fixtures/escaping.cml", "--strategy", "trace",
     "--runs", "10", "--steps", "10", "--seed", "2"),
    # every scalar kind inside serialized states
    ("branch", "tests/fixtures/language.cml", "--steps", "2"),
    ("branch", "builtin:qftca_toy", "--param", "cells=8", "--steps", "2"),
    OVERLAP_SAMPLE,
    ESCAPING_SAMPLE,
    # two categorical draws in one step: a depth cut mid-step, eval-error
    # and multiple-applicable leaves, and width pruning
    FALLIBLE_DEPTH3,
    FALLIBLE_DEPTH5,
    DETECTOR_BRANCH,
    WALK_PRUNED,
    SIGNED_ZERO,
    # a potential that alternates every step: two Crank-Nicolson operators
    ("run", "tests/fixtures/toggle_well.cml", "--dt", "0.05", "--steps", "40",
     "--record-every", "8", "--observables", "k,sum(V),psi[0],psi[32]"),
    SLIT_OFF_BRANCH,
    SLIT_ALL_PARAMS,
    QFTCA_PARAMS,
    SLIT_K_HISTOGRAM,
    SLIT_ANALYZE,
    QFTCA_ANALYZE,
    # the draw forms the models above leave unpinned: PSI, unbounded and
    # truncated GAUSS, and every form whose parameters read the state
    ("branch", "tests/fixtures/psi_draw.cml"),
    ("histogram", "tests/fixtures/psi_draw.cml", "--observables", "outcome",
     "--trials", "1000", "--seed", "3"),
    ("run", "tests/fixtures/gauss_draw.cml", "--observables", "x,y"),
    ("run", "tests/fixtures/truncated_gauss.cml", "--observables", "x,y"),
    ("run", "tests/fixtures/varying_draws.cml", "--observables", "k,x,b,n"),
    ("histogram", "tests/fixtures/varying_draws.cml", "--observables", "k",
     "--trials", "200", "--seed", "9"),
    *QUADRANTS_SAMPLES,
    RARE_OVERLAP,
    *GUARD_ERROR,
    TWO_COIN_ENUMERATE,
    SLIT_SMALL_HISTOGRAM,
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


def _id(argv) -> str:
    """Test id: command and model (pytest numbers repeated ids)."""
    if argv in NAMED:
        return NAMED[argv]
    return " ".join(argv[:2])


@pytest.mark.parametrize("argv", INVOCATIONS, ids=_id)
def test_stdout_matches_golden_digest(argv):
    entry = _golden()[argv]
    assert invoke(argv) == (entry["exit"], entry["sha256"])


if __name__ == "__main__":
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    pinned = {tuple(e["argv"]) for e in records}
    for argv in INVOCATIONS:
        if argv not in pinned:
            code, digest = invoke(argv)
            records.append({"argv": list(argv), "exit": code,
                            "sha256": digest})
            print("added:", " ".join(argv))
    GOLDEN.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    print(f"{len(records) - len(pinned)} added, {len(pinned)} kept in {GOLDEN}")
