"""Each demo under `demos/` prints the same bytes as when its digest was
pinned: run it in a subprocess and compare the SHA-256 of its stdout.

A demo whose output changes on purpose is re-pinned by hand from

    PYTHONPATH=src python demos/<name>.py | sha256sum
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

DIGESTS = {
    "01_author_and_run.py":
        "7bdebfab808525ed73674b4e169a77a0703adaa3314a0b19afb4c865b03d0be3",
    "02_interference_fringes.py":
        "7353be22bccd027c4fa9a1eeae141d49669986bacd61e856546deb13d0a79252",
    "03_many_worlds.py":
        "4f097f8bcfd5fc4bd122a52a0ffdecad56b620651641b5b38e32bdfad07bf4d0",
    "04_model_checking.py":
        "d0028941b5f7ab3e7398eb6a873fc74b1f1249444efd364f32ab318100efd5f4",
    "05_wave_packet.py":
        "53d9fb39cc55a580e8fa7c6bd9d4a7240a6d65fd15ac2bae599dbbb1ac93ed8c",
    "06_entangled_collapse.py":
        "876974cea58d6c8472b5df4306321c189393eba460a9650f7e3e45e34babe92f",
    "07_automaton_toy.py":
        "4a34735efcbd1cb8ab04a508b3e5614187cbf1ae61c3eac83211450abeb3dfc2",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) \
        == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_is_unchanged(name):
    pythonpath = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                         check=True, capture_output=True, cwd=ROOT,
                         env={**os.environ, "PYTHONPATH": pythonpath}).stdout
    assert hashlib.sha256(out).hexdigest() == DIGESTS[name]
