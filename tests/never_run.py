"""List the lines of ``src/causalkit`` that tier-1 never runs.

Run from the repository root:

    PYTHONPATH=src python tests/never_run.py [pytest args]

It runs tier-1 (pytest's ``testpaths``, ``tests/`` and ``cmlbench/``) in
this process under a line tracer, with hypothesis derandomized and
without its example database, so that no line's count depends on which
examples hypothesis draws. Every line of every code object compiled from
``src/causalkit/**/*.py`` counts as executable. Each one no test runs is
printed as ``path:line: text``, and the exit status is 1 if there is
any (or if a test fails), else 0. Pytest does not collect this file: its
name does not match ``test_*.py``.

The tracers are module-level functions, not closures: a closure that
returned itself would be a reference cycle in every traced frame, and
the tests that watch the cycle collector would find it.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "causalkit"

_traced: dict = {}   # co_filename -> whether it is a src/causalkit file
_run: set = set()    # (co_filename, line) of each line run


def _is_src(filename: str) -> bool:
    path = Path(os.path.realpath(filename))
    return path.suffix == ".py" and SRC in path.parents


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    traced = _traced.get(name)
    if traced is None:
        traced = _traced[name] = _is_src(name)
    if not traced:
        return None
    _run.add((name, frame.f_lineno))   # a code object's first line
    return _trace_lines


def _trace_lines(frame, event, arg):
    if event == "line":
        _run.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def executable_lines(path: Path) -> set:
    """The line numbers of every code object compiled from ``path``."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"),
                                   str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def never_run() -> list:
    """(path, line) of each executable src/causalkit line not run."""
    run: dict = {}
    for name, line in _run:
        run.setdefault(Path(os.path.realpath(name)), set()).add(line)
    return [(path, line) for path in sorted(SRC.rglob("*.py"))
            for line in sorted(executable_lines(path) - run.get(path, set()))]


class _Derandomized:
    """A pytest plugin: hypothesis draws the same examples on every run
    and keeps none between runs. Hypothesis is imported here, not before
    pytest starts, so that pytest can still rewrite its plugin."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("never-run", derandomize=True,
                                  database=None)
        settings.load_profile("never-run")


def main(args: list) -> int:
    import pytest

    if "causalkit" in sys.modules:
        raise SystemExit("causalkit was imported before tracing began")
    os.chdir(ROOT)
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args],
                             plugins=[_Derandomized])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = never_run()
    total = sum(len(executable_lines(p)) for p in SRC.rglob("*.py"))
    for path, line in missed:
        text = path.read_text(encoding="utf-8").splitlines()[line - 1]
        print(f"{path.relative_to(ROOT)}:{line}: {text.strip()}")
    print(f"{len(missed)} of {total} executable src/ lines never run")
    return 1 if missed or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
