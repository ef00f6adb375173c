from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
BROKEN = FIXTURES / "broken"
# the directory the suite imports causalkit from: src/, or site-packages
# when the suite runs against an installed package. A child process is
# given it as PYTHONPATH, so that it runs the same package
PACKAGE_PATH = str(Path(importlib.util.find_spec("causalkit").origin)
                   .parents[1])


def fixture_source(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def load_fixture_model():
    from causalkit import load_model

    def _load(name: str):
        return load_model(fixture_source(name))

    return _load


def typed(value):
    """``value`` with the exact Python type of every scalar payload made
    explicit, so that ``==`` tells 1 from 1.0 and True from 1."""
    from causalkit.state import VRecord

    if type(value) is tuple:
        return [typed(v) for v in value]
    if isinstance(value, VRecord):
        return (value.record, {k: typed(v) for k, v in value.fields.items()})
    return (type(value).__name__, value)


def ca_world_value(phi, particles=(), alpha=0.2):
    """A CaWorld record with the field ``phi`` and one CaParticle per
    (id, pos, vel) or (id, pos, vel, species) tuple."""
    from causalkit.state import VRecord, VVector

    def particle(id, pos, vel, species=0):
        return VRecord("CaParticle", {"id": id, "pos": pos, "vel": vel,
                                      "species": species})
    return VRecord("CaWorld", {"phi": VVector(phi),
                               "particles": tuple(particle(*p)
                                                  for p in particles),
                               "alpha": alpha})


def ca_particles(world):
    """[pos, vel] of each particle of a CaWorld record."""
    return [[p.fields["pos"], p.fields["vel"]]
            for p in world.fields["particles"]]


def ca_momentum(world) -> int:
    return sum(vel for _, vel in ca_particles(world))


def draw_model(draw: str, kind: str = "real"):
    """A one-law model whose transition writes ``draw`` to ``x``."""
    from causalkit import load_model

    return load_model(f"model draw {{ state {{ x: {kind}; }} init {{ x = 0; }} "
                      f"law Draw {{ when true; then {{ x = {draw}; }} }} }}")


def draws(model, rng, n: int) -> list:
    """``x`` after each of ``n`` applications of the model's one law to
    its initial state, all drawing from ``rng``."""
    from causalkit import apply_law, build_initial_state

    law, s = model.laws[0], build_initial_state(model)
    return [apply_law(model, law, s, 1.0, rng).values["x"] for _ in range(n)]


# --- oracles: exact comparisons that only tests make ---------------------------


class SchemaMismatchError(Exception):
    """``deep_equal`` was given two states that do not share a schema."""


def deep_equal(a, b, tol: float = 0.0) -> bool:
    """Field-by-field equality of two states; floats compared within
    absolute tolerance."""
    if a.schema is not b.schema and a.schema != b.schema:
        raise SchemaMismatchError("states have different schemas")
    if not _close(a.time, b.time, tol):
        return False
    return all(_value_equal(a.values[n], b.values[n], tol)
               for n in a.schema.fields)


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def _value_equal(a, b, tol: float) -> bool:
    import numpy as np
    from causalkit.pw import PwCollection
    from causalkit.state import VCGrid, VRecord, VVector

    if type(a) is not type(b):
        return False
    if type(a) in (int, bool):
        return a == b
    if type(a) is float:
        return _close(a, b, tol)
    if type(a) is complex:
        return abs(a - b) <= tol
    if isinstance(a, VVector):
        return _arrays_close(a.values, b.values, tol)
    if isinstance(a, VCGrid):
        return a.dx == b.dx and _arrays_close(a.amps, b.amps, tol)
    if type(a) is tuple:
        return (len(a) == len(b)
                and all(_value_equal(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, VRecord):
        return (a.record == b.record and set(a.fields) == set(b.fields)
                and all(_value_equal(v, b.fields[k], tol)
                        for k, v in a.fields.items()))
    if isinstance(a, PwCollection):   # reals within tol, the rest exactly
        return (a.attr_decls == b.attr_decls
                and _arrays_close(a.amps, b.amps, tol)
                and all(_arrays_close(a.columns[n], b.columns[n], tol)
                        if k == "real"
                        else np.array_equal(a.columns[n], b.columns[n])
                        for n, k in a.attr_decls))
    raise TypeError(f"unsupported value type {type(a)!r}")


def _arrays_close(x, y, tol: float) -> bool:
    import numpy as np

    return x.shape == y.shape and bool(np.all(np.abs(x - y) <= tol))


def total_weight(pw) -> float:
    """The sum of a pw collection's Born weights, |amplitude|^2."""
    import numpy as np

    return float(np.sum(np.abs(pw.amps) ** 2))
