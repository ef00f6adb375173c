from __future__ import annotations

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
BROKEN = FIXTURES / "broken"


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
    from causalkit.state import VList, VRecord

    if isinstance(value, VList):
        return [typed(v) for v in value.items]
    if isinstance(value, VRecord):
        return (value.record, {k: typed(v) for k, v in value.fields.items()})
    return (type(value).__name__, value)


def ca_world_value(phi, particles=(), alpha=0.2):
    """A CaWorld record with the field ``phi`` and one CaParticle per
    (id, pos, vel) or (id, pos, vel, species) tuple."""
    from causalkit.state import VList, VRecord, VVector

    def particle(id, pos, vel, species=0):
        return VRecord("CaParticle", {"id": id, "pos": pos, "vel": vel,
                                      "species": species})
    return VRecord("CaWorld", {"phi": VVector(phi),
                               "particles": VList([particle(*p)
                                                   for p in particles]),
                               "alpha": alpha})


def ca_particles(world):
    """[pos, vel] of each particle of a CaWorld record."""
    return [[p.fields["pos"], p.fields["vel"]]
            for p in world.fields["particles"].items]


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
    return [apply_law(law, s, 1.0, rng).values["x"] for _ in range(n)]
