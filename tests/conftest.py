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
