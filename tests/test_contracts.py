"""Kit contracts: what an intrinsic declares of itself in the one function
table, and that it keeps it.

``Intrinsic.checks_result``: the kernel refuses its own non-finite
result, so a write whose value is a direct call of it is emitted with no
finiteness scan of its own."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalkit import intrinsics, load_model
from causalkit.engine import _elements_finite
from causalkit.errors import EvalError, SolveError
from causalkit.state import StateSchema, TypeDesc, VCGrid, VVector, check_value

KERNELS = """model kernels {
  state { g: cgrid(8, 0.5); h: cgrid(8, 0.5); V: vector(8); }
  init { g = gauss_packet(8, 0.5, 0.0, 1.0, 0.0); h = g; V = fill(8, 0.0); }
  law Evolve { when true; then { g = schrodinger_step(g, V, dt, 1.0, 1.0); } }
  law Lap { when false; then { h = laplacian(h); } }
}"""


def _transition(source: str, law: str) -> str:
    """The generated source of ``law``'s transition function."""
    return next(f for f in source.split("\ndef ")
                if f.partition("\n")[0].endswith(f"# law {law}"))


def test_a_checked_kernel_write_is_not_scanned_again():
    source = load_model(KERNELS).source
    assert "_elements_finite" not in _transition(source, "Evolve")
    assert "_elements_finite" in _transition(source, "Lap")


# cells and potentials that are finite, huge, or not finite at all
_NUMBERS = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([1e300, -1.5e308, 1.7976931348623157e308, np.inf,
                     -np.inf, np.nan]))


@st.composite
def _schrodinger_args(draw):
    """(argument types, arguments) of a call of schrodinger_step: a
    grid of 1 to 8 cells, its potential, and valid dt, mass and hbar."""
    n = draw(st.integers(1, 8))
    dx = draw(st.sampled_from([0.125, 0.5]))
    # each of psi and the potential is, half the time, plain
    numbers = [draw(st.sampled_from([st.floats(-2.0, 2.0), _NUMBERS]))
               for _ in range(2)]
    cells = draw(st.lists(st.tuples(numbers[0], numbers[0]), min_size=n,
                          max_size=n))
    v = draw(st.lists(numbers[1], min_size=n, max_size=n))
    dt = draw(st.sampled_from([0.01, 0.5, 1.0]))
    mass, hbar = draw(st.sampled_from([(1.0, 1.0), (-2.0, 0.5)]))
    psi = VCGrid(np.array([complex(re, im) for re, im in cells]), dx)
    types = [TypeDesc.cgrid(n, dx), TypeDesc.vector(n), *[TypeDesc.real()] * 3]
    return types, (psi, VVector(v), dt, mass, hbar)


ARGUMENTS = {"schrodinger_step": _schrodinger_args()}


def test_every_checked_kernel_has_arguments_drawn():
    assert set(ARGUMENTS) == {name for name in intrinsics.registered_names()
                              if intrinsics.get(name).checks_result}


@pytest.mark.parametrize("name", sorted(ARGUMENTS))
@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_checked_kernel_refuses_or_returns_a_finite_value(name, data):
    """Under the error state generated code runs in, each call raises
    EvalError or SolveError, or gives a value of its declared type that
    holds only finite numbers."""
    intr = intrinsics.get(name)
    types, args = data.draw(ARGUMENTS[name])
    with np.errstate(all="ignore"):
        try:
            value = intr.impl(args, None)
        except (EvalError, SolveError):
            return
    check_value(value, intr.check(types, None), StateSchema(fields={}))
    assert _elements_finite(value)
