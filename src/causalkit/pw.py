"""Particle/wave collections: n particles x m discrete paths.

Each path assigns a definite value to every attribute of every particle
and carries one common complex amplitude. Entanglement is expressed by
putting several particles in one collection: a path fixes all of their
attributes jointly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingAttributeError

# Path attributes are scalars; kinds mirror the scalar state types.
ATTR_KINDS = ("real", "int", "bool")


@dataclass(frozen=True)
class PwPath:
    """One discrete alternative: per-particle attribute values + amplitude."""

    attrs: tuple[dict, ...]  # one {attr name: value} dict per particle
    amplitude: complex


@dataclass(frozen=True)
class PwCollection:
    attr_decls: tuple[tuple[str, str], ...]  # (name, kind) per attribute
    paths: tuple[PwPath, ...]
    normalized: bool = False

    def __post_init__(self):
        if not self.paths:
            raise ValueError("pw collection needs at least one path")
        n = len(self.paths[0].attrs)
        if n < 1:
            raise ValueError("pw collection needs at least one particle")
        names = [name for name, _ in self.attr_decls]
        for path in self.paths:
            if len(path.attrs) != n:
                raise ValueError("paths disagree on particle count")
            for particle in path.attrs:
                for name in names:
                    if name not in particle:
                        raise MissingAttributeError(
                            f"path lacks attribute '{name}'")

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    def amplitudes(self) -> np.ndarray:
        return np.array([p.amplitude for p in self.paths], dtype=complex)

    def total_weight(self) -> float:
        return float(np.sum(np.abs(self.amplitudes()) ** 2))

    def attr_array(self, name: str, particle: int = 0) -> np.ndarray:
        """Values of one attribute of one particle, across all paths."""
        if not any(name == n for n, _ in self.attr_decls):
            raise MissingAttributeError(f"no attribute '{name}'")
        return np.array([p.attrs[particle][name] for p in self.paths])
