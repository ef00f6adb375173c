"""Particle/wave collections: n particles x m discrete paths.

Each path assigns a definite value to every attribute of every particle
and carries one common complex amplitude. Entanglement is expressed by
putting several particles in one collection: a path fixes all of their
attributes jointly.

A collection is stored by columns: one complex128 amplitude per path and,
per attribute, one array shaped (paths, particles) in its kind's dtype.
The arrays are read-only, so collections share them instead of copying.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingAttributeError, TypeMismatchError

# Path attributes are scalars; kinds mirror the scalar state types.
ATTR_KINDS = ("real", "int", "bool")

# the dtype of each attribute kind, and the numpy dtype kinds that may be
# converted to it (a conversion must keep every value)
_DTYPES = {"real": np.float64, "int": np.int64, "bool": np.bool_}
_SOURCES = {"real": "fiu", "int": "iu", "bool": "b"}


def _frozen(values, dtype) -> np.ndarray:
    """A read-only array is shared; anything else is copied and frozen."""
    a = np.asarray(values, dtype=dtype)
    if a.flags.writeable:
        a = a.copy()
        a.setflags(write=False)
    return a


def _column(values, name: str, kind: str) -> np.ndarray:
    """``values`` as a read-only array of ``kind``'s dtype; TypeMismatchError
    names the first value that does not convert to it exactly."""
    raw = np.asarray(values)
    dtype = _DTYPES.get(kind)   # None for a kind that is not an attribute's
    if raw.dtype != dtype:
        if dtype is not None and raw.dtype.kind in _SOURCES[kind]:
            lost = raw.astype(dtype) != raw
        else:
            lost = np.ones(raw.shape, dtype=bool)
        if lost.any():
            raise TypeMismatchError(name, kind, repr(raw[lost].tolist()[0]))
    return _frozen(raw, dtype)


@dataclass(frozen=True, eq=False)
class PwCollection:
    attr_decls: tuple[tuple[str, str], ...]  # (name, kind) per attribute
    amps: np.ndarray      # (paths,) complex128
    columns: dict         # attribute name -> (paths, particles) array
    normalized: bool = False   # carried into JSON as it is

    def __post_init__(self):
        amps = _frozen(self.amps, np.complex128)
        if amps.ndim != 1 or len(amps) == 0:
            raise ValueError("pw collection needs at least one path")
        columns = {}
        for name, kind in self.attr_decls:
            if name not in self.columns:
                raise MissingAttributeError(f"path lacks attribute '{name}'")
            columns[name] = _column(self.columns[name], name, kind)
        shapes = sorted({col.shape for col in columns.values()})
        if (len(shapes) != 1 or len(shapes[0]) != 2
                or shapes[0][0] != len(amps) or shapes[0][1] < 1):
            raise ValueError(f"attribute arrays must share one shape "
                             f"({len(amps)} paths, particles >= 1), "
                             f"got {shapes}")
        if len(self.columns) != len(columns):
            raise TypeMismatchError("path attributes", list(columns),
                                    list(self.columns))
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "columns", columns)

    @property
    def n_paths(self) -> int:
        return len(self.amps)

    def amplitudes(self) -> np.ndarray:
        return self.amps

    def collapsed(self, idx: int) -> PwCollection:
        """Path ``idx`` alone, its phase kept and its modulus made 1. The
        columns are read-only views of this collection's, which
        ``__post_init__`` has checked, so no check runs again."""
        amp = complex(self.amps[idx])   # Python's complex division, not numpy's
        amps = np.array([amp / abs(amp)])
        amps.setflags(write=False)
        one = object.__new__(PwCollection)
        one.__dict__.update(attr_decls=self.attr_decls, amps=amps,
                            columns={name: col[idx:idx + 1]
                                     for name, col in self.columns.items()},
                            normalized=True)
        return one

    def attr_array(self, name: str, particle: int = 0) -> np.ndarray:
        """Values of one attribute of one particle, across all paths."""
        col = self.columns.get(name)
        if col is None:
            raise MissingAttributeError(f"no attribute '{name}'")
        return col[:, particle]
