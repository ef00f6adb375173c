"""Numeric kits: 1D Schrodinger evolution, particle/wave collection
operations, and a toy cellular-automaton world.

Importing this module registers the corresponding CML intrinsics
(schrodinger_step, pw_propagate, pw_interact, pw_detect, ca_step,
gauss_packet, fill, two_slit, pw_spins, pw_spin, ca_world).
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from . import intrinsics
from .errors import (
    EvalError,
    MissingAttributeError,
    PositionOutOfBinsError,
    SolveError,
    ZeroNormError,
)
from .engine import entry_point
from .intrinsics import Intrinsic, IntrinsicTypeError, neighbour_sum
from .pw import PwCollection
from .state import MAX_CELLS, TypeDesc, VCGrid, VRecord, VVector

# --- 1D Schrodinger evolution ----------------------------------------------------


def gaussian_packet(n: int, dx: float, x0: float = 0.0, sigma: float = 1.0,
                    k0: float = 0.0) -> VCGrid:
    """Normalized Gaussian wave packet centered at x0 with wavenumber k0.

    Grid coordinates run from -(n//2)*dx, so the packet should fit well
    inside the box to avoid periodic wrap-around.
    """
    x = (np.arange(n) - n // 2) * dx
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    return VCGrid(psi, dx)


def grid_coordinates(n: int, dx: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * dx


# Factored Crank-Nicolson operators kept at once: a fixed potential uses
# one, a potential that alternates between two values two.
CN_CACHE_SIZE = 8
# ((grid length, dx, mass, hbar, dt), potential bytes, operator) of the
# operators last used, the latest first
_cn_operators: list = []


@functools.cache
def _gt_lapack():
    """LAPACK ``zgttrf`` and ``zgttrs``, loaded on first use.

    They come from scipy's compiled LAPACK module,
    ``scipy/linalg/_flapack<EXT_SUFFIX>``, loaded straight from its file:
    importing scipy.linalg would cost about 0.35 s and 16 MiB more, and
    only the Crank-Nicolson solve needs these two routines. They are the
    objects ``get_lapack_funcs(("gttrf", "gttrs"))`` gives for a complex
    array. If the module is loaded already, or the file is not at that
    path, the ordinary import gives the same module.
    """
    import scipy
    name = "scipy.linalg._flapack"
    paths = (os.path.join(scipy.__path__[0], "linalg", "_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    path = next((p for p in paths if os.path.isfile(p)), None)
    if name in sys.modules or path is None:
        from scipy.linalg import _flapack as flapack
    else:
        loader = importlib.machinery.ExtensionFileLoader(name, path)
        spec = importlib.util.spec_from_file_location(name, path,
                                                      loader=loader)
        flapack = importlib.util.module_from_spec(spec)
        loader.exec_module(flapack)
        # keep it out of sys.modules, so that a later import of
        # scipy.linalg loads it as usual (with the same functions) and
        # binds it as scipy.linalg._flapack
        sys.modules.pop(name, None)
    return flapack.zgttrf, flapack.zgttrs


def _cyclic_solver(diag, off, corner):
    """Factor A, tridiagonal with constant off-diagonal ``off`` plus periodic
    corner entries ``corner``, and return the solver rhs -> A^-1 rhs.

    For n >= 3 the corners are a rank-one update of a tridiagonal matrix
    (Sherman-Morrison; Press et al., Numerical Recipes, section 2.7). LAPACK
    ``gttrf`` + ``gttrs`` run the elimination of ``gtsv``, so a solve gives
    the bytes of a fresh ``solve_banded`` on the same bands.
    """
    n = len(diag)
    if n < 3:
        a = np.diag(diag).astype(complex)
        for i in range(n):
            a[i, (i + 1) % n] += off
            a[i, (i - 1) % n] += corner if n == 1 else off

        def solve_dense(rhs):
            try:
                return np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError as exc:
                raise SolveError(str(exc))
        return solve_dense
    gttrf, gttrs = _gt_lapack()
    gamma = -diag[0]
    dmod = diag.astype(complex)
    dmod[0] -= gamma
    dmod[-1] -= corner * corner / gamma
    band = np.full(n - 1, off, dtype=complex)
    dl, d, du, du2, ipiv, info = gttrf(band, dmod, band)
    if info != 0:
        raise SolveError("singular matrix")
    if not np.isfinite(d).all():
        raise SolveError("non-finite tridiagonal factor")
    u = np.zeros(n, dtype=complex)
    u[0] = gamma
    u[-1] = corner
    z, _ = gttrs(dl, d, du, du2, ipiv, u)
    ratio = corner / gamma
    denom = 1.0 + (z[0] + ratio * z[-1])
    if denom == 0:
        raise SolveError("singular cyclic system")

    def solve(rhs):   # overwrites rhs
        y, _ = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
        y -= z * ((y[0] + ratio * y[-1]) / denom)
        return y
    return solve


def _cn_operator(n, dx, mass, hbar, dt, v):
    """The psi-independent part of a Crank-Nicolson step: the right-hand
    diagonal 1 - sigma*hdiag, the off-diagonal sigma*hoff and the solver of
    the left-hand matrix. An operator is found again by comparing the
    potential's bytes, not by hashing them: on 2 vCPU, hashing the 4 KiB of
    512 cells takes about 1.4 us, comparing them about 0.1 us. The
    constants and the potential are checked, before any arithmetic, only
    when an operator is built: one found again was built from equal ones."""
    key, v_bytes = (n, dx, mass, hbar, dt), v.tobytes()
    for i, entry in enumerate(_cn_operators):
        if entry[0] == key and entry[1] == v_bytes:
            if i:
                _cn_operators.insert(0, _cn_operators.pop(i))
            return entry[2]
    if not (dt > 0):
        raise ValueError("dt must be positive")
    for name, x in (("dx", dx), ("mass", mass), ("hbar", hbar)):
        if x == 0 or not math.isfinite(x):
            raise ValueError(f"{name} must be finite and non-zero, got {x}")
    if not np.isfinite(v).all():
        raise SolveError("non-finite potential")
    kin = hbar ** 2 / (2.0 * mass * dx ** 2)
    hdiag = 2.0 * kin + v
    hoff = -kin
    sigma = 1j * dt / (2.0 * hbar)
    off = sigma * hoff
    coef = 1.0 - sigma * hdiag
    coef.setflags(write=False)   # shared by every step that hits the cache
    operator = coef, off, _cyclic_solver(1.0 + sigma * hdiag, off, off)
    _cn_operators.insert(0, (key, v_bytes, operator))
    del _cn_operators[CN_CACHE_SIZE:]
    return operator


@entry_point
def schrodinger_step(grid: VCGrid, potential, dt: float, mass: float = 1.0,
                     hbar: float = 1.0) -> VCGrid:
    """One Crank-Nicolson step with periodic boundary.

    The Cayley form (1 + i dt H / 2hbar)^-1 (1 - i dt H / 2hbar) is
    unitary for Hermitian H, so the norm is conserved to solver roundoff;
    a negative mass or hbar keeps it so. The operator is factored once
    per (grid, constants, dt, potential). A dt that is not positive, or
    a zero or non-finite dx, mass or hbar, is a ValueError. A non-finite
    potential is a SolveError before any arithmetic; a non-finite psi, or
    a step whose result is not finite, is one after it (see
    ``_cn_solve``). An entry point, as the kit's call is made inside one,
    so the caller's numpy error state changes no result or text.
    """
    v = np.asarray(potential, dtype=float)
    psi = grid.amps
    if len(v) != len(psi):
        raise ValueError("potential grid length does not match psi")
    operator = _cn_operator(len(psi), grid.dx, mass, hbar, dt, v)
    return _cn_solve(grid, operator)


def _cn_rhs(psi, coef, off):
    """(1 - i dt H / 2hbar) psi: coef * psi - off * (psi[i - 1] + psi[i + 1]),
    in place."""
    rhs = coef * psi
    neighbours = neighbour_sum(psi)
    neighbours *= off
    rhs -= neighbours
    return rhs


def _cn_solve(grid: VCGrid, operator) -> VCGrid:
    """``grid`` advanced by a ``_cn_operator``. psi is not scanned: only
    the result is, once. A non-finite psi or right-hand side always makes
    the result non-finite through the solve, so a result that is not finite
    is a SolveError named for its first cause: a non-finite psi, else a
    non-finite right-hand side (computed again), else the solve."""
    coef, off, solve = operator
    psi = grid.amps
    y = solve(_cn_rhs(psi, coef, off))
    if not np.isfinite(y.view(float)).all():   # both parts of each cell
        if not np.isfinite(psi).all():
            raise SolveError("non-finite wavefunction")
        if not np.isfinite(_cn_rhs(psi, coef, off)).all():
            raise SolveError("non-finite right-hand side")
        raise SolveError("non-finite solution")
    return VCGrid(y, grid.dx)


# --- particle/wave collections -----------------------------------------------------


def two_slit(bins: int, half_width: float, separation: float,
             distance: float, wavenumber: float) -> PwCollection:
    """The two-path collection of a double slit: for each of ``bins``
    screen bins on [-half_width, half_width], one path through each slit.

    The phase of each alternative is wavenumber times the straight-line
    length from the slit to the bin center; moduli are equal. A position
    or amplitude that is not finite is refused.
    """
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        edges = np.linspace(-half_width, half_width, bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        slit_y = np.array([-0.5 * separation, 0.5 * separation])
        lengths = np.sqrt(distance ** 2
                          + (centers[None, :] - slit_y[:, None]) ** 2)
        amps = np.exp(1j * wavenumber * lengths) / math.sqrt(2 * bins)
    # path 2b + s goes through slit s to bin b
    amps, positions = amps.T.ravel(), np.repeat(centers, 2)[:, None]
    _refuse_non_finite("two_slit", "position", positions)
    _refuse_non_finite("two_slit", "amplitude", amps)
    return PwCollection((("slit", "int"), ("position", "real")), amps,
                        {"slit": np.tile([[0], [1]], (bins, 1)),
                         "position": positions},
                        normalized=True)


def _refuse_non_finite(kernel: str, name: str, values: np.ndarray):
    """EvalError naming the first path whose ``name`` is not finite: a
    collection holds no such value, so no kernel draws from one."""
    if not np.isfinite(values).all():
        at = tuple(np.argwhere(~np.isfinite(values))[0])
        raise EvalError(f"{kernel}: non-finite {name} {values[at]} "
                        f"on path {at[0]}")


def pw_spins(paths) -> PwCollection:
    """Equal-amplitude paths, each giving one spin per particle."""
    amp = complex(1.0 / math.sqrt(len(paths)))
    return PwCollection((("spin", "int"),), [amp] * len(paths),
                        {"spin": paths}, normalized=True)


def pw_propagate(pw: PwCollection, dt: float) -> PwCollection:
    """Advance every particle's position by velocity * dt on each path;
    amplitudes are unchanged. A position that overflows is refused."""
    columns = pw.columns
    if "position" not in columns or "velocity" not in columns:
        raise MissingAttributeError(
            "propagation needs 'position' and 'velocity' attributes")
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        moved = columns["position"] + columns["velocity"] * dt
    _refuse_non_finite("pw_propagate", "position", moved)
    return PwCollection(pw.attr_decls, pw.amps,
                        {**columns, "position": moved},
                        normalized=pw.normalized)


def pw_interact(pw: PwCollection, rng):
    """Realize an interaction: draw one path with Born weights and collapse.

    Returns (selected path index, collapsed one-path collection). The
    survivor keeps its phase with modulus renormalized to 1; since a path
    fixes the attributes of all particles jointly, entangled correlations
    survive the collapse. A replayed draw (``rng.replayed()``) computes no
    weights.
    """
    idx = rng.replayed()
    if idx is None:
        weights = np.abs(pw.amps) ** 2
        total = weights.sum()
        if total <= 0:
            raise ZeroNormError("all path amplitudes vanish")
        idx = rng.categorical(weights / total)
    return idx, pw.collapsed(idx)


def pw_detect(pw: PwCollection, bin_edges, rng, coherent: bool = True) -> int:
    """Draw the detection bin for the collection's position attribute.

    coherent: bin probability proportional to |sum of amplitudes landing
    in the bin|^2 (indistinguishable alternatives interfere). marked
    (coherent=False): proportional to the sum of |amplitude|^2 per bin
    (which-path information exists, interference is lost).
    """
    edges = np.asarray(bin_edges, dtype=float)
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    lo, hi = edges[0], edges[-1]
    if not lo < hi:
        raise PositionOutOfBinsError(f"empty detection range [{lo}, {hi}]")
    positions = pw.attr_array("position")
    # fmin and fmax skip NaN, as the comparisons ``positions < lo`` do
    if np.fmin.reduce(positions) < lo or np.fmax.reduce(positions) > hi:
        raise PositionOutOfBinsError(f"path positions outside [{lo}, {hi}]")
    idx = np.searchsorted(edges, positions, side="right") - 1
    idx = np.minimum(idx, len(edges) - 2)
    amps = pw.amps
    nbins = len(edges) - 1
    if coherent:
        binamps = (np.bincount(idx, weights=amps.real, minlength=nbins)
                   + 1j * np.bincount(idx, weights=amps.imag, minlength=nbins))
        probs = np.abs(binamps) ** 2
    else:
        probs = np.bincount(idx, weights=np.abs(amps) ** 2, minlength=nbins)
    total = probs.sum()
    if total <= 0:
        raise ZeroNormError("all detection probabilities vanish")
    return int(rng.categorical(probs / total))


# --- toy cellular automaton ---------------------------------------------------------


def ca_step(world: VRecord) -> VRecord:
    """One automaton step on a world record: diffuse the field, move
    particles, and exchange velocities when two or more particles land in
    the same cell.

    Velocity exchange permutes velocities within a cell (reversal over the
    id-sorted occupants), so total momentum is conserved exactly. Fields
    other than phi, pos and vel are carried over unchanged. A field that
    overflows is refused (EvalError), as no state may hold one. Like
    laplacian, it enters no np.errstate: the entry points that run model
    code hold one for their whole call.
    """
    fields = world.fields
    phi = fields["phi"].values
    # phi + alpha * (neighbour_sum(phi) - 2 phi), in place: + and * commute
    # exactly, so the operations and operands are the same
    phi1 = neighbour_sum(phi)
    phi1 -= 2.0 * phi
    phi1 *= fields["alpha"]
    phi1 += phi
    if not all(map(math.isfinite, phi1.tolist())):   # cheapest on few cells
        i = int(np.flatnonzero(~np.isfinite(phi1))[0])
        raise EvalError(f"ca_step: non-finite phi value {phi1[i]} "
                        f"at index {i}")
    n = len(phi)
    particles = fields["particles"]
    vel, pos = [], []
    for p in particles:
        f = p.fields
        v = f["vel"]
        vel.append(v)
        pos.append((f["pos"] + v) % n)
    if len(set(pos)) < len(pos):   # some cell holds two or more particles
        by_cell: dict = {}
        for i, cell in enumerate(pos):
            by_cell.setdefault(cell, []).append(i)
        for members in by_cell.values():
            if len(members) < 2:
                continue
            members.sort(key=lambda i: particles[i].fields["id"])
            vels = [vel[i] for i in members]
            for i, v in zip(members, reversed(vels)):
                vel[i] = v
    moved = tuple([VRecord(p.record, {**p.fields, "pos": x, "vel": v})
                   for p, x, v in zip(particles, pos, vel)])
    return VRecord(world.record, {**fields, "phi": VVector(phi1),
                                  "particles": moved})


def ca_world(cells: int, alpha: float) -> VRecord:
    """A zero field and two particles approaching head-on; on a 10-cell
    ring they meet after three steps. A non-finite alpha is refused."""
    if not math.isfinite(alpha):
        raise EvalError(f"ca_world: non-finite alpha {alpha}")
    particles = tuple(
        VRecord("CaParticle", {"id": i, "pos": pos % cells, "vel": vel,
                               "species": 0})
        for i, pos, vel in ((1, 2, 1), (2, 8, -1)))
    return VRecord("CaWorld", {"phi": VVector(np.zeros(cells)),
                               "particles": particles, "alpha": alpha})


# --- intrinsic registration ----------------------------------------------------------


def _want(cond: bool, msg: str):
    if not cond:
        raise IntrinsicTypeError(msg)


def _want_cells(n, name: str = "n", least: int = 1):
    _want(isinstance(n, int) and n >= least,
          f"{name} must be an int constant >= {least}")
    _want(n <= MAX_CELLS, f"{name} must be at most {MAX_CELLS} cells")


def _is_real(td) -> bool:
    return td.kind in ("int", "real")


def _check_schrodinger(args, ctx):
    psi, v = args[0], args[1]
    _want(psi.kind == "cgrid", "first argument must be a cgrid")
    _want(v.kind == "vector", "potential must be a vector")
    _want(v.length == psi.length, "potential length must match psi")
    for td in args[2:]:
        _want(_is_real(td), "dt, mass, hbar must be real")
    return TypeDesc.cgrid(psi.length, psi.dx)


def _impl_schrodinger(args, rnd):
    # psi is not scanned on entry: generated code calls this under its
    # entry point's np.errstate, and _cn_solve refuses a non-finite result
    psi, v, dt, mass, hbar = args
    operator = _cn_operator(len(psi.amps), psi.dx, float(mass), float(hbar),
                            float(dt), v.values)
    return _cn_solve(psi, operator)


def _check_pw_propagate(args, ctx):
    _want(args[0].kind == "pwcollection", "first argument must be a pw collection")
    kinds = {n: t.kind for n, t in args[0].attrs}
    _want(kinds.get("position") == "real"
          and kinds.get("velocity") in ("int", "real"),
          "pw needs 'position: real' and 'velocity: real' attributes")
    _want(_is_real(args[1]), "dt must be real")
    return args[0]


def _impl_pw_propagate(args, rnd):
    return pw_propagate(args[0], float(args[1]))


def _check_pw_interact(args, ctx):
    _want(args[0].kind == "pwcollection", "argument must be a pw collection")
    return args[0]


def _impl_pw_interact(args, rnd):
    return pw_interact(args[0], rnd)[1]


def _check_pw_detect(args, ctx):
    _want(args[0].kind == "pwcollection", "first argument must be a pw collection")
    names = [n for n, _ in args[0].attrs]
    _want("position" in names, "pw needs a 'position' attribute")
    _want(args[1].kind == "int", "nbins must be int")
    _want(_is_real(args[2]) and _is_real(args[3]), "lo and hi must be real")
    _want(args[4].kind == "bool", "coherent flag must be bool")
    nbins = ctx.fold(1)
    if nbins is not None:
        _want_cells(nbins, "nbins")
    return TypeDesc.int_()


# The most bins whose edges are cached: an entry holds at most 32 KiB, so
# the CN_CACHE_SIZE entries of the cache at most 256 KiB. Wider edges are
# built on every call.
EDGES_CACHE_BINS = 4096


@functools.lru_cache(maxsize=CN_CACHE_SIZE)
def _bin_edges(lo_hex: str, hi_hex: str, nbins: int) -> np.ndarray:
    """``np.linspace(lo, hi, nbins + 1)``, read-only, for bounds given by
    ``float.hex``: -0.0 and 0.0 are equal keys, but linspace keeps the
    sign of a bound."""
    edges = np.linspace(float.fromhex(lo_hex), float.fromhex(hi_hex),
                        nbins + 1)
    edges.setflags(write=False)   # shared by every call that hits the cache
    return edges


def _impl_pw_detect(args, rnd):
    k = rnd.replayed()   # a replayed draw builds no bins
    if k is not None:
        return k
    pw, nbins, lo, hi, coherent = args
    if not 1 <= nbins <= MAX_CELLS:
        raise EvalError(f"pw_detect: nbins must be in [1, {MAX_CELLS}], "
                        f"got {nbins}")
    lo, hi = float(lo), float(hi)
    for name, x in (("lo", lo), ("hi", hi), ("hi - lo", hi - lo)):
        if not math.isfinite(x):
            raise EvalError(f"pw_detect: non-finite {name} {x}")
    if nbins > EDGES_CACHE_BINS:
        edges = np.linspace(lo, hi, nbins + 1)
    else:
        edges = _bin_edges(lo.hex(), hi.hex(), nbins)
    return pw_detect(pw, edges, rnd, coherent=coherent)


_CA_PARTICLE_FIELDS = ("id", "pos", "vel", "species")


def _want_ca_world(records: dict, name: str, cells=None, exact=False):
    """Record ``name`` must have ``phi: vector(cells)`` (any length when
    ``cells`` is None), ``particles: list(R)`` where R has the int fields
    id, pos, vel and species, and ``alpha: real``. ``exact``: no other
    fields, and R is CaParticle, as ``ca_world`` builds them."""
    fields = dict(records[name])
    # a field the record lacks is None
    phi, parts, alpha = (fields.get(f) for f in ("phi", "particles", "alpha"))
    _want(phi and phi.kind == "vector" and cells in (None, phi.length),
          f"record {name} needs phi: vector({cells or 'n'})")
    _want(alpha and alpha.kind == "real", f"record {name} needs alpha: real")
    _want(parts and parts.kind == "list" and parts.element.kind == "record",
          f"record {name} needs particles: list of a particle record")
    particle = parts.element.record
    kinds = {f: td.kind for f, td in records.get(particle, ())}
    _want(all(kinds.get(f) == "int" for f in _CA_PARTICLE_FIELDS),
          f"record {particle} needs the int fields id, pos, vel and species")
    if exact:
        _want(len(fields) == 3 and particle == "CaParticle"
              and len(kinds) == len(_CA_PARTICLE_FIELDS),
              "builds exactly CaWorld { phi, particles, alpha } "
              "and CaParticle { id, pos, vel, species }")


def _check_ca_step(args, ctx):
    _want(args[0].kind == "record", "argument must be a world record")
    _want_ca_world(ctx.records, args[0].record)
    return args[0]


def _impl_ca_step(args, rnd):
    return ca_step(args[0])


def _check_gauss_packet(args, ctx):
    _want(args[0].kind == "int", "n must be int")
    for td in args[1:]:
        _want(_is_real(td), "dx, x0, sigma, k0 must be real")
    n = ctx.fold(0)
    dx = ctx.fold(1)
    _want_cells(n)
    _want(isinstance(dx, (int, float)) and dx > 0,
          "dx must be a positive literal")
    return TypeDesc.cgrid(n, float(dx))


def _impl_gauss_packet(args, rnd):
    n, *lengths = args
    return gaussian_packet(n, *map(float, lengths))


def _check_fill(args, ctx):
    _want(args[0].kind == "int", "n must be int")
    _want(_is_real(args[1]), "value must be real")
    n = ctx.fold(0)
    _want_cells(n)
    return TypeDesc.vector(n)


def _impl_fill(args, rnd):
    return VVector(np.full(args[0], float(args[1])))


def _check_two_slit(args, ctx):
    _want(args[0].kind == "int", "bins must be int")
    _want(all(_is_real(td) for td in args[1:]),
          "halfwidth, separation, distance and k must be real")
    _want_cells(ctx.fold(0), "bins", 2)
    return TypeDesc.pwcollection([("slit", TypeDesc.int_()),
                                  ("position", TypeDesc.real())])


def _impl_two_slit(args, rnd):
    bins, *lengths = args
    return two_slit(bins, *map(float, lengths))


def _check_pw_spins(args, ctx):
    td = args[0]
    _want(td.kind == "list" and td.element.kind == "list"
          and td.element.element.kind == "int",
          "argument must be a list of int lists, one per path")
    return TypeDesc.pwcollection([("spin", TypeDesc.int_())])


def _impl_pw_spins(args, rnd):
    return pw_spins(args[0])


def _check_pw_spin(args, ctx):
    _want(args[0].kind == "pwcollection"
          and ("spin", "int") in ((n, t.kind) for n, t in args[0].attrs),
          "first argument must be a pw collection with a 'spin: int'")
    _want(args[1].kind == "int", "particle must be int")
    return TypeDesc.int_()


def _impl_pw_spin(args, rnd):
    pw, i = args
    if pw.n_paths != 1:
        raise EvalError(f"pw_spin needs one path, got {pw.n_paths}")
    spins = pw.columns["spin"][0]
    if not 0 <= i < len(spins):
        raise EvalError(f"particle {i} out of range ({len(spins)})")
    return spins[i].item()


def _check_ca_world(args, ctx):
    _want(args[0].kind == "int", "cells must be int")
    _want(_is_real(args[1]), "alpha must be real")
    cells = ctx.fold(0)
    _want_cells(cells, "cells", 3)
    if "CaWorld" in ctx.records:   # else the typechecker names it missing
        _want_ca_world(ctx.records, "CaWorld", cells, exact=True)
    return TypeDesc.record_ref("CaWorld")


def _impl_ca_world(args, rnd):
    return ca_world(args[0], float(args[1]))


def _register_all():
    # a row may end with checks_result: True if the kernel refuses its own
    # non-finite result
    for name, arity, stochastic, check, impl, *checks_result in (
        ("schrodinger_step", 5, False, _check_schrodinger, _impl_schrodinger,
         True),
        ("pw_propagate", 2, False, _check_pw_propagate, _impl_pw_propagate),
        ("pw_interact", 1, True, _check_pw_interact, _impl_pw_interact),
        ("pw_detect", 5, True, _check_pw_detect, _impl_pw_detect),
        ("ca_step", 1, False, _check_ca_step, _impl_ca_step),
        ("gauss_packet", 5, False, _check_gauss_packet, _impl_gauss_packet),
        ("fill", 2, False, _check_fill, _impl_fill),
        ("two_slit", 5, False, _check_two_slit, _impl_two_slit),
        ("pw_spins", 1, False, _check_pw_spins, _impl_pw_spins),
        ("pw_spin", 2, False, _check_pw_spin, _impl_pw_spin),
        ("ca_world", 2, False, _check_ca_world, _impl_ca_world),
    ):
        intrinsics.register(Intrinsic(name, arity, stochastic, check, impl,
                                      checks_result=any(checks_result)))


_register_all()
