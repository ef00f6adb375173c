"""Numeric kits: classical mechanics stepping, 1D Schrodinger evolution,
particle/wave collection operations, and a toy cellular-automaton world.

Importing this module registers the corresponding CML intrinsics
(schrodinger_step, pw_propagate, pw_interact, pw_detect, ca_step,
gauss_packet, fill, two_slit, pw_spins, pw_spin, ca_world).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import intrinsics
from .errors import (
    EvalError,
    MissingAttributeError,
    PositionOutOfBinsError,
    SolveError,
    ZeroNormError,
)
from .intrinsics import Intrinsic, IntrinsicTypeError
from .pw import PwCollection, PwPath
from .state import TypeDesc, VCGrid, VList, VPw, VRecord, VVector

# --- classical mechanics ------------------------------------------------------


def classical_step(particles, potential_gradient, dt: float):
    """Velocity-Verlet step for point particles in a 1D potential.

    ``particles`` is a list of (mass, position, velocity) triples;
    ``potential_gradient`` is a callable x -> dV/dx. The force is
    F = -dV/dx, standard mechanics sign.
    """
    if not (dt > 0):
        raise ValueError("dt must be positive")
    out = []
    for m, x, v in particles:
        if not (m > 0):
            raise ValueError("mass must be positive")
        a0 = -potential_gradient(x) / m
        x1 = x + v * dt + 0.5 * a0 * dt * dt
        a1 = -potential_gradient(x1) / m
        v1 = v + 0.5 * (a0 + a1) * dt
        out.append((m, x1, v1))
    return out


# --- 1D Schrodinger evolution ----------------------------------------------------


@dataclass(frozen=True)
class GridWave:
    """Wavefunction samples on a periodic 1D grid."""

    psi: np.ndarray
    dx: float
    mass: float = 1.0
    hbar: float = 1.0
    normalized: bool = False

    def __post_init__(self):
        object.__setattr__(self, "psi", np.asarray(self.psi, dtype=np.complex128))

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.dx)


def gaussian_packet(n: int, dx: float, x0: float = 0.0, sigma: float = 1.0,
                    k0: float = 0.0, mass: float = 1.0,
                    hbar: float = 1.0) -> GridWave:
    """Normalized Gaussian wave packet centered at x0 with momentum hbar*k0.

    Grid coordinates run from -(n//2)*dx, so the packet should fit well
    inside the box to avoid periodic wrap-around.
    """
    x = (np.arange(n) - n // 2) * dx
    psi = np.exp(-((x - x0) ** 2) / (4.0 * sigma ** 2) + 1j * k0 * x)
    psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
    return GridWave(psi, dx, mass, hbar, normalized=True)


def grid_coordinates(n: int, dx: float) -> np.ndarray:
    return (np.arange(n) - n // 2) * dx


# Factored Crank-Nicolson operators kept at once: a fixed potential uses
# one, a potential that alternates between two values two.
CN_CACHE_SIZE = 8


@functools.cache
def _gt_lapack():
    """LAPACK ``gttrf`` and ``gttrs``, imported on first use: importing
    scipy.linalg takes about half of a cold ``import causalkit.cli``, and
    only the Crank-Nicolson solve needs it."""
    from scipy.linalg.lapack import get_lapack_funcs
    return get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(1, complex),))


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

    def solve(rhs):
        y, _ = gttrs(dl, d, du, du2, ipiv, rhs, overwrite_b=1)
        return y - z * ((y[0] + ratio * y[-1]) / denom)
    return solve


@functools.lru_cache(maxsize=CN_CACHE_SIZE)
def _cn_operator(n, dx, mass, hbar, dt, v_bytes):
    """The psi-independent part of a Crank-Nicolson step: the right-hand
    diagonal 1 - sigma*hdiag, the off-diagonal sigma*hoff and the solver of
    the left-hand matrix."""
    v = np.frombuffer(v_bytes, dtype=float)
    if not np.isfinite(v).all():
        raise SolveError("non-finite potential")
    kin = hbar ** 2 / (2.0 * mass * dx ** 2)
    hdiag = 2.0 * kin + v
    hoff = -kin
    sigma = 1j * dt / (2.0 * hbar)
    off = sigma * hoff
    coef = 1.0 - sigma * hdiag
    coef.setflags(write=False)   # shared by every step that hits the cache
    return coef, off, _cyclic_solver(1.0 + sigma * hdiag, off, off)


def schrodinger_step(wave: GridWave, potential, dt: float) -> GridWave:
    """One Crank-Nicolson step with periodic boundary.

    The Cayley form (1 + i dt H / 2hbar)^-1 (1 - i dt H / 2hbar) is
    unitary for Hermitian H, so the norm is conserved to solver roundoff.
    The operator is factored once per (grid, constants, dt, potential).
    """
    v = np.asarray(potential, dtype=float)
    psi = wave.psi
    n = len(psi)
    if len(v) != n:
        raise ValueError("potential grid length does not match psi")
    if not (dt > 0):
        raise ValueError("dt must be positive")
    coef, off, solve = _cn_operator(n, wave.dx, wave.mass, wave.hbar, dt,
                                    v.tobytes())
    if not np.isfinite(psi).all():
        raise SolveError("non-finite wavefunction")
    # ring[i] + ring[i + 2] == psi[i - 1] + psi[i + 1] on the periodic grid
    ring = np.concatenate((psi[-1:], psi, psi[:1]))
    rhs = coef * psi - off * (ring[:-2] + ring[2:])
    if not np.isfinite(rhs).all():
        raise SolveError("non-finite right-hand side")
    return replace(wave, psi=solve(rhs))


def discrete_hamiltonian(n: int, dx: float, potential, mass: float = 1.0,
                         hbar: float = 1.0) -> np.ndarray:
    """Dense periodic finite-difference Hamiltonian (for eigen-analysis)."""
    kin = hbar ** 2 / (2.0 * mass * dx ** 2)
    h = np.diag(2.0 * kin + np.asarray(potential, dtype=float))
    for i in range(n):
        h[i, (i + 1) % n] += -kin
        h[i, (i - 1) % n] += -kin
    return h


# --- particle/wave collections -----------------------------------------------------


def two_slit(bins: int, half_width: float, separation: float,
             distance: float, wavenumber: float) -> PwCollection:
    """The two-path collection of a double slit: for each of ``bins``
    screen bins on [-half_width, half_width], one path through each slit.

    The phase of each alternative is wavenumber times the straight-line
    length from the slit to the bin center; moduli are equal.
    """
    edges = np.linspace(-half_width, half_width, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    slit_y = np.array([-0.5 * separation, 0.5 * separation])
    lengths = np.sqrt(distance ** 2
                      + (centers[None, :] - slit_y[:, None]) ** 2)
    amps = (np.exp(1j * wavenumber * lengths) / math.sqrt(2 * bins)).tolist()
    paths = tuple(PwPath(({"slit": s, "position": c},), amps[s][b])
                  for b, c in enumerate(centers.tolist()) for s in range(2))
    return PwCollection((("slit", "int"), ("position", "real")), paths,
                        normalized=True)


def pw_spins(paths) -> PwCollection:
    """Equal-amplitude paths, each giving one spin per particle."""
    amp = complex(1.0 / math.sqrt(len(paths)))
    return PwCollection((("spin", "int"),),
                        tuple(PwPath(tuple({"spin": s} for s in spins), amp)
                              for spins in paths),
                        normalized=True)


def pw_propagate(pw: PwCollection, dt: float,
                 omega_attr: str | None = None) -> PwCollection:
    """Advance every particle's position by velocity * dt on each path.

    Amplitudes are unchanged unless ``omega_attr`` names a per-path
    frequency attribute (read from particle 0), in which case each
    amplitude picks up the phase exp(i * omega * dt).
    """
    names = [n for n, _ in pw.attr_decls]
    if "position" not in names or "velocity" not in names:
        raise MissingAttributeError(
            "propagation needs 'position' and 'velocity' attributes")
    paths = []
    for path in pw.paths:
        particles = tuple(
            {**p, "position": p["position"] + p["velocity"] * dt}
            for p in path.attrs)
        amp = path.amplitude
        if omega_attr is not None:
            if omega_attr not in path.attrs[0]:
                raise MissingAttributeError(f"no attribute '{omega_attr}'")
            amp = amp * np.exp(1j * path.attrs[0][omega_attr] * dt)
        paths.append(PwPath(particles, amp))
    return PwCollection(pw.attr_decls, tuple(paths), normalized=pw.normalized)


def pw_interact(pw: PwCollection, rng):
    """Realize an interaction: draw one path with Born weights and collapse.

    Returns (selected path index, collapsed one-path collection). The
    survivor keeps its phase with modulus renormalized to 1; since a path
    fixes the attributes of all particles jointly, entangled correlations
    survive the collapse.
    """
    amps = pw.amplitudes()
    weights = np.abs(amps) ** 2
    total = weights.sum()
    if total <= 0:
        raise ZeroNormError("all path amplitudes vanish")
    idx = rng.categorical(weights / total)
    survivor = pw.paths[idx]
    amp = survivor.amplitude / abs(survivor.amplitude)
    collapsed = PwCollection(pw.attr_decls,
                             (PwPath(survivor.attrs, amp),),
                             normalized=True)
    return idx, collapsed


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
    if not edges[0] < edges[-1]:
        raise PositionOutOfBinsError(
            f"empty detection range [{edges[0]}, {edges[-1]}]")
    positions = pw.attr_array("position")
    if np.any(positions < edges[0]) or np.any(positions > edges[-1]):
        raise PositionOutOfBinsError(
            f"path positions outside [{edges[0]}, {edges[-1]}]")
    idx = np.searchsorted(edges, positions, side="right") - 1
    idx = np.minimum(idx, len(edges) - 2)
    amps = pw.amplitudes()
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


@dataclass(frozen=True)
class CaParticle:
    id: int
    pos: int
    vel: int
    species: int = 0


@dataclass(frozen=True)
class CaWorld:
    phi: np.ndarray                 # one field value per cell
    particles: tuple                # CaParticle entries
    alpha: float = 0.2              # field diffusion coefficient

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "particles", tuple(self.particles))

    @property
    def n_cells(self) -> int:
        return len(self.phi)

    def momentum(self) -> int:
        return sum(p.vel for p in self.particles)


def ca_step(world: CaWorld) -> CaWorld:
    """One automaton step: diffuse the field, move particles, and exchange
    velocities when two or more particles land in the same cell.

    Velocity exchange permutes velocities within a cell (reversal over the
    id-sorted occupants), so total momentum is conserved exactly.
    """
    phi = world.phi
    lap = np.roll(phi, 1) + np.roll(phi, -1) - 2.0 * phi
    phi1 = phi + world.alpha * lap
    n = world.n_cells
    moved = [replace(p, pos=(p.pos + p.vel) % n) for p in world.particles]
    by_cell: dict = {}
    for i, p in enumerate(moved):
        by_cell.setdefault(p.pos, []).append(i)
    for cell, members in by_cell.items():
        if len(members) < 2:
            continue
        members.sort(key=lambda i: moved[i].id)
        vels = [moved[i].vel for i in members]
        for i, v in zip(members, reversed(vels)):
            moved[i] = replace(moved[i], vel=v)
    return CaWorld(phi1, tuple(moved), world.alpha)


def ca_world(cells: int, alpha: float) -> CaWorld:
    """A zero field and two particles approaching head-on; on a 10-cell
    ring they meet after three steps."""
    return CaWorld(np.zeros(cells),
                   (CaParticle(id=1, pos=2 % cells, vel=1),
                    CaParticle(id=2, pos=8 % cells, vel=-1)),
                   alpha=alpha)


# --- value marshalling -----------------------------------------------------------


def ca_world_to_value(world: CaWorld, record: str = "CaWorld",
                      particle_record: str = "CaParticle") -> VRecord:
    particles = VList([
        VRecord(particle_record, {"id": int(p.id), "pos": int(p.pos),
                                  "vel": int(p.vel),
                                  "species": int(p.species)})
        for p in world.particles])
    return VRecord(record, {"phi": VVector(world.phi),
                            "particles": particles,
                            "alpha": float(world.alpha)})


def ca_world_from_value(v: VRecord) -> CaWorld:
    particles = tuple(
        CaParticle(id=p.fields["id"], pos=p.fields["pos"],
                   vel=p.fields["vel"], species=p.fields["species"])
        for p in v.fields["particles"].items)
    return CaWorld(v.fields["phi"].values, particles, v.fields["alpha"])


# --- intrinsic registration ----------------------------------------------------------


# the longest vector or cgrid, and the most cells or bins an intrinsic
# builds: 16 MiB of complex cells
MAX_CELLS = 2 ** 20


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


def _impl_schrodinger(args, env):
    psi, v, dt, mass, hbar = args
    wave = GridWave(psi.amps, psi.dx, float(mass), float(hbar))
    out = schrodinger_step(wave, v.values, float(dt))
    return VCGrid(out.psi, psi.dx)


def _check_pw_propagate(args, ctx):
    _want(args[0].kind == "pwcollection", "first argument must be a pw collection")
    names = [n for n, _ in args[0].attrs]
    _want("position" in names and "velocity" in names,
          "pw needs 'position' and 'velocity' attributes")
    _want(_is_real(args[1]), "dt must be real")
    return args[0]


def _impl_pw_propagate(args, env):
    return VPw(pw_propagate(args[0].pw, float(args[1])))


def _check_pw_interact(args, ctx):
    _want(args[0].kind == "pwcollection", "argument must be a pw collection")
    return args[0]


def _impl_pw_interact(args, env):
    _, collapsed = pw_interact(args[0].pw, env.rnd)
    return VPw(collapsed)


def _check_pw_detect(args, ctx):
    _want(args[0].kind == "pwcollection", "first argument must be a pw collection")
    names = [n for n, _ in args[0].attrs]
    _want("position" in names, "pw needs a 'position' attribute")
    _want(args[1].kind == "int", "nbins must be int")
    _want(_is_real(args[2]) and _is_real(args[3]), "lo and hi must be real")
    _want(args[4].kind == "bool", "coherent flag must be bool")
    return TypeDesc.int_()


def _impl_pw_detect(args, env):
    pw, nbins, lo, hi, coherent = args
    edges = np.linspace(float(lo), float(hi), nbins + 1)
    return pw_detect(pw.pw, edges, env.rnd, coherent=coherent)


def _check_ca_step(args, ctx):
    _want(args[0].kind == "record", "argument must be a world record")
    return args[0]


def _impl_ca_step(args, env):
    v = args[0]
    particle_record = "CaParticle"
    if v.fields["particles"].items:
        particle_record = v.fields["particles"].items[0].record
    world = ca_step(ca_world_from_value(v))
    return ca_world_to_value(world, record=v.record,
                             particle_record=particle_record)


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


def _impl_gauss_packet(args, env):
    n, dx, x0, sigma, k0 = args
    wave = gaussian_packet(n, float(dx), float(x0), float(sigma), float(k0))
    return VCGrid(wave.psi, float(dx))


def _check_fill(args, ctx):
    _want(args[0].kind == "int", "n must be int")
    _want(_is_real(args[1]), "value must be real")
    n = ctx.fold(0)
    _want_cells(n)
    return TypeDesc.vector(n)


def _impl_fill(args, env):
    return VVector(np.full(args[0], float(args[1])))


def _check_two_slit(args, ctx):
    _want(args[0].kind == "int", "bins must be int")
    _want(all(_is_real(td) for td in args[1:]),
          "halfwidth, separation, distance and k must be real")
    _want_cells(ctx.fold(0), "bins", 2)
    return TypeDesc.pwcollection([("slit", TypeDesc.int_()),
                                  ("position", TypeDesc.real())])


def _impl_two_slit(args, env):
    bins, *lengths = args
    return VPw(two_slit(bins, *map(float, lengths)))


def _check_pw_spins(args, ctx):
    td = args[0]
    _want(td.kind == "list" and td.element.kind == "list"
          and td.element.element.kind == "int",
          "argument must be a list of int lists, one per path")
    return TypeDesc.pwcollection([("spin", TypeDesc.int_())])


def _impl_pw_spins(args, env):
    return VPw(pw_spins([spins.items for spins in args[0].items]))


def _check_pw_spin(args, ctx):
    _want(args[0].kind == "pwcollection"
          and ("spin", "int") in ((n, t.kind) for n, t in args[0].attrs),
          "first argument must be a pw collection with a 'spin: int'")
    _want(args[1].kind == "int", "particle must be int")
    return TypeDesc.int_()


def _impl_pw_spin(args, env):
    pw, i = args[0].pw, args[1]
    if pw.n_paths != 1:
        raise EvalError(f"pw_spin needs one path, got {pw.n_paths}")
    particles = pw.paths[0].attrs
    if not 0 <= i < len(particles):
        raise EvalError(f"particle {i} out of range ({len(particles)})")
    return particles[i]["spin"]


def _check_ca_world(args, ctx):
    _want(args[0].kind == "int", "cells must be int")
    _want(_is_real(args[1]), "alpha must be real")
    _want_cells(ctx.fold(0), "cells", 3)
    return TypeDesc.record_ref("CaWorld")


def _impl_ca_world(args, env):
    return ca_world_to_value(ca_world(args[0], float(args[1])))


def _register_all():
    for name, arity, stochastic, check, impl in (
        ("schrodinger_step", 5, False, _check_schrodinger, _impl_schrodinger),
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
        intrinsics.register(Intrinsic(name, arity, stochastic, check, impl))


_register_all()
