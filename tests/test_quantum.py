import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from causalkit import (
    PositionOutOfBinsError,
    PwCollection,
    RngStream,
    SolveError,
    TypeMismatchError,
    VCGrid,
    VPw,
    ZeroNormError,
    EvalError,
    RunConfig,
    apply_law,
    ca_step,
    ca_world,
    gaussian_packet,
    load_model,
    make_initial_state,
    pw_detect,
    pw_interact,
    pw_propagate,
    run,
    schrodinger_step,
    two_slit,
)
from causalkit import quantum
from causalkit.interpreter import ReplaySource
from causalkit.quantum import grid_coordinates
from conftest import (
    FIXTURES,
    ca_momentum,
    ca_particles,
    ca_world_value,
    total_weight,
)


def discrete_hamiltonian(n: int, dx: float, potential, mass: float = 1.0,
                         hbar: float = 1.0) -> np.ndarray:
    """Dense periodic finite-difference Hamiltonian, the eigensolve oracle
    of the Crank-Nicolson step."""
    kin = hbar ** 2 / (2.0 * mass * dx ** 2)
    h = np.diag(2.0 * kin + np.asarray(potential, dtype=float))
    for i in range(n):
        h[i, (i + 1) % n] += -kin
        h[i, (i - 1) % n] += -kin
    return h


def norm(grid):
    return float(np.sum(np.abs(grid.amps) ** 2) * grid.dx)


OSCILLATOR = (Path(__file__).resolve().parent.parent / "src" / "causalkit"
              / "models" / "harmonic_oscillator.cml").read_text()


def oscillator(k: float = 1.0, m: float = 1.0):
    """harmonic_oscillator.cml with spring constant k and mass m."""
    source = OSCILLATOR
    for name, value in (("k", k), ("m", m)):
        old = f"const {name}: real = 1.0;"
        assert old in source
        source = source.replace(old, f"const {name}: real = {value!r};")
    return load_model(source)


def verlet(model, x: float, v: float, dt: float, steps: int = 1):
    """(x, v) after ``steps`` applications of the model's Verlet law."""
    s = make_initial_state(model.schema, {"x": x, "v": v})
    for _ in range(steps):
        s = apply_law(model.laws[0], s, dt, None)
    return s.values["x"], s.values["v"]


class TestClassicalStep:
    """The velocity-Verlet step of harmonic_oscillator.cml."""

    def test_free_motion(self):
        x, v = verlet(oscillator(k=0.0), 0.0, 1.0, 0.1)
        assert x == pytest.approx(0.1)
        assert v == pytest.approx(1.0)

    def test_harmonic_one_period(self):
        # closed form x(t) = cos(t) for V = x^2/2, m = 1, x0 = 1, v0 = 0
        dt = 0.001
        steps = int(round(2 * math.pi / dt))
        x, v = verlet(oscillator(), 1.0, 0.0, dt, steps)
        t = steps * dt
        assert abs(x - math.cos(t)) < 1e-3
        assert abs(v + math.sin(t)) < 1e-3

    def test_energy_drift_velocity_verlet(self):
        model = oscillator()
        dt = 0.001
        e0 = 0.5 * 1.0 ** 2
        trace = run(model, make_initial_state(model.schema,
                                              {"x": 1.0, "v": 0.0}),
                    RunConfig(dt=dt, max_steps=10_000))
        assert len(trace.rows) == 10_001
        for row in trace.rows:
            x, v = row.snapshot.values["x"], row.snapshot.values["v"]
            assert abs(0.5 * v * v + 0.5 * x * x - e0) / e0 < 1e-4

    def test_noninteracting_particles_decouple(self):
        # a step depends on its own state only: two oscillators of
        # different mass stepped in turn give what each gives alone
        models = (oscillator(k=0.3, m=1.0), oscillator(k=0.3, m=2.0))
        starts = ((0.0, 1.0), (5.0, -0.5))
        states = [make_initial_state(m.schema, {"x": x, "v": v})
                  for m, (x, v) in zip(models, starts)]
        for _ in range(3):
            states = [apply_law(m.laws[0], s, 0.05, None)
                      for m, s in zip(models, states)]
        for model, (x, v), joint in zip(models, starts, states):
            alone = verlet(model, x, v, 0.05, 3)
            assert alone == (joint.values["x"], joint.values["v"])

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(EvalError, match="division by zero"):
            verlet(oscillator(m=0.0), 0.0, 0.0, 0.1)


class TestSchrodingerStep:
    def test_zero_stays_zero(self):
        out = schrodinger_step(VCGrid(np.zeros(32), 0.5), np.zeros(32), 0.01)
        assert np.all(out.amps == 0) and out.dx == 0.5

    def test_norm_conserved_1000_steps(self):
        wave = gaussian_packet(512, 0.125, x0=0.0, sigma=1.0, k0=0.0)
        v = np.zeros(512)
        for _ in range(1000):
            wave = schrodinger_step(wave, v, 0.01)
        assert abs(norm(wave) - 1.0) < 1e-8

    def test_free_gaussian_spreading_matches_closed_form(self):
        # position variance of a free packet: sigma0^2 (1 + (hbar t / (2 m sigma0^2))^2)
        n, dx, sigma0, dt, steps = 512, 0.125, 1.0, 0.01, 1000
        wave = gaussian_packet(n, dx, x0=0.0, sigma=sigma0, k0=0.0)
        v = np.zeros(n)
        for _ in range(steps):
            wave = schrodinger_step(wave, v, dt)
        x = grid_coordinates(n, dx)
        rho = np.abs(wave.amps) ** 2 * dx
        mean = float(np.sum(x * rho))
        var = float(np.sum((x - mean) ** 2 * rho))
        t = steps * dt
        expected = sigma0 ** 2 * (1.0 + (t / (2.0 * sigma0 ** 2)) ** 2)
        assert abs(var - expected) / expected < 0.01

    def test_deep_well_ground_state_stationary(self):
        # oracle: direct eigensolve of the discrete periodic Hamiltonian;
        # its ground state must be a fixed point of the step up to phase
        n, dx = 64, 0.25
        x = grid_coordinates(n, dx)
        v = np.where(np.abs(x) < 1.0, -25.0, 0.0)
        h = discrete_hamiltonian(n, dx, v)
        energies, vecs = np.linalg.eigh(h)
        ground = vecs[:, 0].astype(complex)
        ground /= np.sqrt(np.sum(np.abs(ground) ** 2) * dx)
        wave = VCGrid(ground, dx)
        period = 2.0 * math.pi / abs(energies[0])
        dt = period / 200.0
        density0 = np.abs(wave.amps) ** 2
        for _ in range(200):
            wave = schrodinger_step(wave, v, dt)
        assert np.max(np.abs(np.abs(wave.amps) ** 2 - density0)) < 1e-6

    def test_unitarity_on_random_grids(self):
        rng = np.random.default_rng(7)
        for n in (64, 128, 512):
            psi = rng.normal(size=n) + 1j * rng.normal(size=n)
            dx = 0.2
            psi /= np.sqrt(np.sum(np.abs(psi) ** 2) * dx)
            wave = VCGrid(psi, dx)
            v = rng.normal(size=n)
            out = schrodinger_step(wave, v, 0.05)
            assert abs(norm(out) - norm(wave)) < 1e-10

    def test_potential_length_mismatch(self):
        wave = VCGrid(np.zeros(16), 0.5)
        with pytest.raises(ValueError):
            schrodinger_step(wave, np.zeros(8), 0.01)


def reference_step(wave, potential, dt, mass, hbar):
    """Oracle: the Crank-Nicolson step as it ran before its operator was
    cached, rebuilding the bands and calling solve_banded twice per step."""
    v = np.asarray(potential, dtype=float)
    psi = wave.amps
    kin = hbar ** 2 / (2.0 * mass * wave.dx ** 2)
    hdiag = 2.0 * kin + v
    hoff = -kin
    sigma = 1j * dt / (2.0 * hbar)
    rhs = (1.0 - sigma * hdiag) * psi \
        - sigma * hoff * (np.roll(psi, 1) + np.roll(psi, -1))
    diag = 1.0 + sigma * hdiag
    off = corner = sigma * hoff
    gamma = -diag[0]
    dmod = diag.astype(complex).copy()
    dmod[0] -= gamma
    dmod[-1] -= corner * corner / gamma
    ab = np.zeros((3, len(diag)), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = dmod
    ab[2, :-1] = off
    u = np.zeros(len(diag), dtype=complex)
    u[0] = gamma
    u[-1] = corner
    y = solve_banded((1, 1), ab, rhs)
    z = solve_banded((1, 1), ab, u)
    vy = y[0] + (corner / gamma) * y[-1]
    vz = z[0] + (corner / gamma) * z[-1]
    return y - z * (vy / (1.0 + vz))


def _factorizations(monkeypatch) -> list:
    """An empty operator cache for the test, and a one-item list counting
    the operators factored from then on."""
    monkeypatch.setattr(quantum, "_cn_operators", [])
    count, factor = [0], quantum._cyclic_solver

    def counting(*args):
        count[0] += 1
        return factor(*args)
    monkeypatch.setattr(quantum, "_cyclic_solver", counting)
    return count


def _bits(wave, v, dt=0.05, mass=1.0, hbar=1.0) -> bytes:
    """The bytes of a step, checked against the oracle's."""
    out = schrodinger_step(wave, v, dt, mass, hbar).amps
    assert out.tobytes() == reference_step(wave, v, dt, mass, hbar).tobytes()
    return out.tobytes()


class TestCachedOperator:
    @pytest.mark.parametrize("n", [3, 4, 64, 512])
    def test_bit_identical_to_reference(self, n, monkeypatch):
        # operators cycle over more keys than the cache holds, then over
        # two, so steps meet both evictions and hits; a fine grid with a
        # large dt and a deep well makes the elimination pivot
        rng = np.random.default_rng(n)
        keys = [(dx, mass, hbar, dt, rng.uniform(-80.0, 80.0, n))
                for dx in (0.05, 0.5) for mass, hbar in ((1.0, 1.0), (0.7, 1.3))
                for dt in (0.01, 0.1, 0.3)]
        assert len(keys) > quantum.CN_CACHE_SIZE
        order = [k % len(keys) for k in range(2 * len(keys))] + [0, 5] * 10
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        factored = _factorizations(monkeypatch)
        for k in order:
            dx, mass, hbar, dt, v = keys[k]
            wave = VCGrid(psi, dx)
            out = schrodinger_step(wave, v, dt, mass, hbar).amps
            assert np.array_equal(out, reference_step(wave, v, dt, mass,
                                                      hbar))
            psi = out / np.sqrt(np.sum(np.abs(out) ** 2) * dx)
        # the cycles miss every time; then key 0 misses once, and key 5 is
        # among the CN_CACHE_SIZE keys the cycles used last
        assert factored[0] == 2 * len(keys) + 1
        assert len(quantum._cn_operators) <= quantum.CN_CACHE_SIZE

    def test_a_potential_mutated_in_place_gets_a_fresh_operator(
            self, monkeypatch):
        factored = _factorizations(monkeypatch)
        wave = gaussian_packet(64, 0.25, sigma=2.0, k0=1.0)
        v = np.zeros(64)
        before = _bits(wave, v)
        v[20:40] = 30.0   # the same array, with other bytes
        after = _bits(wave, v)
        assert after != before and factored[0] == 2
        v[20:40] = 0.0    # back to the first bytes: the first operator
        assert _bits(wave, v) == before and factored[0] == 2

    def test_alternating_potentials_hit_the_cache(self, monkeypatch):
        factored = _factorizations(monkeypatch)
        wave = gaussian_packet(128, 0.25, sigma=2.0, k0=1.0)
        wells = [np.zeros(128), np.where(np.arange(128) < 64, 0.0, 5.0)]
        for k in range(20):
            wave = VCGrid(np.frombuffer(_bits(wave, wells[k % 2]),
                                        dtype=complex), 0.25)
        assert factored[0] == 2
        assert len(quantum._cn_operators) == 2

    def test_the_cache_holds_at_most_cn_cache_size_operators(
            self, monkeypatch):
        factored = _factorizations(monkeypatch)
        wave = gaussian_packet(16, 0.5)
        size = quantum.CN_CACHE_SIZE
        wells = [np.full(16, float(k)) for k in range(size + 1)]
        for v in wells:
            _bits(wave, v)
        assert factored[0] == size + 1
        assert len(quantum._cn_operators) == size
        for v in wells[1:]:   # the latest CN_CACHE_SIZE are all kept
            _bits(wave, v)
        assert factored[0] == size + 1
        _bits(wave, wells[0])   # the least recently used was dropped
        assert factored[0] == size + 2
        assert len(quantum._cn_operators) == size

    @pytest.mark.parametrize("n", [1, 2, 64])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_psi_or_potential_raises(self, n, bad):
        # checked before any arithmetic, so no RuntimeWarning escapes
        wave = gaussian_packet(n, 0.25)
        psi = wave.amps.copy()
        psi[n // 2] = complex(0.0, bad)
        with pytest.raises(SolveError):
            schrodinger_step(VCGrid(psi, 0.25), np.zeros(n), 0.01)
        v = np.zeros(n)
        v[0] = bad
        with pytest.raises(SolveError):
            schrodinger_step(wave, v, 0.01)

    def test_singular_factorization_raises(self):
        diag = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        with pytest.raises(SolveError, match="singular matrix"):
            quantum._cyclic_solver(diag, 0j, 0j)

    @pytest.mark.parametrize("n", [3, 4, 16])
    def test_singular_cyclic_system_raises(self, n):
        # the periodic second difference: the modified tridiagonal factor
        # is regular, the rank-one update makes it singular (1 + v.z == 0)
        with pytest.raises(SolveError, match="singular cyclic system"):
            quantum._cyclic_solver(np.full(n, 2.0 + 0j), -1 + 0j, -1 + 0j)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_probe(probe):
    return subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}).stdout


def test_cli_import_leaves_scipy_linalg_unloaded():
    # the Crank-Nicolson solve loads scipy's compiled LAPACK module from
    # its file, so neither the import nor a CN run imports scipy.linalg
    out = run_probe("import sys, causalkit.cli\n"
                    "print('scipy.linalg' in sys.modules)\n"
                    "from causalkit.cli import main\n"
                    "main(['run', 'builtin:schrodinger_1d', '--steps', '1', "
                    "'--out', '/dev/null'])\n"
                    "print('scipy.linalg' in sys.modules)\n")
    assert out.split() == ["False", "False"]


GET_LAPACK_FUNCS = ("import scipy.linalg.lapack as lapack\n"
                    "f, s = lapack.get_lapack_funcs(('gttrf', 'gttrs'), "
                    "(np.zeros(1, complex),))\n"
                    "print(f is gttrf, s is gttrs)\n")


def test_gt_lapack_are_the_routines_get_lapack_funcs_returns():
    out = run_probe("import sys\n"
                    "import numpy as np\n"
                    "from causalkit import quantum\n"
                    "gttrf, gttrs = quantum._gt_lapack()\n"
                    "print('scipy.linalg' in sys.modules)\n"
                    + GET_LAPACK_FUNCS +
                    "import scipy.linalg\n"
                    "print(scipy.linalg._flapack.zgttrf is gttrf)\n")
    assert out.split() == ["False", "True", "True", "True"]


def test_gt_lapack_falls_back_to_the_import_without_the_file():
    # with no suffix that names the file, _gt_lapack takes the ordinary
    # import, whose finders keep their own list of suffixes
    out = run_probe("import importlib.machinery, sys\n"
                    "import numpy as np\n"
                    "from causalkit import quantum\n"
                    "importlib.machinery.EXTENSION_SUFFIXES = ['.absent']\n"
                    "gttrf, gttrs = quantum._gt_lapack()\n"
                    "print('scipy.linalg' in sys.modules)\n"
                    + GET_LAPACK_FUNCS)
    assert out.split() == ["True", "True", "True"]


def test_gt_lapack_reuses_a_loaded_module():
    # scipy.linalg is imported by this test module
    from scipy.linalg import _flapack
    quantum._gt_lapack.cache_clear()
    gttrf, gttrs = quantum._gt_lapack()
    assert gttrf is _flapack.zgttrf and gttrs is _flapack.zgttrs


def one_particle_pw(paths):
    return PwCollection((("position", "real"), ("velocity", "real")),
                        [complex(a) for _, _, a in paths],
                        {"position": [[p] for p, _, _ in paths],
                         "velocity": [[v] for _, v, _ in paths]})


class TestPwCollection:
    def test_columns_are_read_only_arrays_of_the_kinds_dtype(self):
        pw = PwCollection((("slit", "int"), ("position", "real"),
                           ("seen", "bool")), [0.6, 0.8j],
                          {"slit": [[0], [1]], "position": [[0.5], [-1]],
                           "seen": [[True], [False]]})
        assert pw.amplitudes().dtype == np.complex128
        assert [pw.columns[n].dtype for n in ("slit", "position", "seen")] \
            == [np.int64, np.float64, np.bool_]
        assert pw.columns["position"].shape == (2, 1)
        for a in (pw.amplitudes(), *pw.columns.values()):
            with pytest.raises(ValueError):
                a[0] = 0
        assert pw.attr_array("position").tolist() == [0.5, -1.0]

    def test_the_input_arrays_are_copied(self):
        position = np.array([[0.5]])
        pw = PwCollection((("position", "real"),), [1.0],
                          {"position": position})
        position[0, 0] = 2.0
        assert pw.attr_array("position")[0] == 0.5

    @pytest.mark.parametrize("kind, values", [
        ("int", [[0.5]]), ("int", [[True]]), ("int", [[2 ** 70]]),
        ("real", [["left"]]), ("real", [[True]]), ("bool", [[1]]),
        ("str", [["left"]])])
    def test_a_value_that_does_not_fit_its_kind_is_rejected(self, kind,
                                                            values):
        with pytest.raises(TypeMismatchError):
            PwCollection((("a", kind),), [1.0], {"a": values})

    def test_an_int_converts_to_a_real_attribute(self):
        pw = PwCollection((("a", "real"),), [1.0], {"a": [[3]]})
        assert pw.attr_array("a").tolist() == [3.0]

    @pytest.mark.parametrize("a, b", [
        ([[0]], [[0], [1]]),        # one row per path
        ([[0]], [[0, 1]]),          # one particle count
        ([[]], [[]]),               # at least one particle
        ([0], [0])])                # one column per particle
    def test_shapes_must_agree(self, a, b):
        with pytest.raises(ValueError, match="share one shape"):
            PwCollection((("a", "int"), ("b", "int")), [1.0],
                         {"a": np.array(a, int), "b": np.array(b, int)})

    def test_at_least_one_path(self):
        with pytest.raises(ValueError, match="at least one path"):
            PwCollection((("a", "int"),), [], {"a": np.zeros((0, 1), int)})

    def test_collections_share_read_only_arrays(self):
        pw = one_particle_pw([(0.0, 1.0, 0.6), (1.0, -1.0, 0.8j)])
        out = pw_propagate(pw, 0.5)
        assert out.amplitudes() is pw.amplitudes()
        assert out.columns["velocity"] is pw.columns["velocity"]

    def test_attributes_must_match_the_declarations(self):
        from causalkit.errors import MissingAttributeError
        with pytest.raises(MissingAttributeError):
            PwCollection((("a", "int"),), [1.0], {"b": [[0]]})
        with pytest.raises(TypeMismatchError):
            PwCollection((("a", "int"),), [1.0], {"a": [[0]], "b": [[0]]})
        with pytest.raises(MissingAttributeError):
            one_particle_pw([(0.0, 0.0, 1.0)]).attr_array("spin")


class TestPwPropagate:
    def test_position_advance(self):
        pw = one_particle_pw([(0.0, 2.0, 1.0)])
        out = pw_propagate(pw, 0.5)
        assert out.attr_array("position")[0] == pytest.approx(1.0)
        assert out.amplitudes()[0] == 1.0

    def test_norm_preserved(self):
        pw = one_particle_pw([(0.0, 1.0, 0.6), (1.0, -1.0, 0.8j)])
        out = pw_propagate(pw, 2.0)
        assert total_weight(out) == pytest.approx(total_weight(pw))

    def test_zero_dt_identity(self):
        pw = one_particle_pw([(0.3, 1.5, 0.5), (2.0, -0.5, 0.5)])
        out = pw_propagate(pw, 0.0)
        assert out.attr_array("position").tolist() == \
            pw.attr_array("position").tolist()

    def test_missing_attribute(self):
        from causalkit.errors import MissingAttributeError
        pw = PwCollection((("position", "real"),), [1.0],
                          {"position": [[0.0]]})
        with pytest.raises(MissingAttributeError):
            pw_propagate(pw, 1.0)

    def test_overflowing_position_is_refused(self):
        pw = one_particle_pw([(0.0, 1.0, 0.6), (1.0, 1e308, 0.8j)])
        with pytest.raises(EvalError, match=r"^pw_propagate: non-finite "
                                            r"position inf on path 1$"):
            pw_propagate(pw, 10.0)

    def test_refusal_names_the_law_and_location(self):
        src = ("model t { state { pw: pwcollection(position: real, "
               "velocity: real); } init { } "
               "law Move { when true; then { pw = pw_propagate(pw, dt); } } }")
        model = load_model(src)
        pw = PwCollection((("position", "real"), ("velocity", "real")),
                          [1.0], {"position": [[0.0]], "velocity": [[1e308]]})
        init = make_initial_state(model.schema, {"pw": VPw(pw)})
        trace = run(model, init, RunConfig(dt=10.0, max_steps=3))
        assert trace.termination.kind == "eval-error"
        assert trace.termination.message == (
            "law 'Move': pw_propagate: non-finite position inf on path 0 "
            "at 1:114")
        assert trace.final_state is init


class TestTwoSlit:
    def test_paths_are_finite_and_normalized(self):
        pw = two_slit(4, 1.0, 1.0, 10.0, 1.0)
        assert pw.n_paths == 8 and total_weight(pw) == pytest.approx(1.0)
        assert np.isfinite(pw.amps).all()

    @pytest.mark.parametrize("args, message", [
        ((1e300 * 1e300, 1.0, 10.0, 1.0), "position nan on path 0"),
        ((1e308, 1.0, 10.0, 1.0), "position nan on path 0"),
        ((1.0, 1.0, 10.0, 1e308), r"amplitude \(nan\+nanj\) on path 0")])
    def test_non_finite_paths_are_refused(self, args, message):
        with pytest.raises(EvalError,
                           match=f"^two_slit: non-finite {message}$"):
            two_slit(4, *args)


class TestPwInteract:
    def test_single_path_certain(self):
        pw = one_particle_pw([(0.0, 0.0, 0.3 + 0.4j)])
        idx, collapsed = pw_interact(pw, RngStream(0))
        assert idx == 0
        (amp,) = collapsed.amplitudes()
        assert abs(amp) == pytest.approx(1.0)
        # phase is kept, modulus renormalized
        assert amp == pytest.approx((0.3 + 0.4j) / 0.5)
        assert collapsed.normalized

    def test_equal_amplitudes_binomial(self):
        # two equal-weight paths: selection frequency 1/2 within 3 sigma
        # of the binomial at 1e5 trials
        pw = one_particle_pw([(0.0, 0.0, 1 / math.sqrt(2)),
                              (1.0, 0.0, 1 / math.sqrt(2))])
        rng = RngStream(11)
        n = 100_000
        first = sum(1 for _ in range(n) if pw_interact(pw, rng)[0] == 0)
        sigma = math.sqrt(n * 0.25)
        assert abs(first - n / 2) < 3 * sigma

    def test_entangled_spins_anticorrelated(self):
        amp = 1 / math.sqrt(2)
        pw = PwCollection((("spin", "int"),), [amp, amp],
                          {"spin": [[1, -1], [-1, 1]]})
        rng = RngStream(12)
        for _ in range(1000):
            _, collapsed = pw_interact(pw, rng)
            (spins,) = collapsed.columns["spin"].tolist()
            assert spins[0] == -spins[1]

    def test_zero_norm(self):
        pw = one_particle_pw([(0.0, 0.0, 0.0)])
        with pytest.raises(ZeroNormError):
            pw_interact(pw, RngStream(0))

    def test_global_phase_invariance_of_selection(self):
        # multiplying all amplitudes by e^{i theta} leaves the selection
        # distribution identical: same seed, same draws
        base = one_particle_pw([(0.0, 0.0, 0.6), (1.0, 0.0, 0.8j)])
        phase = np.exp(1j * 1.234)
        rotated = one_particle_pw([(0.0, 0.0, 0.6 * phase),
                                   (1.0, 0.0, 0.8j * phase)])
        a = [pw_interact(base, RngStream(s))[0] for s in range(500)]
        b = [pw_interact(rotated, RngStream(s))[0] for s in range(500)]
        assert a == b


class TestPwDetect:
    def test_coherent_vs_marked_ratio(self):
        # two in-phase paths in one bin against a single unit path in
        # another: coherent gives |1/sqrt2 + 1/sqrt2|^2 = 2 vs 1, marked
        # gives 1 vs 1 (the 2:1 interference enhancement)
        a = 1 / math.sqrt(2)
        pw = one_particle_pw([(0.5, 0.0, a), (0.5, 0.0, a), (1.5, 0.0, 1.0)])
        edges = [0.0, 1.0, 2.0]
        n = 30_000
        rng = RngStream(5)
        coh = sum(1 for _ in range(n)
                  if pw_detect(pw, edges, rng, coherent=True) == 0)
        rng = RngStream(6)
        mark = sum(1 for _ in range(n)
                   if pw_detect(pw, edges, rng, coherent=False) == 0)
        # coherent: p(bin0) = 2/3; marked: p(bin0) = 1/2
        assert abs(coh / n - 2 / 3) < 3 * math.sqrt((2 / 3) * (1 / 3) / n)
        assert abs(mark / n - 1 / 2) < 3 * math.sqrt(0.25 / n)

    def test_destructive_interference_bin_never_drawn(self):
        a = 1 / math.sqrt(2)
        pw = one_particle_pw([(0.5, 0.0, a), (0.5, 0.0, -a), (1.5, 0.0, 0.5)])
        rng = RngStream(7)
        draws = {pw_detect(pw, [0.0, 1.0, 2.0], rng) for _ in range(1000)}
        assert draws == {1}

    def test_single_path_modes_agree(self):
        pw = one_particle_pw([(0.5, 0.0, 1.0)])
        edges = [0.0, 1.0, 2.0]
        assert pw_detect(pw, edges, RngStream(1), coherent=True) == \
            pw_detect(pw, edges, RngStream(1), coherent=False) == 0

    def test_position_out_of_bins(self):
        pw = one_particle_pw([(5.0, 0.0, 1.0)])
        with pytest.raises(PositionOutOfBinsError):
            pw_detect(pw, [0.0, 1.0], RngStream(0))


# --- the kernels as they were before they trusted a checked collection,
# kept as the oracle of the leaner ones


def oracle_pw_interact(pw, rng):
    amps = pw.amplitudes()
    weights = np.abs(amps) ** 2
    total = weights.sum()
    if total <= 0:
        raise ZeroNormError("all path amplitudes vanish")
    idx = rng.categorical(weights / total)
    amp = complex(amps[idx])
    collapsed = PwCollection(pw.attr_decls, [amp / abs(amp)],
                             {name: col[idx:idx + 1]
                              for name, col in pw.columns.items()},
                             normalized=True)
    return idx, collapsed


def oracle_pw_detect(pw, bin_edges, rng, coherent=True):
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


def outcome(kernel, *args):
    """``kernel(*args)``, or the type and message of what it raised;
    numpy's warnings about non-finite values are not errors here."""
    try:
        with np.errstate(all="ignore"):
            return kernel(*args)
    except Exception as exc:
        return type(exc), str(exc)


def collection_bytes(pw):
    """Everything a collection holds, as comparable bytes and flags."""
    return (pw.attr_decls, pw.normalized, pw.amps.dtype, pw.amps.shape,
            pw.amps.tobytes(), pw.amps.flags.writeable,
            [(name, col.dtype, col.shape, col.tobytes(), col.flags.writeable)
             for name, col in pw.columns.items()])


EDGE_ARRAYS = [np.linspace(-1.0, 1.0, 5), np.array([0.0, 1.0]),
               np.array([-0.0, 0.0, 0.5, 2.0]), np.linspace(-60.0, 60.0, 65)]
# edge arrays pw_detect refuses
REFUSED_EDGES = [np.array([1.0, 1.0]), np.array([2.0, 1.0]),
                 np.array([np.nan, 1.0]), np.array([0.0])]
AMPLITUDES = (st.sampled_from([0.0, 0.0j, 1.0, -1j, 0.6 + 0.8j, 5e-324,
                               1e200, complex(np.inf, 0.0),
                               complex(np.nan, 1.0)])
              | st.complex_numbers(max_magnitude=10.0))


@st.composite
def detections(draw):
    """(collection, edges): one or two particles on one to six paths,
    positions on the edges, between them, outside, NaN or infinite."""
    edges = draw(st.sampled_from(EDGE_ARRAYS) if draw(st.integers(0, 4))
                 else st.sampled_from(REFUSED_EDGES))
    paths = draw(st.integers(1, 6))
    particles = draw(st.integers(1, 2))
    inside = st.floats(-1.0, 1.0)
    if len(edges) > 1 and edges[0] < edges[-1]:
        inside = st.floats(edges[0], edges[-1])
    position = st.sampled_from(edges.tolist()) | inside
    if draw(st.booleans()):   # else every position is in range
        position |= (st.sampled_from([np.nan, np.inf, -np.inf])
                     | st.floats(allow_nan=True, allow_infinity=True))
    positions = draw(st.lists(st.lists(position, min_size=particles,
                                       max_size=particles),
                              min_size=paths, max_size=paths))
    amps = draw(st.lists(AMPLITUDES, min_size=paths, max_size=paths))
    slits = [[i % 2] * particles for i in range(paths)]
    pw = PwCollection((("slit", "int"), ("position", "real")), amps,
                      {"slit": slits, "position": positions})
    return pw, edges


class TestLeanKernelsMatchTheOracle:
    """pw_detect's one min and max, and the collapse's views of the
    checked columns, give what the kernels that checked everything again
    gave: the same outcome, or the same error."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(detections(), st.booleans(), st.integers(0, 2 ** 32))
    def test_pw_detect(self, case, coherent, seed):
        pw, edges = case
        assert outcome(pw_detect, pw, edges, RngStream(seed), coherent) == \
            outcome(oracle_pw_detect, pw, edges, RngStream(seed), coherent)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(detections(), st.integers(0, 2 ** 32))
    def test_collapse(self, case, seed):
        pw, _ = case
        got = outcome(pw_interact, pw, RngStream(seed))
        want = outcome(oracle_pw_interact, pw, RngStream(seed))
        if isinstance(want[0], type):   # an error
            assert got == want
            return
        assert got[0] == want[0]
        assert collection_bytes(got[1]) == collection_bytes(want[1])
        # a replay of the drawn path collapses to the same collection
        # without computing the weights
        replay = ReplaySource((want[0],))
        idx, again = pw_interact(pw, replay)
        assert idx == want[0] and replay.draws == []
        assert collection_bytes(again) == collection_bytes(want[1])


class TestBinEdges:
    @staticmethod
    def detect(nbins, lo, hi, seed=3):
        pw = VPw(one_particle_pw([(0.5 * lo + 0.5 * hi, 0.0, 1.0)]))
        return quantum._impl_pw_detect((pw, nbins, lo, hi, True),
                                       RngStream(seed))

    def test_cached_edges_are_linspace_and_read_only(self):
        edges = quantum._bin_edges((-60.0).hex(), (60.0).hex(), 64)
        assert np.array_equal(edges, np.linspace(-60.0, 60.0, 65))
        assert not edges.flags.writeable
        with pytest.raises(ValueError):
            edges[0] = 0.0
        assert quantum._bin_edges((-60.0).hex(), (60.0).hex(), 64) is edges

    def test_signed_zero_bounds_keep_their_own_edges(self):
        # -0.0 == 0.0, but linspace keeps the sign of the upper bound
        neg = quantum._bin_edges((-1.0).hex(), (-0.0).hex(), 4)
        pos = quantum._bin_edges((-1.0).hex(), (0.0).hex(), 4)
        assert math.copysign(1.0, neg[-1]) == -1.0
        assert math.copysign(1.0, pos[-1]) == 1.0

    def test_the_cache_holds_few_entries_of_bounded_size(self):
        quantum._bin_edges.cache_clear()
        for nbins in range(1, 2 * quantum.CN_CACHE_SIZE + 1):
            assert self.detect(nbins, -1.0, 1.0) == nbins // 2
        info = quantum._bin_edges.cache_info()
        assert info.maxsize == info.currsize == quantum.CN_CACHE_SIZE
        # wider edges are built per call and never enter the cache, so it
        # holds at most CN_CACHE_SIZE * (EDGES_CACHE_BINS + 1) floats
        for nbins in (quantum.EDGES_CACHE_BINS + 1, quantum.MAX_CELLS):
            assert self.detect(nbins, -1.0, 1.0) == nbins // 2
        assert quantum._bin_edges.cache_info() == info
        assert self.detect(quantum.EDGES_CACHE_BINS, -1.0, 1.0) == \
            quantum.EDGES_CACHE_BINS // 2
        assert quantum._bin_edges.cache_info().misses == info.misses + 1


class TestCaStep:
    def test_empty_world_zero_field(self):
        out = ca_step(ca_world_value(np.zeros(8)))
        assert np.all(out.fields["phi"].values == 0.0)
        assert out.fields["particles"].items == ()

    def test_field_diffusion_conserves_total(self):
        rng = np.random.default_rng(3)
        world = ca_world_value(rng.normal(size=16))
        total = world.fields["phi"].values.sum()
        for _ in range(50):
            world = ca_step(world)
        phi = world.fields["phi"].values
        assert phi.sum() == pytest.approx(total)
        # diffusion smooths: variance decreases
        assert phi.var() < rng.normal(size=16).var() * 10

    def test_diffusion_matches_the_rolled_laplacian(self):
        phi = np.random.default_rng(4).normal(size=11)
        out = ca_step(ca_world_value(phi, alpha=0.3)).fields["phi"].values
        lap = np.roll(phi, 1) + np.roll(phi, -1) - 2.0 * phi
        assert np.array_equal(out, phi + 0.3 * lap)

    @pytest.mark.parametrize("phi, alpha, message", [
        ([1e300, 0.0, 0.0], 1e300, "non-finite phi value -inf at index 0"),
        ([0.0, np.nan, 0.0], 0.2, "non-finite phi value nan at index 0"),
        ([0.0, 0.0, np.inf], 0.2, "non-finite phi value inf at index 0"),
    ])
    def test_a_field_that_is_not_finite_is_refused(self, phi, alpha,
                                                   message):
        with pytest.raises(EvalError, match=f"^ca_step: {message}$"):
            ca_step(ca_world_value(np.array(phi), alpha=alpha))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_a_world_with_alpha_not_finite_is_refused(self, alpha):
        with pytest.raises(EvalError,
                           match=f"^ca_world: non-finite alpha {alpha}$"):
            ca_world(10, alpha)

    def test_single_particle_displacement(self):
        world = ca_world_value(np.zeros(10), [(1, 0, 1)])
        for _ in range(5):
            world = ca_step(world)
        assert ca_particles(world) == [[5, 1]]

    def test_wraparound(self):
        world = ca_world_value(np.zeros(10), [(1, 8, 1)])
        for _ in range(5):
            world = ca_step(world)
        assert ca_particles(world) == [[3, 1]]

    def test_head_on_matches_committed_trace(self):
        data = json.loads((FIXTURES / "ca_headon_trace.json").read_text())
        rows = data["steps"]
        world = ca_world_value(np.zeros(data["cells"]),
                               [(1, *rows[0][0]), (2, *rows[0][1])])
        for step_idx, expected in enumerate(rows):
            assert ca_particles(world) == expected, f"step {step_idx}"
            assert ca_momentum(world) == 0
            world = ca_step(world)

    def test_record_names_and_other_fields_are_kept(self):
        from causalkit.state import VList, VRecord
        world = ca_world_value(np.zeros(4), [(1, 0, 1, 7)])
        ion = VRecord("Ion", {**world.fields["particles"].items[0].fields,
                              "charge": -1})
        world = VRecord("Ring", {**world.fields, "particles": VList([ion]),
                                 "label": 3})
        out = ca_step(world)
        (moved,) = out.fields["particles"].items
        assert out.record == "Ring" and out.fields["label"] == 3
        assert moved.record == "Ion"
        assert moved.fields == {"id": 1, "pos": 1, "vel": 1, "species": 7,
                                "charge": -1}

    def test_momentum_conserved_random_worlds(self):
        rng = np.random.default_rng(9)
        for trial in range(100):
            n = int(rng.integers(4, 20))
            k = int(rng.integers(0, 6))
            particles = [(i, int(rng.integers(0, n)), int(rng.integers(-2, 3)),
                          int(rng.integers(0, 2))) for i in range(k)]
            world = ca_world_value(rng.normal(size=n), particles)
            p0 = ca_momentum(world)
            for _ in range(20):
                world = ca_step(world)
                assert ca_momentum(world) == p0


class TestGaussianPacket:
    def test_normalized(self):
        wave = gaussian_packet(256, 0.1, x0=1.0, sigma=0.7, k0=2.0)
        assert norm(wave) == pytest.approx(1.0, abs=1e-12)

    def test_centered(self):
        wave = gaussian_packet(256, 0.1, x0=1.0, sigma=0.5)
        x = grid_coordinates(256, 0.1)
        mean = np.sum(x * np.abs(wave.amps) ** 2 * 0.1)
        assert mean == pytest.approx(1.0, abs=1e-6)
