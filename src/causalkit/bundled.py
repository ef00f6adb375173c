"""Bundled, ready-to-run models.

Four models ship as `.cml` sources (counter, free_particle,
harmonic_oscillator, schrodinger_1d). The remaining three are registered
natively under the same CausalModel interface because their initial
states (path collections, automaton worlds) are not expressible in CML
source: double_slit, entangled_pair, qftca_toy.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .engine import CausalModel, Law, NativeTransition, build_initial_state
from .errors import BadParamError, CmlError, UnknownModelError
from .frontend import load_model, parse_expression
from .frontend.typecheck import check_standalone_expr
from .pw import PwCollection, PwPath
from .quantum import CaParticle, CaWorld, ca_world_to_value, pw_interact
from .state import (
    Domain,
    StateSchema,
    SystemState,
    TypeDesc,
    VPw,
    make_initial_state,
)

_CML_MODELS = {
    "counter": ("counter.cml", 1.0),
    "free_particle": ("free_particle.cml", 1.0),
    "harmonic_oscillator": ("harmonic_oscillator.cml", 0.001),
    "schrodinger_1d": ("schrodinger_1d.cml", 0.01),
}

MODEL_NAMES = ("counter", "free_particle", "harmonic_oscillator",
               "schrodinger_1d", "double_slit", "entangled_pair",
               "qftca_toy")


def list_bundled_models():
    return list(MODEL_NAMES)


def build_bundled_model(name: str, params: dict | None = None):
    """Return (model, initial state) for a bundled model name."""
    params = dict(params or {})
    if name in _CML_MODELS:
        if params:
            raise BadParamError(f"model '{name}' takes no parameters")
        filename, dt = _CML_MODELS[name]
        source = (resources.files("causalkit") / "models" / filename).read_text()
        model = load_model(source, default_timestep=dt)
        return model, build_initial_state(model)
    if name == "double_slit":
        return _build_double_slit(params)
    if name == "entangled_pair":
        if params:
            raise BadParamError("model 'entangled_pair' takes no parameters")
        return _build_entangled_pair()
    if name == "qftca_toy":
        return _build_qftca(params)
    raise UnknownModelError(name)


def _param(params: dict, key: str, default, convert):
    raw = params.pop(key, None)
    if raw is None:
        return default
    try:
        return convert(raw)
    except (TypeError, ValueError):
        raise BadParamError(f"bad value for parameter '{key}': {raw!r}")


def _reject_leftover(params: dict, model: str):
    if params:
        raise BadParamError(
            f"unknown parameter(s) for '{model}': {', '.join(sorted(params))}")


def _guard(source: str, schema: StateSchema):
    expr, diags = parse_expression(source)
    if expr is None:
        raise CmlError(diags)
    _, diags = check_standalone_expr(expr, schema)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise CmlError(errors)
    return expr


# --- double slit ---------------------------------------------------------------


_DOUBLE_SLIT_OFF = """
model double_slit {{
  state {{
    pw: pwcollection(slit: int, position: real);
    detected: int in [-1, {last_bin}];
  }}
  init {{
    detected = -1;
  }}
  halt when detected >= 0;
  law Detect {{
    when detected < 0;
    then {{
      detected = pw_detect(pw, {bins}, {lo}, {hi}, true);
    }}
  }}
}}
"""

_DOUBLE_SLIT_ON = """
model double_slit {{
  state {{
    pw: pwcollection(slit: int, position: real);
    marked: bool;
    detected: int in [-1, {last_bin}];
  }}
  init {{
    marked = false;
    detected = -1;
  }}
  halt when detected >= 0;
  law MarkPath {{
    when !marked;
    then {{
      pw = pw_interact(pw);
      marked = true;
    }}
  }}
  law Detect {{
    when marked && detected < 0;
    then {{
      detected = pw_detect(pw, {bins}, {lo}, {hi}, false);
    }}
  }}
}}
"""


def two_slit_amplitudes(bins: int, half_width: float, separation: float,
                        distance: float, wavenumber: float):
    """Per (slit, bin) complex amplitude of the two-path model.

    The phase of each alternative is wavenumber times the straight-line
    length from the slit to the bin center; moduli are equal.
    Returns (bin centers, amplitude array of shape (2, bins)).
    """
    edges = np.linspace(-half_width, half_width, bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    slit_y = np.array([-0.5 * separation, 0.5 * separation])
    lengths = np.sqrt(distance ** 2
                      + (centers[None, :] - slit_y[:, None]) ** 2)
    amps = np.exp(1j * wavenumber * lengths) / math.sqrt(2 * bins)
    return centers, amps


def _build_double_slit(params: dict):
    detector = _param(params, "detector", "off", str).lower()
    if detector not in ("on", "off"):
        raise BadParamError("detector must be 'on' or 'off'")
    bins = _param(params, "bins", 64, int)
    half_width = _param(params, "halfwidth", 60.0, float)
    separation = _param(params, "separation", 5.0, float)
    distance = _param(params, "distance", 100.0, float)
    wavenumber = _param(params, "k", 2.0 * math.pi, float)
    _reject_leftover(params, "double_slit")
    if bins < 2:
        raise BadParamError("bins must be >= 2")

    template = _DOUBLE_SLIT_ON if detector == "on" else _DOUBLE_SLIT_OFF
    source = template.format(bins=bins, last_bin=bins - 1,
                             lo=float(-half_width), hi=float(half_width))
    model = load_model(source)

    centers, amps = two_slit_amplitudes(bins, half_width, separation,
                                        distance, wavenumber)
    paths = []
    for b in range(bins):
        for s in range(2):
            paths.append(PwPath(({"slit": s, "position": float(centers[b])},),
                                complex(amps[s, b])))
    pw = PwCollection((("slit", "int"), ("position", "real")),
                      tuple(paths), normalized=True)
    assignments = {"pw": VPw(pw), "detected": -1}
    if detector == "on":
        assignments["marked"] = False
    state = make_initial_state(model.schema, assignments)
    return model, state


# --- entangled pair --------------------------------------------------------------


def _build_entangled_pair():
    """Two spins in a joint two-path collection: (+1,-1) and (-1,+1) with
    equal amplitudes. One measurement law collapses both jointly."""
    schema = StateSchema(
        fields={
            "pw": TypeDesc.pwcollection([("spin", TypeDesc.int_())]),
            "s1": TypeDesc.int_(Domain(values=(-1, 0, 1))),
            "s2": TypeDesc.int_(Domain(values=(-1, 0, 1))),
            "measured": TypeDesc.bool_(),
        })

    def measure(s0: SystemState, dt, rnd):
        _, collapsed = pw_interact(s0.values["pw"].pw, rnd)
        path = collapsed.paths[0]
        return {"pw": VPw(collapsed),
                "s1": path.attrs[0]["spin"],
                "s2": path.attrs[1]["spin"],
                "measured": True}

    law = Law(name="Measure",
              guard=_guard("!measured", schema),
              transition=NativeTransition(measure, uses_random=True),
              uses_random=True, schema=schema)
    model = CausalModel(name="entangled_pair", schema=schema, laws=(law,),
                        halt=_guard("measured", schema))

    amp = 1.0 / math.sqrt(2.0)
    pw = PwCollection(
        (("spin", "int"),),
        (PwPath(({"spin": 1}, {"spin": -1}), complex(amp)),
         PwPath(({"spin": -1}, {"spin": 1}), complex(amp))),
        normalized=True)
    state = make_initial_state(schema, {"pw": VPw(pw), "s1": 0, "s2": 0,
                                        "measured": False})
    return model, state


# --- toy cellular automaton --------------------------------------------------------


_QFTCA = """
model qftca_toy {{
  record CaParticle {{
    id: int;
    pos: int;
    vel: int;
    species: int;
  }}
  record CaWorld {{
    phi: vector({cells});
    particles: list(CaParticle);
    alpha: real;
  }}
  state {{
    world: CaWorld;
  }}
  init {{
  }}
  law Step {{
    when true;
    then {{
      world = ca_step(world);
    }}
  }}
}}
"""


def _build_qftca(params: dict):
    cells = _param(params, "cells", 10, int)
    alpha = _param(params, "alpha", 0.2, float)
    _reject_leftover(params, "qftca_toy")
    if cells < 3:
        raise BadParamError("cells must be >= 3")
    model = load_model(_QFTCA.format(cells=cells))
    # default configuration: two particles approaching head-on, meeting
    # after three steps on the default 10-cell ring
    world = CaWorld(np.zeros(cells),
                    (CaParticle(id=1, pos=2 % cells, vel=1),
                     CaParticle(id=2, pos=8 % cells, vel=-1)),
                    alpha=alpha)
    state = make_initial_state(model.schema,
                               {"world": ca_world_to_value(world)})
    return model, state
