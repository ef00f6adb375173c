"""Bundled, ready-to-run models: CML sources under ``models/``.

A ``--param NAME=VALUE`` sets the model's ``param NAME``; double_slit's
``detector=on|off`` instead picks one of its two sources.
"""

from __future__ import annotations

from importlib import resources

from .engine import build_initial_state
from .errors import BadParamError, CausalKitError, UnknownModelError
from .frontend import load_model

# name -> (source file, or one per `detector` value; default timestep)
_MODELS = {
    "counter": ("counter.cml", 1.0),
    "free_particle": ("free_particle.cml", 1.0),
    "harmonic_oscillator": ("harmonic_oscillator.cml", 0.001),
    "schrodinger_1d": ("schrodinger_1d.cml", 0.01),
    "double_slit": ({"off": "double_slit.cml",
                     "on": "double_slit_detector.cml"}, 1.0),
    "entangled_pair": ("entangled_pair.cml", 1.0),
    "qftca_toy": ("qftca_toy.cml", 1.0),
}


def _source(filename: str):
    return resources.files("causalkit") / "models" / filename


def list_bundled_models():
    """The bundled models whose source files are all there."""
    return [name for name, (files, _) in _MODELS.items()
            if all(_source(f).is_file() for f in (
                files.values() if isinstance(files, dict) else [files]))]


def build_bundled_model(name: str, params: dict | None = None):
    """Return (model, initial state) for a bundled model name."""
    if name not in _MODELS:
        raise UnknownModelError(name)
    filename, dt = _MODELS[name]
    params = dict(params or {})
    if isinstance(filename, dict):
        filename = filename.get(params.pop("detector", "off").lower())
        if filename is None:
            raise BadParamError("detector must be 'on' or 'off'")
    try:
        source = _source(filename).read_text()
    except OSError as exc:
        raise CausalKitError(f"cannot read bundled model '{name}' source "
                             f"'{filename}': {exc.strerror}")
    model = load_model(source, default_timestep=dt, params=params)
    return model, build_initial_state(model)
