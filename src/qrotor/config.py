"""Run-configuration parsing and validation for the CLI.

Configurations are JSON files with one section per module, each read against
one table of ``{key: (type, default)}``: unknown keys and values of the wrong
type are errors naming ``section.key``, absent keys take the table's default.
Only ``species`` and ``beam`` are mandatory; several defaults derive from the
trap geometry (e.g. the rotational frequency from the ring radius).

`parse_config` reads every section against its table, so a misspelled key
fails every run.  It builds the trap (``species``, ``beam``), ``output`` and
``parallelism`` at once.  Each optional section is checked against its
module's invariants and built the first time it is read, so a run fails only
on the sections its subcommand reads.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, InvalidInputError
from .optics import BeamConfig
from .raman import (FIT_MIN_POINTS, MAX_SCAN_POINTS, SHIFT_MODELS, fit_denominator_range,
                    peak_scan_points)
from .spectrum import SpectrumLimits, rotational_constant
from .sensor import SensorConfig
from .units import ATOMIC_MASS, HBAR, SPECIES, AtomSpecies, recoil_energy

# A key without a default.  A default of None marks a value that is derived
# from other fields or left unset; a JSON null then reads as absent.
_REQUIRED = object()
_VECTOR = "vector"     # three numbers

_ROOT = {
    "species": (dict, _REQUIRED), "beam": (dict, _REQUIRED), "spectrum": (dict, {}),
    "lineshape": (dict, {}), "sensor": (dict, {}), "rotation_scan": (dict, {}),
    "tilt": (dict, {}), "output": (dict, {}), "parallelism": (int, 1),
}
# A named species takes no other key; a custom one is given by these.
_CUSTOM_SPECIES = {
    "mass_amu": (float, _REQUIRED), "g_factor": (float, _REQUIRED),
    "hyperfine_splitting": (float, _REQUIRED), "F_ground": (float, _REQUIRED),
}
_BEAM = {
    "wavelength": (float, _REQUIRED), "waist_w0": (float, _REQUIRED), "oam_l": (int, _REQUIRED),
    "radial_p": (int, 0), "phase_z0": (float, None), "trap_depth_recoils": (float, 10.0),
    "collimated": (bool, False), "z_eff": (float, None),
}
_SPECTRUM = {  # the fields of SpectrumLimits
    "n_z_max": (int, 1), "n_r_max": (int, 2), "m_ell_max": (int, 5), "j": (int, 0),
    "ratio_threshold": (float, 10.0),
}
_LINESHAPE = {
    "Omega_R": (float, 3.142), "tau": (float, None), "j_max": (int, 80),
    "kick_oam_L": (int, 25), "shift_model": (dict, {}),
    "grid_half_width_over_OmegaR": (float, 8.0), "grid_points": (int, 1601),
}
_SHIFT_MODEL = {
    "model": (str, "quadratic"), "scale_s": (float, None),
    "calibrate_delta_max_over_OmegaR": (float, None),
}
_SENSOR = {  # the fields of SensorConfig
    "kick_oam_L": (int, 25), "ring_count_N": (int, 161),
    "omega_0": (float, None), "Omega_R": (float, 3.142),
    "freq_uncertainty_pump": (float, 1.43e-9), "freq_uncertainty_stokes": (float, 1.43e-9),
    "photon_count_pump": (float, 1e29), "photon_count_stokes": (float, 1e29),
    "Delta_hf": (float, 1.26e8),
}
_ROTATION_SCAN = {
    "omega_0": (float, None), "kick_oam_L": (int, 25),
    "Omega_min": (float, None), "Omega_max": (float, None), "points": (int, 81),
}
_TILT = {  # the fields of TiltJob
    "gravity_g": (_VECTOR, (0.0, 0.0, -9.80665)),
    "acceleration_a": (_VECTOR, (0.0, 0.0, 0.0)),
    "angular_velocity_Omega": (_VECTOR, (0.0, 0.0, 0.0)),
}
_OUTPUT = {"path": (str, ""), "format": (str, "csv")}
_OPTIONAL = {"spectrum": _SPECTRUM, "lineshape": _LINESHAPE, "sensor": _SENSOR,
             "rotation_scan": _ROTATION_SCAN, "tilt": _TILT}

_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", _VECTOR: "a list of 3 finite numbers"}


@dataclass(frozen=True)
class LineshapeJob:
    """Resolved inputs of the ``lineshape`` subcommand."""

    Omega_R: float
    tau: float
    j_max: int
    kick_oam_L: int
    shift_model_name: str
    shift_scale_s: float | None
    calibrate_delta_max_over_OmegaR: float | None
    grid_half_width_over_OmegaR: float
    grid_points: int


@dataclass(frozen=True)
class RotationScanJob:
    omega_0: float
    kick_oam_L: int
    omega_values: tuple[float, ...]


@dataclass(frozen=True)
class TiltJob:
    gravity_g: tuple[float, float, float]
    acceleration_a: tuple[float, float, float]
    angular_velocity_Omega: tuple[float, float, float]


@dataclass(frozen=True)
class RunConfig:
    """Every key and type checked, the trap built; each optional section built on first read."""

    species: AtomSpecies
    beam: BeamConfig
    output_path: str
    output_format: str
    parallelism: int
    sections: dict  # the optional sections as read, each omega_0 default filled in

    @functools.cached_property
    def spectrum(self) -> SpectrumLimits:
        return _validated("spectrum", SpectrumLimits, **self.sections["spectrum"])

    @functools.cached_property
    def lineshape(self) -> LineshapeJob:
        return _lineshape_from(**self.sections["lineshape"])

    @functools.cached_property
    def sensor(self) -> SensorConfig:
        return _validated("sensor", SensorConfig, **self.sections["sensor"])

    @functools.cached_property
    def rotation_scan(self) -> RotationScanJob:
        return _rotation_scan_from(self.sections["rotation_scan"])

    @functools.cached_property
    def tilt(self) -> TiltJob:
        return TiltJob(**self.sections["tilt"])


def _is_number(value) -> bool:
    # bool is an int subclass; JSON's NaN and Infinity parse as floats; an int
    # beyond the float range cannot convert
    if type(value) is float:
        return math.isfinite(value)
    return type(value) is int and abs(value) <= sys.float_info.max


def _typed(value, kind, field: str):
    """`value` as the table's `kind`: floats take ints, nothing else converts."""
    if kind is float:
        if _is_number(value):
            return float(value)
    elif kind is _VECTOR:
        if isinstance(value, list) and len(value) == 3 and all(map(_is_number, value)):
            return tuple(float(v) for v in value)
    elif type(value) is kind:  # so an int field refuses bool and float
        return value
    raise ConfigError(f"field '{field}' must be {_KIND_NAMES[kind]}")


def _read(body: dict, prefix: str, table: dict) -> dict:
    """The keys of `table` read from `body`; absent keys take the table's default."""
    for key in body:
        if key not in table:
            raise ConfigError(f"unknown field '{prefix}{key}'")
    values = {}
    for key, (kind, default) in table.items():
        if key not in body or (body[key] is None and default is None):
            if default is _REQUIRED:
                raise ConfigError(f"missing required field '{prefix}{key}'")
            values[key] = default
        else:
            values[key] = _typed(body[key], kind, prefix + key)
    return values


def _validated(where: str, make, *args, **fields):
    """`make(*args, **fields)`, with its invariant errors named `where.<field>`.

    Every invariant message starts with the field it concerns.
    """
    try:
        return make(*args, **fields)
    except InvalidInputError as err:
        raise ConfigError(f"{where}.{err}") from err


def _species_from(body: dict) -> AtomSpecies:
    if "name" in body:
        name = _read(body, "species.", {"name": (str, _REQUIRED)})["name"]
        if name not in SPECIES:
            raise ConfigError(f"unknown species name '{name}'; known: {sorted(SPECIES)}")
        return SPECIES[name]
    sec = _read(body, "species.", _CUSTOM_SPECIES)
    return _validated("species", AtomSpecies, mass=sec.pop("mass_amu") * ATOMIC_MASS, **sec)


def _derived(field: str, what: str, compute) -> float:
    """compute(), refused naming `field` unless it is a finite, positive float."""
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            value = float(compute())
    except OverflowError as err:
        raise InvalidInputError(f"{field} is out of range: {what} overflows") from err
    if not 0.0 < value < math.inf:
        raise InvalidInputError(
            f"{field} is out of range: {what} is {value:.3g}, not a finite positive float")
    return value


def _beam_from(sec: dict, species: AtomSpecies) -> tuple[BeamConfig, float]:
    """The beam and the rotational frequency its ring radius implies.

    The quantities derived from the wavelength and the waist are computed
    here, each checked to be a finite, positive float, so a value that
    overflows or vanishes exits 2 naming its field.
    """
    # the key stays readable: every shipped config spells out the p = 0 mode
    if sec.pop("radial_p") != 0:
        raise ConfigError("beam.radial_p must be 0: the ring trap is a p = 0 Laguerre-Gaussian mode")
    if sec["phase_z0"] is None:
        sec["phase_z0"] = sec["wavelength"] / 4.0
    depth_j = sec.pop("trap_depth_recoils") * _derived(
        "wavelength", "its recoil energy (J)", lambda: recoil_energy(species, sec["wavelength"]))
    beam = BeamConfig(**sec, trap_depth_V0=depth_j)
    omega0 = _derived(
        "waist_w0", "the rotor frequency of ring 0 (rad/s)",
        lambda: rotational_constant(beam.ring_radius(beam.ring_z(0)), species) / HBAR)
    return beam, omega0


def _lineshape_from(shift_model: dict, **ls) -> LineshapeJob:
    omega_r, model_name, scale_s = ls["Omega_R"], shift_model["model"], shift_model["scale_s"]
    target = shift_model["calibrate_delta_max_over_OmegaR"]
    if omega_r <= 0:
        raise ConfigError("lineshape.Omega_R must be positive")
    if model_name not in SHIFT_MODELS:
        raise ConfigError(
            f"lineshape.shift_model.model '{model_name}' not one of {sorted(SHIFT_MODELS)}"
        )
    # only the quadratic model reads a scale, given or calibrated, never both
    given = [k for k in ("scale_s", "calibrate_delta_max_over_OmegaR")
             if shift_model[k] is not None]
    if given and model_name != "quadratic":
        raise ConfigError(f"lineshape.shift_model.{given[0]} applies to the quadratic model "
                          f"only, not to '{model_name}'")
    if len(given) == 2:
        raise ConfigError("lineshape.shift_model.scale_s cannot be set with a calibration "
                          "target, calibrate_delta_max_over_OmegaR, which chooses the scale")
    if model_name == "quadratic" and not given:
        scale_s = 0.0   # a quadratic stack with neither key is unshifted
    if scale_s is not None and scale_s < 0:
        raise ConfigError("lineshape.shift_model.scale_s must be non-negative")
    tau = float(np.pi / omega_r) if ls["tau"] is None else ls["tau"]
    if ls["j_max"] < 0:
        raise ConfigError("lineshape.j_max must be non-negative")
    if ls["kick_oam_L"] < 1:
        raise ConfigError("lineshape.kick_oam_L must be >= 1")
    if tau <= 0:
        raise ConfigError("lineshape.tau must be positive")
    # the fit takes at least FIT_MIN_POINTS; the curve keeps to the scan's bound
    if not FIT_MIN_POINTS <= ls["grid_points"] <= MAX_SCAN_POINTS:
        raise ConfigError(
            f"lineshape.grid_points must lie in [{FIT_MIN_POINTS}, {MAX_SCAN_POINTS}]"
        )
    # the pulse area tau Omega_R sets the peak scan's step, and the scan
    # keeps to MAX_SCAN_POINTS
    if not peak_scan_points(omega_r, tau) <= MAX_SCAN_POINTS:
        raise ConfigError(
            f"lineshape.tau is too large: tau Omega_R = {tau * omega_r:.3g} asks a peak scan "
            f"of more than {MAX_SCAN_POINTS} points"
        )
    # the fit's slopes divide by (Omega_eff^2 + x^2)^2, which must be a
    # normal, finite float over the fit's box (see raman.fit_lineshape); that
    # bounds every detuning the run squares as well
    least, greatest = fit_denominator_range(omega_r, ls["grid_half_width_over_OmegaR"])
    if least < sys.float_info.min:
        raise ConfigError(
            "lineshape.Omega_R is too small: the fit's (Omega_eff^2 + x^2)^2 underflows"
        )
    if not math.isfinite(greatest):
        raise ConfigError(
            "lineshape.Omega_R times lineshape.grid_half_width_over_OmegaR is too large: "
            "the fit's (Omega_eff^2 + x^2)^2 overflows"
        )
    return LineshapeJob(**dict(ls, tau=tau), shift_model_name=model_name,
                        shift_scale_s=scale_s, calibrate_delta_max_over_OmegaR=target)


def _rotation_scan_from(scan: dict) -> RotationScanJob:
    if scan["kick_oam_L"] < 1:
        raise ConfigError("rotation_scan.kick_oam_L must be >= 1")
    if scan["points"] < 2:
        raise ConfigError(f"rotation_scan.points must be >= 2, got {scan['points']}")
    omega_0 = scan["omega_0"]
    lo = -2.0 * omega_0 if scan["Omega_min"] is None else scan["Omega_min"]
    hi = 2.0 * omega_0 if scan["Omega_max"] is None else scan["Omega_max"]
    if hi <= lo:
        hi_said, lo_said = (f"{value:.6g}" + ("" if scan[key] is not None else f" (default {rule})")
                            for key, value, rule in (("Omega_max", hi, "2 omega_0"),
                                                     ("Omega_min", lo, "-2 omega_0")))
        raise ConfigError(f"rotation_scan.Omega_max = {hi_said} must exceed "
                          f"rotation_scan.Omega_min = {lo_said}")
    return RotationScanJob(omega_0, scan["kick_oam_L"], tuple(np.linspace(lo, hi, scan["points"])))


def parse_config(path) -> RunConfig:
    """Load a JSON run configuration, check every key and type, and build the trap."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    root = _read(raw, "", _ROOT)
    species = _species_from(root["species"])
    beam, omega_0 = _validated("beam", _beam_from, _read(root["beam"], "beam.", _BEAM), species)
    sections = {name: _read(root[name], name + ".", table) for name, table in _OPTIONAL.items()}
    ls = sections["lineshape"]
    ls["shift_model"] = _read(ls["shift_model"], "lineshape.shift_model.", _SHIFT_MODEL)
    for name in ("sensor", "rotation_scan"):  # both default to ring 0's rotor frequency
        if sections[name]["omega_0"] is None:
            sections[name]["omega_0"] = omega_0
    out = _read(root["output"], "output.", _OUTPUT)
    if out["format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    if root["parallelism"] < 1:
        raise ConfigError("parallelism must be a positive integer")
    return RunConfig(species, beam, out["path"], out["format"], root["parallelism"], sections)
