"""Run-configuration parsing and validation for the CLI.

Configurations are JSON files with one section per module, each read against
one table of ``{key: (type, default)}``: unknown keys and values of the wrong
type are errors naming ``section.key``, absent keys take the table's default.
Only ``species`` and ``beam`` are mandatory; several defaults derive from the
trap geometry (e.g. the rotational frequency from the ring radius).  Every
section is validated against the module invariants before any computation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, InvalidInputError
from .optics import BeamConfig
from .raman import (FIT_MIN_POINTS, MAX_SCAN_POINTS, SHIFT_MODELS, QuadraticShift,
                    fit_denominator_range, peak_scan_points)
from .spectrum import SpectrumLimits, rotational_constant
from .sensor import SensorConfig
from .units import ATOMIC_MASS, HBAR, SPECIES, AtomSpecies, recoil_energy

# A key without a default.  A default of None marks a value that is derived
# from other fields or left unset; a JSON null then reads as absent.
_REQUIRED = object()
_VECTOR = "vector"     # three numbers
_NUMBERS = "numbers"   # a list of numbers

_ROOT = {
    "species": (dict, _REQUIRED), "beam": (dict, _REQUIRED), "spectrum": (dict, {}),
    "lineshape": (dict, {}), "sensor": (dict, {}), "rotation_scan": (dict, {}),
    "tilt": (dict, {}), "output": (dict, {}), "parallelism": (int, 1),
}
# A named species takes no other key; a custom one is given by these.
_CUSTOM_SPECIES = {
    "mass_amu": (float, _REQUIRED), "g_factor": (float, _REQUIRED),
    "hyperfine_splitting": (float, _REQUIRED), "F_ground": (float, _REQUIRED),
    "label": (str, "custom"),
}
_BEAM = {
    "wavelength": (float, _REQUIRED), "waist_w0": (float, _REQUIRED), "power_P0": (float, 1.0),
    "oam_l": (int, _REQUIRED), "radial_p": (int, 0), "phase_z0": (float, None),
    "trap_depth_J": (float, None), "trap_depth_recoils": (float, 10.0),
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
    "omega_0": (float, None), "kick_oam_L": (int, 25), "Omega_values": (_NUMBERS, None),
    "Omega_min": (float, None), "Omega_max": (float, None), "points": (int, 81),
}
_TILT = {  # the fields of TiltJob
    "gravity_g": (_VECTOR, (0.0, 0.0, -9.80665)),
    "acceleration_a": (_VECTOR, (0.0, 0.0, 0.0)),
    "angular_velocity_Omega": (_VECTOR, (0.0, 0.0, 0.0)),
}
_OUTPUT = {"path": (str, ""), "format": (str, "csv")}

_KIND_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", _VECTOR: "a list of 3 finite numbers",
               _NUMBERS: "a list of finite numbers"}


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

    def shift_model(self):
        if self.shift_model_name == "quadratic":
            # a calibration target defers the scale to run time
            return QuadraticShift(self.shift_scale_s or 0.0)
        return SHIFT_MODELS[self.shift_model_name]()


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
    species: AtomSpecies
    beam: BeamConfig
    spectrum: SpectrumLimits
    lineshape: LineshapeJob
    sensor: SensorConfig
    rotation_scan: RotationScanJob
    tilt: TiltJob
    output_path: str
    output_format: str
    parallelism: int


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
    elif kind in (_VECTOR, _NUMBERS):
        if isinstance(value, list) and all(map(_is_number, value)) and (
                kind is _NUMBERS or len(value) == 3):
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


def _beam_from(sec: dict, species: AtomSpecies) -> tuple[BeamConfig, float]:
    """The beam and the rotational frequency its ring radius implies."""
    # the key stays readable: every shipped config spells out the p = 0 mode
    if sec.pop("radial_p") != 0:
        raise ConfigError("beam.radial_p must be 0: the ring trap is a p = 0 Laguerre-Gaussian mode")
    depth_j, recoils = sec.pop("trap_depth_J"), sec.pop("trap_depth_recoils")
    if sec["phase_z0"] is None:
        sec["phase_z0"] = sec["wavelength"] / 4.0
    if depth_j is None:
        try:
            depth_j = recoils * recoil_energy(species, sec["wavelength"])
        except OverflowError as err:
            raise InvalidInputError("wavelength is too small: its recoil energy overflows") from err
    beam = BeamConfig(**sec, trap_depth_V0=depth_j)
    return beam, rotational_constant(float(beam.ring_radius(beam.ring_z(0))), species) / HBAR


def _lineshape_from(ls: dict) -> LineshapeJob:
    shift = _read(ls["shift_model"], "lineshape.shift_model.", _SHIFT_MODEL)
    omega_r, model_name, scale_s = ls["Omega_R"], shift["model"], shift["scale_s"]
    target = shift["calibrate_delta_max_over_OmegaR"]
    if omega_r <= 0:
        raise ConfigError("lineshape.Omega_R must be positive")
    if model_name not in SHIFT_MODELS:
        raise ConfigError(
            f"lineshape.shift_model.model '{model_name}' not one of {sorted(SHIFT_MODELS)}"
        )
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
    # the fit's Jacobian divides by (Omega_eff^2 + x^2)^2, which must be a
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
    del ls["shift_model"]
    return LineshapeJob(**dict(ls, tau=tau), shift_model_name=model_name,
                        shift_scale_s=scale_s, calibrate_delta_max_over_OmegaR=target)


def parse_config(path) -> RunConfig:
    """Load, validate, and resolve a JSON run configuration."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:  # unreadable, not UTF-8, or not JSON
        raise ConfigError(f"cannot read config {path}: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    root = _read(raw, "", _ROOT)

    def section(name: str, table: dict) -> dict:
        return _read(root[name], name + ".", table)

    species = _species_from(root["species"])
    beam, omega0_default = _validated("beam", _beam_from, section("beam", _BEAM), species)
    limits = _validated("spectrum", SpectrumLimits, **section("spectrum", _SPECTRUM))
    lineshape = _lineshape_from(section("lineshape", _LINESHAPE))
    sensor = section("sensor", _SENSOR)
    if sensor["omega_0"] is None:
        sensor["omega_0"] = omega0_default
    sensor = _validated("sensor", SensorConfig, **sensor)

    scan = section("rotation_scan", _ROTATION_SCAN)
    if scan["kick_oam_L"] < 1:
        raise ConfigError("rotation_scan.kick_oam_L must be >= 1")
    omega0_scan = omega0_default if scan["omega_0"] is None else scan["omega_0"]
    omegas = scan["Omega_values"]
    if omegas is None:
        lo = -2.0 * omega0_scan if scan["Omega_min"] is None else scan["Omega_min"]
        hi = 2.0 * omega0_scan if scan["Omega_max"] is None else scan["Omega_max"]
        if scan["points"] < 2 or hi <= lo:
            raise ConfigError("rotation_scan needs points >= 2 and Omega_max > Omega_min")
        omegas = tuple(np.linspace(lo, hi, scan["points"]))

    out = section("output", _OUTPUT)
    if out["format"] not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    if root["parallelism"] < 1:
        raise ConfigError("parallelism must be a positive integer")
    return RunConfig(
        species=species,
        beam=beam,
        spectrum=limits,
        lineshape=lineshape,
        sensor=sensor,
        rotation_scan=RotationScanJob(omega0_scan, scan["kick_oam_L"], omegas),
        tilt=TiltJob(**section("tilt", _TILT)),
        output_path=out["path"],
        output_format=out["format"],
        parallelism=root["parallelism"],
    )
