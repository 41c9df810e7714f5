"""Run-configuration parsing and validation for the CLI.

Configurations are JSON files with one section per module.  Only ``species``
and ``beam`` are mandatory; every other section has physically sensible
defaults, most of them derived from the trap geometry (e.g. the rotational
frequency defaults to the value implied by the ring radius).  All sections are
validated against the module invariants before any computation starts, and the
fully resolved configuration can be echoed back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .exceptions import ConfigError, InvalidInputError
from .optics import BeamConfig
from .raman import SHIFT_MODELS, QuadraticShift
from .spectrum import SpectrumLimits, rotational_constant
from .sensor import SensorConfig
from .units import ATOMIC_MASS, HBAR, SPECIES, AtomSpecies, recoil_energy


@dataclass(frozen=True)
class LineshapeJob:
    """Resolved inputs of the ``lineshape`` subcommand."""

    omega_0: float
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
    resolved: dict


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required field '{key}' in section '{where}'")
    return section[key]


def _number(section: dict, key: str, where: str, default=None):
    value = section.get(key, default)
    if value is None:
        raise ConfigError(f"missing required field '{key}' in section '{where}'")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{where}.{key}' must be a number")
    return float(value)


def _species_from(section: dict) -> AtomSpecies:
    if "name" in section:
        name = section["name"]
        if name not in SPECIES:
            raise ConfigError(
                f"unknown species name '{name}'; known: {sorted(SPECIES)}"
            )
        return SPECIES[name]
    try:
        return AtomSpecies(
            mass=_number(section, "mass_amu", "species") * ATOMIC_MASS,
            g_factor=_number(section, "g_factor", "species"),
            hyperfine_splitting=_number(section, "hyperfine_splitting", "species"),
            F_ground=_number(section, "F_ground", "species"),
            label=section.get("label", "custom"),
        )
    except InvalidInputError as err:
        raise ConfigError(f"species: {err}") from err


def _beam_from(section: dict, species: AtomSpecies) -> BeamConfig:
    wavelength = _number(section, "wavelength", "beam")
    phase_z0 = section.get("phase_z0")
    if phase_z0 is None:
        phase_z0 = wavelength / 4.0
    depth_j = section.get("trap_depth_J")
    if depth_j is None:
        recoils = _number(section, "trap_depth_recoils", "beam", default=10.0)
        try:
            depth_j = recoils * recoil_energy(species, wavelength)
        except InvalidInputError as err:
            raise ConfigError(f"beam.wavelength: {err}") from err
    try:
        return BeamConfig(
            wavelength=wavelength,
            waist_w0=_number(section, "waist_w0", "beam"),
            power_P0=_number(section, "power_P0", "beam", default=1.0),
            oam_l=int(_require(section, "oam_l", "beam")),
            radial_p=section.get("radial_p", 0),
            phase_z0=phase_z0,
            trap_depth_V0=depth_j,
            collimated=section.get("collimated", False),
            z_eff=section.get("z_eff"),
        )
    except InvalidInputError as err:
        raise ConfigError(f"beam.{_field_of(err)}: {err}") from err


def _field_of(err: Exception) -> str:
    text = str(err)
    return text.split()[0] if text else "field"


def _default_omega0(beam: BeamConfig, species: AtomSpecies) -> float:
    r_l = float(beam.ring_radius(beam.ring_z(0)))
    return rotational_constant(r_l, species) / HBAR


def parse_config(path) -> RunConfig:
    """Load, validate, and resolve a JSON run configuration."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    if "species" not in raw:
        raise ConfigError("missing required section 'species'")
    if "beam" not in raw:
        raise ConfigError("missing required section 'beam'")
    species = _species_from(raw["species"])
    beam = _beam_from(raw["beam"], species)

    spec_sec = raw.get("spectrum", {})
    try:
        limits = SpectrumLimits(
            n_z_max=spec_sec.get("n_z_max", 1),
            n_r_max=spec_sec.get("n_r_max", 2),
            m_ell_max=spec_sec.get("m_ell_max", 5),
            j=spec_sec.get("j", 0),
            ratio_threshold=spec_sec.get("ratio_threshold", 10.0),
            grid_points=spec_sec.get("grid_points", 3001),
        )
    except InvalidInputError as err:
        raise ConfigError(f"spectrum: {err}") from err

    omega0_default = _default_omega0(beam, species)
    ls = raw.get("lineshape", {})
    omega_r = ls.get("Omega_R", 3.142)
    if omega_r <= 0:
        raise ConfigError("lineshape.Omega_R must be positive")
    shift_sec = ls.get("shift_model", {"model": "quadratic", "scale_s": 0.0})
    model_name = shift_sec.get("model", "quadratic")
    if model_name not in SHIFT_MODELS:
        raise ConfigError(
            f"lineshape.shift_model.model '{model_name}' not one of {sorted(SHIFT_MODELS)}"
        )
    scale_s = shift_sec.get("scale_s")
    target = shift_sec.get("calibrate_delta_max_over_OmegaR")
    if model_name == "quadratic" and scale_s is None and target is None:
        scale_s = 0.0
    if scale_s is not None and scale_s < 0:
        raise ConfigError("lineshape.shift_model.scale_s must be non-negative")
    lineshape = LineshapeJob(
        omega_0=ls.get("omega_0", omega0_default),
        Omega_R=omega_r,
        tau=ls.get("tau", float(np.pi / omega_r)),
        j_max=ls.get("j_max", 80),
        kick_oam_L=ls.get("kick_oam_L", 25),
        shift_model_name=model_name,
        shift_scale_s=scale_s,
        calibrate_delta_max_over_OmegaR=target,
        grid_half_width_over_OmegaR=ls.get("grid_half_width_over_OmegaR", 8.0),
        grid_points=ls.get("grid_points", 1601),
    )
    if lineshape.j_max < 0:
        raise ConfigError("lineshape.j_max must be non-negative")
    if lineshape.tau <= 0:
        raise ConfigError("lineshape.tau must be positive")

    sen = raw.get("sensor", {})
    try:
        sensor = SensorConfig(
            kick_oam_L=sen.get("kick_oam_L", 25),
            ring_count_N=sen.get("ring_count_N", 161),
            omega_0=sen.get("omega_0", omega0_default),
            Omega_R=sen.get("Omega_R", 3.142),
            freq_uncertainty_pump=sen.get("freq_uncertainty_pump", 1.43e-9),
            freq_uncertainty_stokes=sen.get("freq_uncertainty_stokes", 1.43e-9),
            photon_count_pump=sen.get("photon_count_pump", 1e29),
            photon_count_stokes=sen.get("photon_count_stokes", 1e29),
            Delta_hf=sen.get("Delta_hf", 1.26e8),
        )
    except InvalidInputError as err:
        raise ConfigError(f"sensor: {err}") from err

    scan = raw.get("rotation_scan", {})
    if "Omega_values" in scan:
        omegas = tuple(float(v) for v in scan["Omega_values"])
    else:
        omega0_scan = scan.get("omega_0", omega0_default)
        lo = scan.get("Omega_min", -2.0 * omega0_scan)
        hi = scan.get("Omega_max", 2.0 * omega0_scan)
        n = scan.get("points", 81)
        if n < 2 or hi <= lo:
            raise ConfigError("rotation_scan needs points >= 2 and Omega_max > Omega_min")
        omegas = tuple(np.linspace(lo, hi, n))
    rotation_scan = RotationScanJob(
        omega_0=scan.get("omega_0", omega0_default),
        kick_oam_L=scan.get("kick_oam_L", 25),
        omega_values=omegas,
    )

    tilt_sec = raw.get("tilt", {})

    def _vec(key, default):
        v = tilt_sec.get(key, default)
        if not (isinstance(v, (list, tuple)) and len(v) == 3):
            raise ConfigError(f"tilt.{key} must be a 3-vector")
        return tuple(float(x) for x in v)

    tilt = TiltJob(
        gravity_g=_vec("gravity_g", [0.0, 0.0, -9.80665]),
        acceleration_a=_vec("acceleration_a", [0.0, 0.0, 0.0]),
        angular_velocity_Omega=_vec("angular_velocity_Omega", [0.0, 0.0, 0.0]),
    )

    out = raw.get("output", {})
    output_format = out.get("format", "csv")
    if output_format not in ("csv", "json"):
        raise ConfigError("output.format must be 'csv' or 'json'")
    parallelism = raw.get("parallelism", 1)
    if not isinstance(parallelism, int) or parallelism < 1:
        raise ConfigError("parallelism must be a positive integer")

    resolved = {
        "species": {
            "label": species.label,
            "mass_kg": species.mass,
            "g_factor": species.g_factor,
            "hyperfine_splitting": species.hyperfine_splitting,
            "F_ground": species.F_ground,
        },
        "beam": {
            "wavelength": beam.wavelength,
            "waist_w0": beam.waist_w0,
            "power_P0": beam.power_P0,
            "oam_l": beam.oam_l,
            "radial_p": beam.radial_p,
            "phase_z0": beam.phase_z0,
            "trap_depth_J": beam.trap_depth_V0,
            "collimated": beam.collimated,
            "z_eff": beam.z_eff,
        },
        "spectrum": {
            "n_z_max": limits.n_z_max,
            "n_r_max": limits.n_r_max,
            "m_ell_max": limits.m_ell_max,
            "j": limits.j,
            "ratio_threshold": limits.ratio_threshold,
            "grid_points": limits.grid_points,
        },
        "lineshape": {
            "omega_0": lineshape.omega_0,
            "Omega_R": lineshape.Omega_R,
            "tau": lineshape.tau,
            "j_max": lineshape.j_max,
            "kick_oam_L": lineshape.kick_oam_L,
            "shift_model": lineshape.shift_model_name,
            "scale_s": lineshape.shift_scale_s,
            "calibrate_delta_max_over_OmegaR": lineshape.calibrate_delta_max_over_OmegaR,
            "grid_half_width_over_OmegaR": lineshape.grid_half_width_over_OmegaR,
            "grid_points": lineshape.grid_points,
        },
        "sensor": {
            "kick_oam_L": sensor.kick_oam_L,
            "ring_count_N": sensor.ring_count_N,
            "omega_0": sensor.omega_0,
            "Omega_R": sensor.Omega_R,
            "freq_uncertainty_pump": sensor.freq_uncertainty_pump,
            "freq_uncertainty_stokes": sensor.freq_uncertainty_stokes,
            "photon_count_pump": sensor.photon_count_pump,
            "photon_count_stokes": sensor.photon_count_stokes,
            "Delta_hf": sensor.Delta_hf,
        },
        "rotation_scan": {
            "omega_0": rotation_scan.omega_0,
            "kick_oam_L": rotation_scan.kick_oam_L,
            "n_points": len(rotation_scan.omega_values),
        },
        "tilt": {
            "gravity_g": list(tilt.gravity_g),
            "acceleration_a": list(tilt.acceleration_a),
            "angular_velocity_Omega": list(tilt.angular_velocity_Omega),
        },
        "output": {"path": out.get("path"), "format": output_format},
        "parallelism": parallelism,
    }
    return RunConfig(
        species=species,
        beam=beam,
        spectrum=limits,
        lineshape=lineshape,
        sensor=sensor,
        rotation_scan=rotation_scan,
        tilt=tilt,
        output_path=out.get("path", ""),
        output_format=output_format,
        parallelism=parallelism,
        resolved=resolved,
    )
