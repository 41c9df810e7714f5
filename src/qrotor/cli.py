"""Command-line front end.

Subcommands compute one artifact each and write CSV or JSON with fixed
formatting (nine significant digits, fixed orderings), so repeated runs on the
same configuration are byte-identical, at any worker count.

Exit codes: 0 success, 2 configuration error (also an unwritable output),
3 numerical-convergence error.
"""

from __future__ import annotations

import dataclasses
import functools
import sys

import click
import numpy as np

from .config import RunConfig, parse_config
from .exceptions import CalibrationTargetError, ConfigError, ConvergenceError, QRotorError
from .output import write_csv, write_json, write_together
from .raman import (
    calibrate_quadratic_scale,
    fit_lineshape,
    lineshape_from_rabi,
    lineshape_peak,
    ring_shifts,
)
from .sensor import rotation_scan_rows, sensor_budget, tilt_compensation
from .spectrum import assemble_spectrum, spectrum_rows
from .units import HBAR

EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3


def _guarded(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ConvergenceError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_CONVERGENCE)
        except QRotorError as err:
            # every other library error is an input this run cannot take
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_CONFIG)
        except OSError as err:
            click.echo(f"error: cannot write the output: {err}", err=True)
            sys.exit(EXIT_CONFIG)

    return wrapper


def _write_quantities(out_path, fmt, payload: dict) -> None:
    """The payload as JSON, or its scalar entries as a quantity,value CSV."""
    if fmt == "csv":
        write_together((write_csv, out_path, ["quantity", "value"],
                        [(k, v) for k, v in payload.items() if not isinstance(v, (dict, list))]))
    else:
        write_together((write_json, out_path, payload))


def _load(config_path, out, fmt, parallel) -> tuple[RunConfig, str, str, int]:
    cfg = parse_config(config_path)
    out_path = out or cfg.output_path
    if not out_path:
        raise ConfigError("no output path: pass --out or set output.path in the config")
    fmt = fmt or cfg.output_format
    workers = parallel if parallel is not None else cfg.parallelism
    return cfg, out_path, fmt, workers


def _common_options(fn):
    fn = click.option("--config", "config_path", required=True,
                      type=click.Path(), help="JSON run configuration.")(fn)
    fn = click.option("--out", default=None, type=click.Path(),
                      help="Output file (overrides config output.path).")(fn)
    fn = click.option("--format", "fmt", default=None,
                      type=click.Choice(["csv", "json"]),
                      help="Output format (overrides config).")(fn)
    fn = click.option("--parallel", default=None, type=click.IntRange(min=1),
                      help="Worker count for grid sweeps (default from config).")(fn)
    return fn


@click.group()
def cli():
    """Ring-trap rotor spectra, Raman lineshapes, and rotation-sensor budgets."""


@cli.command()
@_common_options
@_guarded
def spectrum(config_path, out, fmt, parallel):
    """Bound-state level table of the ring trap."""
    cfg, out_path, fmt, _ = _load(config_path, out, fmt, parallel)
    spec = assemble_spectrum(cfg.beam, cfg.species, cfg.spectrum)
    rows = spectrum_rows(spec)
    header = ["n_z", "n_r", "m_ell", "energy_J", "energy_kB_nK", "degeneracy"]
    if fmt == "csv":
        write_together((write_csv, out_path, header, rows))
    else:
        write_together((write_json, out_path, {
            "levels": [dict(zip(header, row)) for row in rows],
            "gaps_J": {"eps_z": spec.gaps[0], "eps_r": spec.gaps[1],
                       "eps_ell": spec.gaps[2]},
            "inequalities_ok": spec.inequalities_ok,
            "ratio_threshold": spec.ratio_threshold,
        }))
    click.echo(f"wrote {out_path} ({len(rows)} levels, inequalities_ok={spec.inequalities_ok})")


@cli.command()
@_common_options
@click.option("--jmax", default=None, type=click.IntRange(min=0),
              help="Override ring-stack half-size.")
@_guarded
def lineshape(config_path, out, fmt, parallel, jmax):
    """Stack-averaged Raman transfer curve and its three-parameter fit."""
    cfg, out_path, fmt, workers = _load(config_path, out, fmt, parallel)
    job = cfg.lineshape
    j_max = jmax if jmax is not None else job.j_max
    omega_r, tau = job.Omega_R, job.tau

    calibration, scale_s = None, job.shift_scale_s
    if job.calibrate_delta_max_over_OmegaR is not None:
        try:
            calibration = calibrate_quadratic_scale(
                omega_r, tau, j_max, job.calibrate_delta_max_over_OmegaR * omega_r
            )
        except CalibrationTargetError as err:
            raise ConfigError(
                f"lineshape.shift_model.calibrate_delta_max_over_OmegaR: {err}") from err
        scale_s = calibration.scale_s
    shifts = ring_shifts(job.shift_model_name, j_max, scale_s, cfg.beam, cfg.species,
                         job.kick_oam_L)

    half = job.grid_half_width_over_OmegaR * omega_r
    ls = lineshape_from_rabi(omega_r, tau, shifts, np.linspace(-half, half, job.grid_points),
                             workers=workers)
    fit = fit_lineshape(ls)
    if calibration is not None:
        d_max, p_max = calibration.delta_max, calibration.P_max
    else:
        d_max, p_max = lineshape_peak(omega_r, tau, shifts)

    fit_payload = {
        "amplitude_A": fit.amplitude_A,
        "delta_0": fit.delta_0,
        "Omega_R_eff": fit.Omega_R_eff,
        "rms_residual": fit.rms_residual,
        "delta_0_over_OmegaR": fit.delta_0 / omega_r,
        "Omega_R_eff_over_OmegaR": fit.Omega_R_eff / omega_r,
        "peak": {"delta_max": d_max, "delta_max_over_OmegaR": d_max / omega_r,
                 "P_max": p_max},
        "shift_model": job.shift_model_name,
        "scale_s": scale_s,
        "calibration_on_target": None if calibration is None else calibration.on_target,
    }
    curve_rows = list(zip((ls.delta_grid / omega_r).tolist(), ls.probability.tolist()))
    if fmt == "csv":
        fit_path = str(out_path) + ".fit.json"
        write_together((write_csv, out_path, ["delta_over_OmegaR", "probability"], curve_rows),
                       (write_json, fit_path, fit_payload))
        click.echo(f"wrote {out_path} and {fit_path}")
    else:
        write_together((write_json, out_path, {
            "curve": [{"delta_over_OmegaR": a, "probability": b} for a, b in curve_rows],
            "fit": fit_payload,
        }))
        click.echo(f"wrote {out_path}")


@cli.command("rotation-scan")
@_common_options
@click.option("--omega", default=None, type=float,
              help="Single rotation rate (rad/s) instead of the configured scan.")
@_guarded
def rotation_scan(config_path, out, fmt, parallel, omega):
    """Line frequencies of the six low-m transitions versus rotation rate."""
    cfg, out_path, fmt, _ = _load(config_path, out, fmt, parallel)
    job = cfg.rotation_scan
    omegas = (omega,) if omega is not None else job.omega_values
    rows = rotation_scan_rows(job.omega_0, job.kick_oam_L, omegas)
    header = ["Omega", "m_ell", "zeta", "frequency"]
    if fmt == "csv":
        write_together((write_csv, out_path, header, rows))
    else:
        write_together((write_json, out_path, {"lines": [dict(zip(header, r)) for r in rows]}))
    click.echo(f"wrote {out_path} ({len(rows)} rows)")


@cli.command()
@_common_options
@_guarded
def budget(config_path, out, fmt, parallel):
    """Three-channel rotation-rate uncertainty budget."""
    cfg, out_path, fmt, _ = _load(config_path, out, fmt, parallel)
    b = sensor_budget(cfg.sensor)
    payload = {
        "inputs": dataclasses.asdict(cfg.sensor),
        "dOmega_freq": b.dOmega_freq,
        "dOmega_rabi": b.dOmega_rabi,
        "dOmega_shot": b.dOmega_shot,
        "phase_rabi": b.phase_rabi,
        "energy_rabi_J": b.energy_rabi,
        "energy_rabi_over_hbar": b.energy_rabi / HBAR,
        "phase_shot": b.phase_shot,
        "energy_shot_J": b.energy_shot,
        "energy_shot_over_hbar": b.energy_shot / HBAR,
    }
    _write_quantities(out_path, fmt, payload)
    click.echo(f"wrote {out_path}")


@cli.command()
@_common_options
@_guarded
def tilt(config_path, out, fmt, parallel):
    """Effective-gravity tilt geometry."""
    cfg, out_path, fmt, _ = _load(config_path, out, fmt, parallel)
    geo = tilt_compensation(cfg.tilt.gravity_g, cfg.tilt.acceleration_a,
                            cfg.tilt.angular_velocity_Omega)
    payload = {
        "gravity_g": list(geo.gravity_g),
        "acceleration_a": list(geo.acceleration_a),
        "angular_velocity_Omega": list(geo.angular_velocity_Omega),
        "tilt_angle_theta_a_rad": geo.tilt_angle_theta_a,
        "tilt_angle_theta_a_deg": float(np.degrees(geo.tilt_angle_theta_a)),
        "effective_Omega_prime": geo.effective_Omega_prime,
    }
    _write_quantities(out_path, fmt, payload)
    click.echo(f"wrote {out_path}")


def main():
    cli()


if __name__ == "__main__":
    main()
