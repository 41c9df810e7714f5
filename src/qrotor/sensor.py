"""Rotation-sensor observables and the three-channel uncertainty budget.

With the rotor energies eps_m = m^2 hbar w0 + hbar Omega m, the kick-pulse
transitions |zeta m> -> |zeta (m + 2L)> form spectral lines at

    w(m, zeta) = 4 L (L + m) w0 + 2 zeta L Omega,

pairwise degenerate at Omega = 0 and split by exactly 4 L Omega when rotating;
the splitting is the sensor observable, independent of which line is used.
The uncertainty channels (pump/Stokes frequency stability, Rabi-frequency
fluctuation, photon shot noise) are reported separately, never summed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .units import HBAR


@dataclass(frozen=True)
class SensorConfig:
    """Inputs for the uncertainty budget; frequencies in rad/s."""

    kick_oam_L: int
    ring_count_N: int
    omega_0: float
    Omega_R: float
    freq_uncertainty_pump: float
    freq_uncertainty_stokes: float
    photon_count_pump: float
    photon_count_stokes: float
    Delta_hf: float

    def __post_init__(self):
        if self.kick_oam_L < 1:
            raise InvalidInputError("kick_oam_L must be >= 1")
        if self.ring_count_N < 1 or self.ring_count_N % 2 == 0:
            raise InvalidInputError("ring_count_N must be a positive odd integer")
        for name in ("omega_0", "Omega_R", "photon_count_pump",
                     "photon_count_stokes", "Delta_hf"):
            if getattr(self, name) <= 0:
                raise InvalidInputError(f"{name} must be positive")
        for name in ("freq_uncertainty_pump", "freq_uncertainty_stokes"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")


@dataclass(frozen=True)
class SensorBudget:
    """Rotation-rate uncertainties (rad/s) and their phase/energy intermediates."""

    dOmega_freq: float
    dOmega_rabi: float
    dOmega_shot: float
    phase_rabi: float        # delta phi_omega
    energy_rabi: float       # delta eps_omega (J)
    phase_shot: float        # delta phi_I
    energy_shot: float       # delta eps_I (J)


@dataclass(frozen=True)
class TiltGeometry:
    """Effective-gravity frame for discriminating in-plane acceleration."""

    gravity_g: tuple[float, float, float]
    acceleration_a: tuple[float, float, float]
    angular_velocity_Omega: tuple[float, float, float]
    tilt_angle_theta_a: float
    effective_Omega_prime: float


def transition_frequency(
    m_ell: int, zeta: int, L: int, omega_0: float, Omega: float
) -> float:
    """Line frequency for |zeta m_ell> -> |zeta m_ell + 2 zeta L>.

    Computed from first principles as the rotating-frame energy difference;
    algebraically identical to 4 L (L + m_ell) w0 + 2 zeta L Omega.
    """
    if L < 1:
        raise InvalidInputError("L must be >= 1")
    if zeta not in (-1, 1):
        raise InvalidInputError("zeta must be +1 or -1")
    m_start = zeta * m_ell
    m_end = m_start + 2 * zeta * L

    def energy_over_hbar(m):
        return m * m * omega_0 + Omega * m

    return energy_over_hbar(m_end) - energy_over_hbar(m_start)


def budget_frequency(cfg: SensorConfig) -> float:
    """Rotation uncertainty from drive-frequency stability alone.

    dOmega = (d w_p + d w_s) / (4 L sqrt(N)); the splitting observable carries
    no trap or laser-intensity dependence, so nothing else enters.
    """
    domega = cfg.freq_uncertainty_pump + cfg.freq_uncertainty_stokes
    return domega / (4.0 * cfg.kick_oam_L * np.sqrt(cfg.ring_count_N))


def _rate_uncertainty(cfg: SensorConfig, deps: float) -> float:
    """Rotation-rate uncertainty d eps / (4 L hbar sqrt(N)) of an energy resolution."""
    return deps / (4.0 * cfg.kick_oam_L * HBAR * np.sqrt(cfg.ring_count_N))


def budget_rabi_fluctuation(cfg: SensorConfig) -> tuple[float, float, float]:
    """(d phi_w, d eps_w, d Omega_w): pulse-area jitter from frequency noise.

    The pi-pulse area phi_R = pi inherits the fractional frequency noise
    through the hyperfine detuning; the distinguishable energy splitting is
    d eps = 4 hbar Omega_R d phi, and the rate uncertainty follows as
    d eps / (4 L hbar sqrt(N)).
    """
    phi_r = np.pi
    dphi = phi_r * np.sqrt(
        (cfg.freq_uncertainty_pump / cfg.Delta_hf) ** 2
        + (cfg.freq_uncertainty_stokes / cfg.Delta_hf) ** 2
    )
    deps = 4.0 * HBAR * cfg.Omega_R * dphi
    return float(dphi), float(deps), float(_rate_uncertainty(cfg, deps))


def budget_shot_noise(cfg: SensorConfig) -> tuple[float, float, float]:
    """(d phi_I, d eps_I, d Omega_I): photon shot noise in the drive pulses.

    d phi_I = pi (N_p^-1/2 + N_s^-1/2); the energy resolution scales as
    d eps_I / (4 hbar Omega_R) = d phi_I / pi.
    """
    dphi = np.pi * (
        1.0 / np.sqrt(cfg.photon_count_pump) + 1.0 / np.sqrt(cfg.photon_count_stokes)
    )
    deps = 4.0 * HBAR * cfg.Omega_R * dphi / np.pi
    return float(dphi), float(deps), float(_rate_uncertainty(cfg, deps))


def sensor_budget(cfg: SensorConfig) -> SensorBudget:
    """All three channels, reported separately."""
    dphi_w, deps_w, dom_w = budget_rabi_fluctuation(cfg)
    dphi_i, deps_i, dom_i = budget_shot_noise(cfg)
    return SensorBudget(
        dOmega_freq=float(budget_frequency(cfg)),
        dOmega_rabi=dom_w,
        dOmega_shot=dom_i,
        phase_rabi=dphi_w,
        energy_rabi=deps_w,
        phase_shot=dphi_i,
        energy_shot=deps_i,
    )


def tilt_compensation(g, a, Omega) -> TiltGeometry:
    """Reorient the rotor plane perpendicular to effective gravity g' = g - a.

    Returns the tilt angle between g and g' and the rotation-rate component
    Omega' = Omega . e_z' actually sensed, with e_z' = -g'/|g'|.
    """
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    Omega = np.asarray(Omega, dtype=float)
    if g.shape != (3,) or a.shape != (3,) or Omega.shape != (3,):
        raise InvalidInputError("g, a, Omega must be 3-vectors")
    g_eff = g - a
    norm = np.linalg.norm(g_eff)
    if norm == 0.0:
        raise InvalidInputError("effective gravity vanishes; orientation undefined")
    e_z_prime = -g_eff / norm
    g_norm = np.linalg.norm(g)
    if g_norm == 0.0:
        theta = 0.0
    else:
        cosang = np.clip(np.dot(g, g_eff) / (g_norm * norm), -1.0, 1.0)
        theta = float(np.arccos(cosang))
    return TiltGeometry(
        gravity_g=tuple(g),
        acceleration_a=tuple(a),
        angular_velocity_Omega=tuple(Omega),
        tilt_angle_theta_a=theta,
        effective_Omega_prime=float(np.dot(Omega, e_z_prime)),
    )


def rotation_scan_rows(omega_0: float, L: int, omegas):
    """Rows (Omega, m_ell, zeta, frequency) for the six low-m lines."""
    lines = [(0, +1), (0, -1), (1, +1), (-1, -1), (1, -1), (-1, +1)]
    rows = []
    for om in omegas:
        for m, zeta in lines:
            rows.append((om, m, zeta, transition_frequency(m, zeta, L, omega_0, om)))
    return rows
