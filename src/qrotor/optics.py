"""Laguerre-Gaussian trap optics: mode amplitudes, ring potential, harmonic scales.

A retro-reflected LG beam with orbital angular momentum l and p = 0 forms a
standing wave whose intensity maxima are stacked rings: the cos^2 standing-wave
factor selects axial planes z_j spaced by half a wavelength, and the donut
profile r^|l| exp(-r^2/w^2) peaks on a circle of radius r_l(z) = w(z) sqrt(|l|/2).
Red-detuned light traps atoms on those rings.  Near a ring the potential
separates into a radial profile V_l(r) and a harmonic axial well; `ring_minima`
computes each ring's geometry and the curvature, frequency and oscillator
length of both axes once, and the spectrum reads them from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .units import HBAR, C_LIGHT, AtomSpecies


@dataclass(frozen=True)
class BeamConfig:
    """Trap-beam parameters of the p = 0 ring trap.

    Parameters
    ----------
    wavelength : float
        Laser wavelength (m).
    waist_w0 : float
        Beam waist at focus (m).
    power_P0 : float
        Beam power (W).  Enters only the mode amplitude normalisation; the
        trap depth is specified directly via ``trap_depth_V0``.
    oam_l : int
        Orbital angular momentum index of the trap beam; nonzero, since an
        l = 0 beam has no ring.
    phase_z0 : float
        Standing-wave phase offset (m); rings sit at z_j = pi j / k + z0.
        Must satisfy 0 < z0 < wavelength / 2.
    trap_depth_V0 : float
        Trap depth (J), i.e. the potential amplitude of the standing wave.
    collimated : bool
        If True, freeze w(z) = w0 (uniform-waist region between the relay
        lenses); wavefront-curvature and axial phases are dropped in the
        same limit.
    z_eff : float or None
        Effective divergence length replacing the Rayleigh range when
        modelling residual ring-radius variation along the stack.
    """

    wavelength: float
    waist_w0: float
    power_P0: float
    oam_l: int
    phase_z0: float = 0.0
    trap_depth_V0: float = 0.0
    collimated: bool = False
    z_eff: float | None = None

    def __post_init__(self):
        if self.wavelength <= 0:
            raise InvalidInputError("wavelength must be positive")
        if self.waist_w0 <= 0:
            raise InvalidInputError("waist_w0 must be positive")
        if self.oam_l == 0:
            raise InvalidInputError("oam_l must be nonzero: an l = 0 beam has no ring")
        if not 0.0 < self.phase_z0 < self.wavelength / 2.0:
            raise InvalidInputError(
                "phase_z0 must satisfy 0 < phase_z0 < wavelength/2"
            )
        if self.z_eff is not None and self.z_eff <= 0:
            raise InvalidInputError("z_eff must be positive when given")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength

    @property
    def rayleigh_range(self) -> float:
        return np.pi * self.waist_w0**2 / self.wavelength

    @property
    def divergence_length(self) -> float:
        """Length scale governing w(z); ``z_eff`` overrides the Rayleigh range."""
        return self.z_eff if self.z_eff is not None else self.rayleigh_range

    def width(self, z):
        """Beam radius w(z) = w0 sqrt(1 + (z/z_div)^2); constant if collimated."""
        if self.collimated:
            return self.waist_w0 * np.ones_like(np.asarray(z, dtype=float))
        zr = self.divergence_length
        return self.waist_w0 * np.sqrt(1.0 + (np.asarray(z, dtype=float) / zr) ** 2)

    def ring_radius(self, z):
        """Radius r_l(z) = w(z) sqrt(|l|/2) of the intensity ring at height z."""
        return self.width(z) * np.sqrt(abs(self.oam_l) / 2.0)

    def ring_z(self, j) -> float:
        """Axial position z_j = pi j / k + z0 of standing-wave antinode j."""
        return np.pi * np.asarray(j) / self.wavenumber + self.phase_z0


@dataclass(frozen=True)
class TrapGeometry:
    """One ring minimum and the harmonic wells about it.

    ``ww2`` is (w(z_j)/w0)^2 and ``depth_at_ring`` = -V0 / ww2.  Each axis
    carries its curvature kappa, frequency omega = sqrt(kappa / M) and
    oscillator length b = sqrt(hbar / (M omega)).
    """

    ring_index_j: int
    z_j: float
    r_l: float
    ww2: float
    depth_at_ring: float
    kappa_z: float
    omega_z: float
    b_z: float
    kappa_r: float
    omega_r: float
    b_r: float


def ring_peak_factor(l: int) -> float:
    """l^l e^-l / l!, the ring maximum of the p = 0 profile x^l e^-x / l!, x = 2 r^2/w^2.

    Evaluated in log space (stable for large l).
    """
    return math.exp(l * math.log(l) - l - math.lgamma(l + 1))


def lg_mode_amplitude(beam: BeamConfig, r, phi, z):
    """Slowly varying LG mode envelope u_{l,0}(r, phi, z) of a p = 0 beam.

    Includes the donut amplitude (r sqrt(2)/w)^|l| exp(-r^2/w^2), the
    wavefront-curvature phase, the axial mode phase (|l| + 1) atan(z/z_R), and
    the azimuthal winding exp(-i l phi).  Normalisation sqrt(2 / (pi |l|!))
    with field scale sqrt(P0/c)/w(z), so |u|^2 integrates to P0/c over a
    transverse plane.

    Parameters are scalars or broadcastable arrays; r must be >= 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise InvalidInputError("r must be non-negative")
    l = abs(beam.oam_l)
    w = beam.width(z)

    log_norm = 0.5 * (math.log(2.0) - math.log(math.pi) - math.lgamma(l + 1))
    amp = (
        math.exp(log_norm)
        * np.sqrt(beam.power_P0 / C_LIGHT)
        / w
        * (r * np.sqrt(2.0) / w) ** l
        * np.exp(-(r**2) / w**2)
    )

    phase = -beam.oam_l * np.asarray(phi, dtype=float)
    if not beam.collimated:
        zr = beam.divergence_length
        z = np.asarray(z, dtype=float)
        phase = (
            phase
            - beam.wavenumber * r**2 * z / (2.0 * (z**2 + zr**2))
            + (l + 1) * np.arctan(z / zr)
        )
    return amp * np.exp(1j * phase)


def optical_potential(beam: BeamConfig, r, z):
    """Standing-wave ring potential of the counter-propagating p = 0 trap.

    V(r, z) = -V0 cos^2(k (z - z0)) * rho^{2|l|} / ww^2 * exp(-|l| (rho^2 - 1)),
    with rho = r / r_l(z) and ww = w(z)/w0.  On the ring (rho = 1, antinode)
    this evaluates to -V0 (w0/w(z))^2; it vanishes on the beam axis and at the
    standing-wave nodes.
    """
    l = abs(beam.oam_l)
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    w = beam.width(z)
    ww2 = (w / beam.waist_w0) ** 2
    rho2 = (r / beam.ring_radius(z)) ** 2
    axial = np.cos(beam.wavenumber * (z - beam.phase_z0)) ** 2
    # rho^{2l} e^{-l(rho^2 - 1)} in log space: the plain power form overflows
    # to inf * 0 for rho^2 >~ 10^(308/l)
    with np.errstate(divide="ignore"):
        radial = np.exp(l * (np.log(rho2) - rho2 + 1.0))
    radial = np.where(rho2 > 0.0, radial, 0.0)
    return -beam.trap_depth_V0 * axial * radial / ww2


def _oscillator(kappa: float, mass: float) -> tuple[float, float]:
    """Frequency sqrt(kappa / M) and oscillator length sqrt(hbar / (M omega))."""
    omega = float(np.sqrt(kappa / mass))
    return omega, float(np.sqrt(HBAR / (mass * omega)))


def ring_minima(beam: BeamConfig, species: AtomSpecies, j_range) -> list[TrapGeometry]:
    """Geometry and harmonic wells of each requested ring.

    For ring j: z_j = pi j / k + z0, r_l = w(z_j) sqrt(|l|/2), ww = w(z_j)/w0
    and depth -V0 / ww^2.  Expanding `optical_potential` about (r_l, z_j)
    gives the axial curvature kappa_z = 2 V0 k^2 / ww^2 (from the standing
    wave's cos^2) and the radial curvature kappa_r = 4 |l| V0 / (ww^2 r_l^2)
    (from the donut profile).  At the waist omega_r = sqrt(8 V0 / (M w0^2))
    for any l: the ring radius grows as sqrt(|l|) at exactly the rate that
    cancels the l-dependence of the curvature.
    """
    if beam.trap_depth_V0 <= 0:
        raise InvalidInputError("trap_depth_V0 must be positive for bound rings")
    v0, l = beam.trap_depth_V0, abs(beam.oam_l)
    out = []
    for j in j_range:
        z_j = float(beam.ring_z(j))
        r_l = float(beam.ring_radius(z_j))
        ww2 = float((beam.width(z_j) / beam.waist_w0) ** 2)
        kappa_z = 2.0 * v0 * beam.wavenumber**2 / ww2
        kappa_r = 4.0 * l * v0 / (ww2 * r_l**2)
        out.append(TrapGeometry(int(j), z_j, r_l, ww2, -v0 / ww2,
                                kappa_z, *_oscillator(kappa_z, species.mass),
                                kappa_r, *_oscillator(kappa_r, species.mass)))
    return out


def trap_depth_from_power(polarizability: float, beam: BeamConfig) -> float:
    """Optional helper: depth V0 = 8 alpha P0 l^l e^-l / (pi l! c w0^2).

    Derived from V = -alpha |E|^2 with the counter-propagating standing wave
    evaluated at its ring maximum.
    """
    return (
        8.0
        * polarizability
        * beam.power_P0
        * ring_peak_factor(abs(beam.oam_l))
        / (math.pi * C_LIGHT * beam.waist_w0**2)
    )
