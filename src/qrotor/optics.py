"""Laguerre-Gaussian trap optics: mode amplitudes, ring potential, harmonic scales.

A retro-reflected LG beam with orbital angular momentum l and p = 0 forms a
standing wave whose intensity maxima are stacked rings: the cos^2 standing-wave
factor selects axial planes z_j spaced by half a wavelength, and the donut
profile r^|l| exp(-r^2/w^2) peaks on a circle of radius r_l(z) = w(z) sqrt(|l|/2).
Red-detuned light traps atoms on those rings.  Near a ring the potential
separates into a radial profile V_l(r) and a harmonic axial well W_j(z), whose
frequency and oscillator length are fixed by the trap depth and the recoil
energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, UnsupportedModeError
from .units import HBAR, C_LIGHT, AtomSpecies, recoil_energy


@dataclass(frozen=True)
class BeamConfig:
    """Trap-beam parameters.

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
        Orbital angular momentum index of the trap beam.
    radial_p : int
        Radial mode index.  The mode envelope, the trap and the spectrum
        all require p = 0.
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
    radial_p: int = 0
    phase_z0: float = 0.0
    trap_depth_V0: float = 0.0
    collimated: bool = False
    z_eff: float | None = None

    def __post_init__(self):
        if self.wavelength <= 0:
            raise InvalidInputError("wavelength must be positive")
        if self.waist_w0 <= 0:
            raise InvalidInputError("waist_w0 must be positive")
        if self.radial_p < 0:
            raise InvalidInputError("radial_p must be a non-negative integer")
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
    """Derived geometry and harmonic scales of one ring minimum."""

    ring_index_j: int
    z_j: float
    r_l: float
    w_at_zj: float
    omega_z: float
    b_z: float
    depth_at_ring: float


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
    if beam.radial_p != 0:
        raise UnsupportedModeError("the mode envelope is defined for radial_p = 0 modes only")
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
    if beam.radial_p != 0:
        raise UnsupportedModeError("trap potential is defined for radial_p = 0 modes only")
    l = abs(beam.oam_l)
    if l == 0:
        raise UnsupportedModeError("ring trap requires a nonzero OAM index")
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


def ring_minima(beam: BeamConfig, species: AtomSpecies, j_range) -> list[TrapGeometry]:
    """Geometry and harmonic scales for each requested ring index.

    For ring j: z_j = pi j / k + z0, r_l = w(z_j) sqrt(|l|/2), axial harmonic
    frequency omega_z = (2 / ww(z_j)) sqrt(E0 V0) / hbar with E0 the recoil
    energy, oscillator length b_z = sqrt(ww(z_j)) / k * (E0/V0)^(1/4), and
    ring depth -V0 (w0 / w(z_j))^2.
    """
    if beam.trap_depth_V0 <= 0:
        raise InvalidInputError("trap_depth_V0 must be positive for bound rings")
    e0 = recoil_energy(species, beam.wavelength)
    k = beam.wavenumber
    out = []
    for j in j_range:
        z_j = float(beam.ring_z(j))
        w = float(beam.width(z_j))
        ww = w / beam.waist_w0
        omega_z = (2.0 / ww) * np.sqrt(e0 * beam.trap_depth_V0) / HBAR
        b_z = np.sqrt(ww) / k * (e0 / beam.trap_depth_V0) ** 0.25
        out.append(
            TrapGeometry(
                ring_index_j=int(j),
                z_j=z_j,
                r_l=float(beam.ring_radius(z_j)),
                w_at_zj=w,
                omega_z=float(omega_z),
                b_z=float(b_z),
                depth_at_ring=float(-beam.trap_depth_V0 / ww**2),
            )
        )
    return out


def harmonic_decomposition(beam: BeamConfig, j: int):
    """Radial profile and axial harmonic well near ring j.

    Returns ``(V_l, W_j)``: V_l(r) is the full radial potential in the plane
    z = z_j (not harmonically expanded), and W_j(z) is the quadratic axial
    well V0 k^2 / ww(z_j)^2 * (z - z_j)^2 obtained from the standing wave.
    """
    if beam.radial_p != 0:
        raise UnsupportedModeError("harmonic decomposition requires radial_p = 0")
    z_j = float(beam.ring_z(j))
    ww2 = float((beam.width(z_j) / beam.waist_w0) ** 2)
    k2v0 = beam.trap_depth_V0 * beam.wavenumber**2 / ww2

    def v_radial(r):
        return optical_potential(beam, r, z_j)

    def w_axial(z):
        return k2v0 * (np.asarray(z, dtype=float) - z_j) ** 2

    return v_radial, w_axial


def radial_curvature(beam: BeamConfig, j: int) -> float:
    """Second derivative of V_l at the ring radius: 4 |l| V0 / (ww^2 r_l^2)."""
    l = abs(beam.oam_l)
    z_j = float(beam.ring_z(j))
    r_l = float(beam.ring_radius(z_j))
    ww2 = float((beam.width(z_j) / beam.waist_w0) ** 2)
    return 4.0 * l * beam.trap_depth_V0 / (ww2 * r_l**2)


def radial_trap_frequency(beam: BeamConfig, species: AtomSpecies, j: int = 0) -> float:
    """Harmonic radial frequency sqrt(V_l''(r_l) / M).

    At the waist this reduces to sqrt(8 V0 / (M w0^2)), independent of l:
    the ring radius grows as sqrt(l) at exactly the rate that cancels the
    l-dependence of the curvature.
    """
    return float(np.sqrt(radial_curvature(beam, j) / species.mass))


def trap_depth_from_power(polarizability: float, beam: BeamConfig) -> float:
    """Optional helper: depth V0 = 8 alpha P0 l^l e^-l / (pi l! c w0^2).

    Derived from V = -alpha |E|^2 with the counter-propagating standing wave
    evaluated at its ring maximum.
    """
    l = abs(beam.oam_l)
    if l == 0:
        raise UnsupportedModeError("ring trap requires a nonzero OAM index")
    return (
        8.0
        * polarizability
        * beam.power_P0
        * ring_peak_factor(l)
        / (math.pi * C_LIGHT * beam.waist_w0**2)
    )
