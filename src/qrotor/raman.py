"""Stimulated-Raman couplings, Rabi dynamics, and ensemble lineshapes.

A pair of radio-frequency magnetic pulses (pump/Stokes) plus a far-detuned
optical kick pulse carrying orbital angular momentum L drives the rotor
transition m_ell = 0 -> +/- 2L.  The effective two-photon coupling factorises
into a magnetic part V_b, an optical part V_e, and the hyperfine detuning:

    V_b = g^2 mu_B^2 B_p B_s / (3 hbar Delta_hf)
    V_e = (4 alpha(w_e) / (pi L!)) * P_e L^L e^-L / (w_e^2 c)
    V   = V_e V_b / (hbar Delta_hf),      Omega_R = 2 sqrt(2) V / hbar

In the rotating-wave 3-level picture {|0>, |+2L>, |-2L>} the transfer
probability into the symmetric final state is the generalized Rabi formula

    P0(delta, Omega_R) = Omega_R^2/(Omega_R^2 + delta^2)
                         * sin^2( (tau/2) sqrt(Omega_R^2 + delta^2) ).

Rings at different heights z_j have slightly different radii, hence slightly
different rotor constants: the stack's average transfer peak is shifted and
broadened.  Several shift models are provided; the quadratic-in-j model with a
calibrated scale is the reproducible stand-in for the unspecified divergence
parameters of the trap beam.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import CalibrationTargetError, ConvergenceError, FitError, InvalidInputError
from .optics import BeamConfig, ring_peak_factor
from .output import parallel_map
from .spectrum import rotational_constant
from .units import HBAR, C_LIGHT, MU_B, AtomSpecies

# Operational reading of "much greater than" for the detuning hierarchy.
VALIDITY_RATIO = 10.0


@dataclass(frozen=True)
class RamanConfig:
    """Pump/Stokes/kick-pulse drive parameters.

    Magnetic field amplitudes in tesla, frequencies and detunings in rad/s,
    kick power in watts, kick waist in metres, scalar polarizability at the
    kick frequency in SI (C m^2 / V), pulse duration in seconds.
    """

    B_p0: float
    B_s0: float
    omega_p: float
    omega_s: float
    Delta_hf: float
    kick_power_P_e: float
    kick_waist_w_e: float
    kick_oam_L: int
    Delta_e: float
    polarizability_at_omega_e: float
    pulse_duration_tau: float

    def __post_init__(self):
        if self.kick_oam_L < 1:
            raise InvalidInputError("kick_oam_L must be a positive integer")
        if self.kick_waist_w_e <= 0:
            raise InvalidInputError("kick_waist_w_e must be positive")
        if self.Delta_hf == 0 or self.Delta_e == 0:
            raise InvalidInputError("detunings must be nonzero")
        if self.pulse_duration_tau < 0:
            raise InvalidInputError("pulse_duration_tau must be non-negative")

    @property
    def omega_ps(self) -> float:
        return self.omega_p - self.omega_s

    def check_matching(self, beam: BeamConfig, rtol: float = 1e-6) -> None:
        """Enforce the radius-matching condition w_e sqrt(L/2) = w0 sqrt(l/2)."""
        r_kick = self.kick_waist_w_e * np.sqrt(self.kick_oam_L / 2.0)
        r_trap = float(beam.ring_radius(0.0))
        if abs(r_kick - r_trap) > rtol * r_trap:
            raise InvalidInputError(
                "kick/trap radius matching violated: "
                f"w_e sqrt(L/2) = {r_kick:.6e} vs w0 sqrt(l/2) = {r_trap:.6e}"
            )

    def validity_warnings(self, omega_2L0: float | None = None) -> tuple[str, ...]:
        """Hierarchy checks |Delta_e| >> |Delta_hf| >> omega_2L0 (ratio >= 10)."""
        notes = []
        if abs(self.Delta_e) < VALIDITY_RATIO * abs(self.Delta_hf):
            notes.append(
                f"|Delta_e|/|Delta_hf| = {abs(self.Delta_e / self.Delta_hf):.3g} < {VALIDITY_RATIO:g}"
            )
        if omega_2L0 is not None and abs(self.Delta_hf) < VALIDITY_RATIO * abs(omega_2L0):
            notes.append(
                f"|Delta_hf|/omega_2L0 = {abs(self.Delta_hf / omega_2L0):.3g} < {VALIDITY_RATIO:g}"
            )
        return tuple(notes)


@dataclass(frozen=True)
class CouplingResult:
    """Effective Raman coupling chain; ``warnings`` carries validity notes."""

    V: float          # J
    V_b: float        # J
    V_e: float        # J
    Omega_R: float    # rad/s
    warnings: tuple[str, ...] = ()


def kick_stark_scale(cfg: RamanConfig) -> float:
    """V_e = (4 alpha / (pi L!)) P_e L^L e^-L / (w_e^2 c), the optical factor."""
    return (
        4.0
        * cfg.polarizability_at_omega_e
        / math.pi
        * ring_peak_factor(cfg.kick_oam_L)
        * cfg.kick_power_P_e
        / (cfg.kick_waist_w_e**2 * C_LIGHT)
    )


def effective_coupling(
    cfg: RamanConfig, species: AtomSpecies, omega_2L0: float | None = None
) -> CouplingResult:
    """Two-photon coupling V, its factors, and the Rabi frequency 2 sqrt(2) V / hbar.

    Violated detuning hierarchies are reported in ``warnings`` rather than
    raised: a marginal hierarchy degrades the model quietly, it does not make
    the numbers meaningless.
    """
    g = species.g_factor
    v_b = (
        g**2 * MU_B**2 * cfg.B_p0 * cfg.B_s0 / (3.0 * HBAR * cfg.Delta_hf)
    )
    v_e = kick_stark_scale(cfg)
    v = v_e * v_b / (HBAR * cfg.Delta_hf)
    omega_r = 2.0 * math.sqrt(2.0) * v / HBAR
    return CouplingResult(
        V=v, V_b=v_b, V_e=v_e, Omega_R=omega_r,
        warnings=cfg.validity_warnings(omega_2L0),
    )


def rwa_hamiltonian(delta: float, omega_r: float) -> np.ndarray:
    """3-level rotating-wave Hamiltonian over hbar on {|0>, |+2L>, |-2L>}.

    Off-diagonals Omega_R sqrt(2)/4 couple |0> to each kicked state; the
    kicked states sit at -delta.  Units: rad/s (energy / hbar).
    """
    c = omega_r * np.sqrt(2.0) / 4.0
    return np.array(
        [[0.0, c, c], [c, -delta, 0.0], [c, 0.0, -delta]], dtype=complex
    )


def transition_probability(delta, omega_r: float, tau: float):
    """Closed-form transfer probability into (|+2L> + |-2L>)/sqrt(2).

    P0 = Omega_R^2/(Omega_R^2 + delta^2) sin^2((tau/2) sqrt(Omega_R^2 + delta^2));
    peaks at 1 on resonance when tau = pi / Omega_R.
    """
    if omega_r < 0:
        raise InvalidInputError("omega_r must be non-negative")
    delta = np.asarray(delta, dtype=float)
    g2 = omega_r**2 + delta**2
    safe = np.where(g2 > 0.0, g2, 1.0)
    out = (omega_r**2 / safe) * np.sin(0.5 * tau * np.sqrt(g2)) ** 2
    return np.where(g2 > 0.0, out, 0.0)


_STATE_0 = np.array([1.0, 0.0, 0.0], dtype=complex)
_STATE_F = np.array([0.0, 1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def evolve_rwa(delta: float, omega_r: float, tau: float) -> float:
    """Evolution of |0> under the RWA Hamiltonian, exp(-i H tau) = V exp(-i E tau) V^+.

    Independent dynamics oracle: agrees with ``transition_probability`` to
    better than 1e-10 absolute everywhere.
    """
    energies, vecs = np.linalg.eigh(rwa_hamiltonian(delta, omega_r))
    u = (vecs * np.exp(-1j * energies * tau)) @ vecs.conj().T
    return float(np.abs(np.vdot(_STATE_F, u @ _STATE_0)) ** 2)


def peak_fwhm(omega_r: float, tau: float | None = None) -> float:
    """Full width at half maximum of the resonance peak (root-found).

    At the pi-pulse duration the width is 1.597 Omega_R.
    """
    from scipy.optimize import brentq

    if omega_r <= 0:
        raise InvalidInputError("omega_r must be positive")
    if tau is None:
        tau = np.pi / omega_r
    top = float(transition_probability(0.0, omega_r, tau))
    f = lambda d: float(transition_probability(d, omega_r, tau)) - top / 2.0
    half = brentq(f, 1e-9 * omega_r, 1.2 * omega_r, xtol=1e-14 * omega_r)
    return 2.0 * half


# --------------------------------------------------------------------------
# ring-to-ring resonance shifts and the stack-averaged lineshape


@dataclass(frozen=True)
class NoShift:
    """All rings resonate together; the stack average reduces to P0."""

    def shifts(self, j, beam=None, species=None, L=None):
        return np.zeros_like(np.asarray(j, dtype=float))


@dataclass(frozen=True)
class QuadraticShift:
    """delta_j = delta + s j^2 with a free non-negative scale.

    The leading ring-radius variation grows quadratically along the stack,
    so all physically motivated shift profiles reduce to this form; the scale
    absorbs the (unpublished) effective divergence length.
    """

    scale_s: float

    def __post_init__(self):
        if self.scale_s < 0:
            raise InvalidInputError("scale_s must be non-negative")

    def shifts(self, j, beam=None, species=None, L=None):
        return self.scale_s * np.asarray(j, dtype=float) ** 2


@dataclass(frozen=True)
class PhysicalShift:
    """delta_j = delta + 4 L^2 (omega0(r_l at ring 0) - omega0(r_l at ring j)).

    Uses the beam's divergence length (``z_eff`` when set) to evaluate the
    ring radii; omega0(r) = C(r) / hbar with the rotor constant C.
    """

    def shifts(self, j, beam: BeamConfig, species: AtomSpecies, L: int):
        if beam is None or species is None or L is None:
            raise InvalidInputError(
                "geometric shift models need beam, species, and kick OAM context"
            )
        j = np.asarray(j, dtype=float)
        c0 = rotational_constant(beam.ring_radius(beam.ring_z(0)), species)
        cj = rotational_constant(beam.ring_radius(beam.ring_z(j)), species)
        return 4.0 * L**2 * (c0 - cj) / HBAR


SHIFT_MODELS = {
    "none": NoShift,
    "quadratic": QuadraticShift,
    "physical": PhysicalShift,
}


@dataclass(frozen=True)
class Lineshape:
    """Stack-averaged transfer probability sampled on a detuning grid."""

    delta_grid: np.ndarray
    probability: np.ndarray
    Omega_R: float
    j_max: int
    tau: float

    def __post_init__(self):
        d = np.asarray(self.delta_grid, dtype=float)
        if d.ndim != 1 or len(d) < 2 or np.any(np.diff(d) <= 0):
            raise InvalidInputError("delta_grid must be strictly increasing")
        p = np.asarray(self.probability, dtype=float)
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise InvalidInputError("probabilities must lie in [0, 1]")


# Block sizes of the stack average: each temporary holds at most
# 4096 grid points x 256 rings of float64, about 8 MB, whatever the inputs.
_GRID_CHUNK = 4096
_RING_CHUNK = 256


def stack_average(delta, omega_r: float, tau: float, ring_shifts) -> np.ndarray:
    """Mean of P0(delta + shift_j) over the ring stack.

    Equal shifts are folded into (value, count) pairs first, so a symmetric
    profile such as s j^2 costs j_max + 1 rings instead of 2 j_max + 1, and an
    unshifted stack costs one.  The weighted sum then runs over blocks of
    grid points and of sorted shifts.  Each point's sum goes through the ring
    blocks in the same fixed order, so memory stays bounded and a point's
    value depends only on that point: splitting the grid across workers gives
    bit-identical results.
    """
    return _folded_average(delta, omega_r, tau, *_fold(ring_shifts))


def _fold(ring_shifts) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ring shifts, sorted, and how many rings carry each."""
    shifts, counts = np.unique(np.asarray(ring_shifts, dtype=float), return_counts=True)
    if shifts.size == 0:
        raise InvalidInputError("the ring stack is empty (j_max must be non-negative)")
    return shifts, counts


def _folded_average(delta, omega_r: float, tau: float, shifts, counts) -> np.ndarray:
    """`stack_average` over shifts already folded by `_fold`."""
    d = np.asarray(delta, dtype=float)
    points = d.reshape(-1, 1)
    total = np.zeros(len(points))
    for g in range(0, len(points), _GRID_CHUNK):
        rows = slice(g, g + _GRID_CHUNK)
        for r in range(0, shifts.size, _RING_CHUNK):
            rings = slice(r, r + _RING_CHUNK)
            p = transition_probability(points[rows] + shifts[rings], omega_r, tau)
            p *= counts[rings]
            total[rows] += p.sum(axis=-1)
    return (total / counts.sum()).reshape(d.shape)


def lineshape_from_rabi(
    omega_r: float,
    tau: float,
    j_max: int,
    shift_model,
    delta_grid,
    beam: BeamConfig | None = None,
    species: AtomSpecies | None = None,
    kick_oam_L: int | None = None,
    workers: int = 1,
) -> Lineshape:
    """Ensemble lineshape for a directly specified Rabi frequency.

    The stack holds N = 2 j_max + 1 singly occupied rings, |j| <= j_max.
    The grid is split into ``workers`` contiguous chunks averaged on a thread
    pool; a point's value does not depend on its chunk, so the curve is
    bit-identical at every worker count.
    """
    j = np.arange(-j_max, j_max + 1)
    shifts = shift_model.shifts(j, beam, species, kick_oam_L)
    grid = np.asarray(delta_grid, dtype=float)
    parts = parallel_map(
        lambda sub: stack_average(sub, omega_r, tau, shifts),
        np.array_split(grid, max(workers, 1)), workers,
    )
    return Lineshape(
        delta_grid=grid,
        probability=np.concatenate(parts),
        Omega_R=omega_r,
        j_max=j_max,
        tau=tau,
    )


def ensemble_lineshape(
    beam: BeamConfig,
    species: AtomSpecies,
    cfg: RamanConfig,
    j_max: int,
    shift_model,
    delta_grid,
) -> Lineshape:
    """Ensemble lineshape with the Rabi frequency derived from the drive config."""
    cfg.check_matching(beam)
    coupling = effective_coupling(cfg, species)
    return lineshape_from_rabi(
        coupling.Omega_R,
        cfg.pulse_duration_tau,
        j_max,
        shift_model,
        delta_grid,
        beam=beam,
        species=species,
        kick_oam_L=cfg.kick_oam_L,
    )


# Peak search window in units of Omega_R, and scan steps per narrowest feature.
PEAK_WINDOW = (-5.0, 1.0)
_SCAN_STEPS_PER_FEATURE = 100
# The most points a peak scan, or a lineshape grid, may take: 2^20 float64,
# the ~8 MB that the stack average's blocks also keep to.
MAX_SCAN_POINTS = 2**20


def _features_per_omega_r(omega_r: float, tau: float) -> float:
    """Omega_R over the narrowest feature of P0, min(Omega_R, 2 pi / tau)."""
    return max(1.0, abs(tau) * omega_r / (2.0 * np.pi))


def peak_scan_points(omega_r: float, tau: float) -> float:
    """Points of `lineshape_peak`'s scan (a float: inf when tau Omega_R overflows)."""
    lo_edge, hi_edge = PEAK_WINDOW
    steps_per_omega_r = _SCAN_STEPS_PER_FEATURE * _features_per_omega_r(omega_r, tau)
    return float(np.ceil((hi_edge - lo_edge) * steps_per_omega_r)) + 1.0


def lineshape_peak(
    omega_r: float, tau: float, j_max: int, shift_model,
    beam=None, species=None, kick_oam_L=None,
):
    """Continuous peak (delta_max, P_max) of the stack-averaged lineshape.

    Scans [-5, +1] Omega_R, then refines the best grid point with a bounded
    scalar minimiser over +/- 2 scan steps.  The scan spacing is 1/100 of the
    narrowest feature P0 can have: its width Omega_R, or the fringe period
    2 pi / tau when the pulse is longer than 2 pi / Omega_R.  At
    tau = pi / Omega_R that is 0.01 Omega_R (601 points); a scan of more
    than MAX_SCAN_POINTS is refused by the config reader.  The ring shifts
    are folded once, for the scan and every refinement step.

    A scan whose values differ by no more than sqrt(eps) of its maximum has
    no peak that rounding does not move across the window (a pulse with
    tau Omega_R below ~1e-4 leaves P0 that flat, or underflows it to 0):
    that raises ConvergenceError.
    """
    from scipy.optimize import minimize_scalar

    j = np.arange(-j_max, j_max + 1)
    folded = _fold(shift_model.shifts(j, beam, species, kick_oam_L))
    lo_edge, hi_edge = PEAK_WINDOW
    xs = np.linspace(lo_edge * omega_r, hi_edge * omega_r, int(peak_scan_points(omega_r, tau)))
    ys = _folded_average(xs, omega_r, tau, *folded)
    i = int(np.argmax(ys))
    depth = ys[i] - ys.min()
    if not depth > np.sqrt(np.finfo(float).eps) * ys[i]:
        raise ConvergenceError(
            f"the lineshape is flat to rounding over the peak window (tau Omega_R = "
            f"{tau * omega_r:.3g}): its peak cannot be placed",
            {"P_max": float(ys[i]), "depth": float(depth)},
        )
    lo = xs[max(i - 2, 0)]
    hi = xs[min(i + 2, len(xs) - 1)]
    res = minimize_scalar(
        lambda d: -float(_folded_average(d, omega_r, tau, *folded)),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12 * omega_r},
    )
    return float(res.x), float(-res.fun)


@dataclass(frozen=True)
class CalibrationResult:
    scale_s: float
    delta_max: float
    target_delta_max: float
    on_target: bool
    P_max: float


def calibrate_quadratic_scale(
    omega_r: float,
    tau: float,
    j_max: int,
    target_delta_max: float,
    s_max: float | None = None,
) -> CalibrationResult:
    """Choose the quadratic shift scale that places the lineshape peak.

    Root-finds delta_max(s) = target on the rising branch.  The peak location
    saturates as the broadening grows, so targets beyond the extremum are
    unattainable; in that case the extremal s (closest approach) is returned
    with ``on_target = False``.  Each scale's peak (delta_max, P_max) is
    searched once and kept, so the result carries the peak at its scale.

    The root is asked for only to the precision delta_max(s) carries.  The
    peak is flat, so rounding in P moves delta_max by about sqrt(eps) of P0's
    width: Omega_R, or its fringe period 2 pi / tau when the pulse is longer
    than 2 pi / Omega_R, or pi / tau when it is shorter than pi / Omega_R (P0
    is then a sinc^2 about 1/tau wide).  delta_max(s) falls at most as fast as
    the mean shift s <j^2>, <j^2> = j_max (j_max + 1) / 3, so s is resolved to
    that precision over <j^2>.  An on-target peak lands within 4 sqrt(eps) of
    P0's width of the target (6e-8 Omega_R for tau Omega_R in [pi, 2 pi],
    6e-4 Omega_R at tau Omega_R = 3e-4); for tau Omega_R from 3e-4 to 2 pi
    and j_max from 5 to 30 the miss stays below one sqrt(eps) of the width.

    The extremum is flat in s as well: delta_max(s) - delta_ext grows as
    (s - s_ext)^2 / s_max^2 in units of the feature, so the sqrt(eps) noise
    in delta_max hides s within about eps^(1/4) s_max = 1.2e-4 s_max of the
    extremum.  It is located to xatol = 1e-5 s_max, ten times below that
    floor; at the floor itself the shift a saturated run reports moves by
    ~1e-4 of its value between units of Omega_R.

    A target that the smallest scale tried, 1e-9 s_max, already passes has
    no root on the bracket and raises CalibrationTargetError, as does a
    target that is not negative.
    """
    from scipy.optimize import brentq, minimize_scalar

    if target_delta_max >= 0:
        raise CalibrationTargetError("target_delta_max must be negative for s >= 0 shifts")
    if s_max is None:
        # peak saturation happens near s j_max^2 ~ 2 Omega_R
        s_max = 3.0 * omega_r / max(j_max, 1) ** 2

    @functools.cache
    def peak(s):
        return lineshape_peak(omega_r, tau, j_max, QuadraticShift(s))

    def dmax(s):
        return peak(s)[0]

    extremum = minimize_scalar(
        dmax, bounds=(1e-6 * s_max, s_max), method="bounded",
        options={"xatol": 1e-5 * s_max},
    )
    s_ext, d_ext = float(extremum.x), float(extremum.fun)
    if target_delta_max < d_ext:
        return CalibrationResult(s_ext, d_ext, target_delta_max, False, peak(s_ext)[1])
    s_lo = 1e-9 * s_max
    d_lo = dmax(s_lo)
    if d_lo <= target_delta_max:
        raise CalibrationTargetError(
            f"the target delta_max = {target_delta_max / omega_r:.3g} Omega_R is passed "
            f"already at the smallest scale tried, s = {s_lo:.3g}, where delta_max = "
            f"{d_lo / omega_r:.3g} Omega_R"
        )
    width = max(omega_r / _features_per_omega_r(omega_r, tau), np.pi / tau)
    resolution = np.sqrt(np.finfo(float).eps) * width
    mean_j2 = max(j_max * (j_max + 1), 1) / 3.0
    s_star = float(brentq(lambda s: dmax(s) - target_delta_max, s_lo, s_ext,
                          xtol=resolution / mean_j2))
    d_star, p_star = peak(s_star)
    return CalibrationResult(s_star, d_star, target_delta_max, True, p_star)


# --------------------------------------------------------------------------
# three-parameter fit of the broadened peak


@dataclass(frozen=True)
class FitResult:
    amplitude_A: float
    delta_0: float
    Omega_R_eff: float
    rms_residual: float


def fit_model(delta, amplitude, delta_0, omega_eff):
    """A * P0(delta - delta_0, Omega_eff) with the pi-pulse width convention.

    The trial profile is evaluated at its own pi-pulse duration pi/Omega_eff,
    so its on-resonance value is exactly A; with the physical pulse duration
    held fixed the reference fit constants are not reproducible (any trial
    width away from Omega_R then caps the model below its own amplitude).
    """
    x = np.asarray(delta, dtype=float) - delta_0
    return amplitude * transition_probability(x, omega_eff, np.pi / omega_eff)


def _fit_jacobian(delta, amplitude, delta_0, omega_eff):
    x = np.asarray(delta, dtype=float) - delta_0
    g2 = omega_eff**2 + x**2
    g = np.sqrt(g2)
    u = 0.5 * (np.pi / omega_eff) * g
    sin_u, cos_u = np.sin(u), np.cos(u)
    f = omega_eff**2 / g2 * sin_u**2
    df_dx = (
        -2.0 * x * omega_eff**2 / g2**2 * sin_u**2
        + omega_eff**2 / g2 * 2.0 * sin_u * cos_u * (0.5 * np.pi / omega_eff) * x / g
    )
    du_dom = -0.5 * np.pi * x**2 / (omega_eff**2 * g)
    df_dom = 2.0 * omega_eff * x**2 / g2**2 * sin_u**2 + (
        omega_eff**2 / g2
    ) * 2.0 * sin_u * cos_u * du_dom
    jac = np.empty((len(x), 3))
    jac[:, 0] = f
    jac[:, 1] = -amplitude * df_dx
    jac[:, 2] = amplitude * df_dom
    return jac


# The fit's box in units of Omega_R: delta_0 within FIT_CENTRE_RANGE of the
# grid's peak, the width Omega_eff within FIT_WIDTH_BOUNDS.
FIT_CENTRE_RANGE = 3.0
FIT_WIDTH_BOUNDS = (0.2, 5.0)
# The fewest grid points the fit takes, and the tolerance each start is
# screened to before the best one is polished.
FIT_MIN_POINTS = 50
FIT_SCREEN_TOL = 1e-6


def fit_denominator_range(omega_r: float, half_width: float) -> tuple[float, float]:
    """Least and greatest (Omega_eff^2 + x^2)^2 that the fit's Jacobian divides by.

    Over the fit's box, on a grid of half-width ``half_width`` Omega_R, the
    detuning x = delta - delta_0 stays within (2 half_width + FIT_CENTRE_RANGE)
    Omega_R.  Products, not powers, so an overflow gives inf, not an error.
    """
    w_lo, w_hi = FIT_WIDTH_BOUNDS
    least = (w_lo * omega_r) * (w_lo * omega_r)
    x_max = (2.0 * abs(half_width) + FIT_CENTRE_RANGE) * omega_r
    greatest = (w_hi * omega_r) * (w_hi * omega_r) + x_max * x_max
    return least * least, greatest * greatest


def fit_lineshape(ls: Lineshape) -> FitResult:
    """Least-squares fit of A * P0(delta - delta_0, Omega_eff) to the lineshape.

    Damped Gauss-Newton (trust-region least squares) with the analytic
    Jacobian, multi-started over width guesses {1, 1.5, 2} Omega_R because the
    sin^2 sidelobes create secondary minima.  Requires the grid to span at
    least +/- 4 Omega_R around the peak with >= FIT_MIN_POINTS points.

    Each start runs only to tolerance FIT_SCREEN_TOL, which tells the basins
    apart: where the starts land in different minima their costs differ by
    30% or more.  Only the lowest-cost start is then polished at 1e-15.  Its
    answer is determined to ~1e-9 relative, not 1e-15: the trust region's
    cost comparisons reach rounding first, so starts polished in the same
    basin agree to about that, the ninth printed digit.

    delta_0 and Omega_eff are scaled by Omega_R (``x_scale``): the step
    test takes xtol relative to |x|, which the amplitude ~1 dominates, so
    unscaled they would pass it after one step once Omega_R < ~1e-25.
    Floats still bound Omega_R: the Jacobian divides by (Omega_eff^2 + x^2)^2,
    which must be a normal, finite float over the fit's box
    (`fit_denominator_range`).  That asks (0.2 Omega_R)^4 >= 2.2e-308, so
    Omega_R >= 6.1e-77 (below it the Jacobian loses digits, then turns to
    inf and NaN), and, on a grid of half-width 8 Omega_R, Omega_R <= 5.9e75.
    The config reader refuses an Omega_R outside that range.
    """
    from scipy.optimize import least_squares

    delta = ls.delta_grid
    y = ls.probability
    peak = float(delta[int(np.argmax(y))])
    span = 4.0 * ls.Omega_R
    if len(delta) < FIT_MIN_POINTS or delta[0] > peak - span or delta[-1] < peak + span:
        raise InvalidInputError(
            "lineshape grid must span at least +/- 4 Omega_R around its peak "
            f"with at least {FIT_MIN_POINTS} points"
        )

    def residual(p):
        return fit_model(delta, *p) - y

    def jacobian(p):
        return _fit_jacobian(delta, *p)

    w_lo, w_hi = FIT_WIDTH_BOUNDS
    lower = [1e-9, peak - FIT_CENTRE_RANGE * ls.Omega_R, w_lo * ls.Omega_R]
    upper = [1.5, peak + FIT_CENTRE_RANGE * ls.Omega_R, w_hi * ls.Omega_R]

    def solve(start, tol):
        return least_squares(
            residual, start, jac=jacobian, method="trf",
            bounds=(lower, upper), x_scale=[1.0, ls.Omega_R, ls.Omega_R],
            xtol=tol, ftol=tol, gtol=tol, max_nfev=2000,
        )

    amplitude = min(max(float(y.max()), lower[0]), upper[0])
    screened = [solve([amplitude, peak, guess * ls.Omega_R], FIT_SCREEN_TOL)
                for guess in (1.0, 1.5, 2.0)]
    best = solve(min(screened, key=lambda res: res.cost).x, 1e-15)
    rms = float(np.sqrt(np.mean(residual(best.x) ** 2)))
    result = FitResult(
        amplitude_A=float(best.x[0]),
        delta_0=float(best.x[1]),
        Omega_R_eff=float(best.x[2]),
        rms_residual=rms,
    )
    if not best.success:
        raise FitError("lineshape fit did not converge", best=result)
    return result
