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

from .exceptions import CalibrationTargetError, ConvergenceError, InvalidInputError
from .optics import BeamConfig, ring_peak_factor
from .output import parallel_map
from .spectrum import rotational_constant
from .units import HBAR, C_LIGHT, MU_B, AtomSpecies


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


@dataclass(frozen=True)
class CouplingResult:
    """Effective Raman coupling chain: V = V_e V_b / (hbar Delta_hf)."""

    V: float          # J
    V_b: float        # J
    V_e: float        # J
    Omega_R: float    # rad/s


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


def effective_coupling(cfg: RamanConfig, species: AtomSpecies) -> CouplingResult:
    """Two-photon coupling V, its factors, and the Rabi frequency 2 sqrt(2) V / hbar."""
    g = species.g_factor
    v_b = (
        g**2 * MU_B**2 * cfg.B_p0 * cfg.B_s0 / (3.0 * HBAR * cfg.Delta_hf)
    )
    v_e = kick_stark_scale(cfg)
    v = v_e * v_b / (HBAR * cfg.Delta_hf)
    omega_r = 2.0 * math.sqrt(2.0) * v / HBAR
    return CouplingResult(V=v, V_b=v_b, V_e=v_e, Omega_R=omega_r)


def transition_probability(delta, omega_r: float, tau: float):
    """Closed-form transfer probability into (|+2L> + |-2L>)/sqrt(2).

    P0 = Omega_R^2/(Omega_R^2 + delta^2) sin^2((tau/2) sqrt(Omega_R^2 + delta^2));
    peaks at 1 on resonance when tau = pi / Omega_R.  Evaluated by `_p0_terms`.
    """
    if omega_r < 0:
        raise InvalidInputError("omega_r must be non-negative")
    delta = np.asarray(delta, dtype=float)
    if not omega_r**2 > 0.0:
        # no coupling (or one that squares to 0): P0 = 0, also where g^2 = 0
        return np.zeros_like(delta)
    return _p0_terms(delta, omega_r, tau)[0]


# Rows of `_p0_terms`' work array at each order: the terms, then scratch.
_P0_ROWS = (3, 7, 8)


def _p0_terms(x, omega_r: float, tau: float, order: int = 0, work=None):
    """[P0, dP0/d delta, d^2 P0/d delta^2][:order + 1] at detunings x: the one home of P0.

    With g^2 = Omega_R^2 + x^2, u = tau g / 2 and t = tan u, every term comes
    from the one t: sin^2 u = t^2 / (1 + t^2), sin 2u = 2 t / (1 + t^2) and
    cos 2u = 1 - 2 sin^2 u.  With w = Omega_R^2 / g^2, t1 = (tau / 2) sin 2u / g
    and t2 = 2 sin^2 u / g^2:

        P0               = Omega_R^2 t^2 / (g^2 (1 + t^2))  (= w sin^2 u)
        dP0/d delta      = w x (t1 - t2)
        d^2 P0/d delta^2 = w (t1 - t2 + (x^2 / g^2) (tau^2 cos 2u / 2 - 5 t1 + 4 t2)).

    numpy's float64 tan is SIMD on AVX-512 (within 0.6 ulp), its sin scalar
    libm, several times slower; elsewhere both are libm.  A point's value does
    not depend on the array it sits in.  Needs Omega_R > 0.  t1 and t2 agree
    to about u^2 for a short pulse, so the slopes carry a relative rounding
    error of about eps / u^2.

    Every step writes into a row of ``work``, ``_P0_ROWS[order]`` float
    arrays shaped like x, stacked or in a list (a list made here when None),
    so no temporary is allocated.  The terms are returned as its first
    order + 1 rows; the rest is scratch.  x must not share memory with
    ``work``.
    """
    if work is None:
        work = [np.empty(np.shape(x)) for _ in range(_P0_ROWS[order])]
    p0, *rows = work
    if order:
        g2, g, t, t_sq, one_t2 = rows[order:]
        denominator = rows[0]   # the slope's row, free until the slope is written
    else:   # P0 alone: each intermediate overwrites the one before it
        g2, one_t2 = rows
        g = t = t_sq = p0
        denominator = one_t2
    np.multiply(x, x, out=g2)
    g2 += omega_r**2
    np.sqrt(g2, out=g)
    np.multiply(g, 0.5 * tau, out=t)
    np.tan(t, out=t)
    np.square(t, out=t_sq)
    np.add(t_sq, 1.0, out=one_t2)
    np.multiply(t_sq, omega_r**2, out=p0)
    p0 /= np.multiply(one_t2, g2, out=denominator)
    if not order:
        return work[:1]
    sin2 = np.divide(t_sq, one_t2, out=t_sq)
    t1 = np.divide(tau, g, out=g)
    t1 *= t
    t1 /= one_t2
    t2 = np.divide(2.0, g2, out=t)
    t2 *= sin2
    diff = np.subtract(t1, t2, out=one_t2)
    # w waits in the row of the last term that reads it
    w = np.divide(omega_r**2, g2, out=rows[order - 1])
    slope = np.multiply(w, x, out=rows[0])
    slope *= diff
    if order > 1:
        bracket = np.multiply(sin2, 2.0, out=sin2)
        np.subtract(1.0, bracket, out=bracket)   # cos 2u
        bracket *= 0.5 * tau * tau
        t1 *= 5.0
        bracket -= t1
        t2 *= 4.0
        bracket += t2
        r2 = np.multiply(x, x, out=t1)
        r2 /= g2
        r2 *= bracket
        diff += r2
        w *= diff   # the curvature
    return work[:order + 1]


def _falling_root(f, lo, hi, f_lo, f_hi, xtol: float):
    """Roots of f on brackets [lo, hi] where f falls through 0, element by element.

    ``f(x)`` returns ``(value, slope)`` at an array of points, and f_lo >= 0 >=
    f_hi are its values at the bracket ends.  A safeguarded Newton iteration
    (Press et al., Numerical Recipes, ``rtsafe``): it starts at the
    false-position point, keeps a bracket around a sign change, and bisects
    whenever a Newton step would leave the bracket or does not halve the step
    before last.  With a slope of None the step is a secant through the last
    two points instead.  An element stops at the first point whose next step
    is at most ``xtol``.  Returns that point, the last one f was given, and
    f's output there.
    """
    lo, hi, f_lo, f_hi = (np.array(v, dtype=float) for v in (lo, hi, f_lo, f_hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        x = lo + f_lo * (hi - lo) / (f_lo - f_hi)
        x = np.where((x >= lo) & (x <= hi), x, 0.5 * (lo + hi))
        nearer = np.abs(f_lo) < np.abs(f_hi)
        x_prev, v_prev = np.where(nearer, lo, hi), np.where(nearer, f_lo, f_hi)
        step_old = step = hi - lo
        done = np.zeros(x.shape, dtype=bool)
        for _ in range(200):  # bisection alone narrows a bracket by 2^-200
            out = f(x)
            value, slope = np.asarray(out[0], dtype=float), out[1]
            if slope is None:
                slope = (value - v_prev) / (x - x_prev)
            x_prev, v_prev = x, value
            lo, hi = np.where(value > 0, x, lo), np.where(value > 0, hi, x)
            newton = x - value / slope
            fast = np.abs(2.0 * value) <= np.abs(step_old * slope)
            take = (newton >= lo) & (newton <= hi) & fast
            step_old, step = step, np.where(take, newton, 0.5 * (lo + hi)) - x
            done |= np.abs(step) <= xtol
            if done.all():
                break
            x = np.where(done, x, x + step)
        else:
            out = f(x)
    return x, out


def peak_fwhm(omega_r: float, tau: float | None = None) -> float:
    """Full width at half maximum of the resonance peak (root-found).

    At the pi-pulse duration the width is 1.597 Omega_R.
    """
    if omega_r <= 0:
        raise InvalidInputError("omega_r must be positive")
    if tau is None:
        tau = np.pi / omega_r
    half = 0.5 * float(transition_probability(0.0, omega_r, tau))

    def excess(d):
        p, slope = _p0_terms(np.asarray(d, dtype=float), omega_r, tau, 1)
        return p - half, slope

    lo, hi = 1e-9 * omega_r, 1.2 * omega_r
    root, _ = _falling_root(excess, lo, hi, excess(lo)[0], excess(hi)[0], 1e-14 * omega_r)
    return 2.0 * float(root)


# --------------------------------------------------------------------------
# ring-to-ring resonance shifts and the stack-averaged lineshape


# The ring-shift profiles of `ring_shifts`, by config name.
SHIFT_MODELS = ("none", "quadratic", "physical")


def ring_shifts(model: str, j_max: int, scale_s: float | None = None,
                beam: BeamConfig | None = None, species: AtomSpecies | None = None,
                L: int | None = None) -> np.ndarray:
    """Resonance shift of each ring j = -j_max..j_max of the stack, in rad/s.

    ``none``: all rings resonate together; the stack average reduces to P0.
    ``quadratic``: s j^2 with a free non-negative scale s.  The leading
    ring-radius variation grows quadratically along the stack, so all
    physically motivated shift profiles reduce to this form; the scale absorbs
    the (unpublished) effective divergence length.
    ``physical``: 4 L^2 (omega0(r_l at ring 0) - omega0(r_l at ring j)), with
    the ring radii from the beam's divergence length (``z_eff`` when set) and
    omega0(r) = C(r) / hbar with the rotor constant C of ``species``.
    """
    j = np.arange(-j_max, j_max + 1, dtype=float)
    if model == "quadratic":
        with np.errstate(over="ignore"):   # an infinite shift is refused by `_fold`
            return scale_s * j**2
    if model == "physical":
        c0 = rotational_constant(beam.ring_radius(beam.ring_z(0)), species)
        cj = rotational_constant(beam.ring_radius(beam.ring_z(j)), species)
        return 4.0 * L**2 * (c0 - cj) / HBAR
    return np.zeros_like(j)


@dataclass(frozen=True)
class Lineshape:
    """Stack-averaged transfer probability sampled on a detuning grid."""

    delta_grid: np.ndarray
    probability: np.ndarray
    Omega_R: float

    def __post_init__(self):
        d = np.asarray(self.delta_grid, dtype=float)
        if d.ndim != 1 or len(d) < 2 or np.any(np.diff(d) <= 0):
            raise InvalidInputError("delta_grid must be strictly increasing")
        p = np.asarray(self.probability, dtype=float)
        if np.any(p < -1e-12) or np.any(p > 1.0 + 1e-12):
            raise InvalidInputError("probabilities must lie in [0, 1]")


# Blocks of the stack average: grid rows x up to _RING_CHUNK averaged shifts,
# at most _BLOCK_CELLS cells, 512 KB per float64 work buffer, so each step of
# the order-0 path (two or three buffers) stays within a 2 MiB L2 cache.  On
# a 2000-ring, 1601-point curve (min of 7), 32K to 128K cells agree within the
# noise at one and two workers; 8K cells take 1.2x as long on one worker and
# 2.7x on two, where each block's Python steps hold the interpreter lock.
_BLOCK_CELLS = 2**16
_RING_CHUNK = 256
# The fewest cells (grid points x averaged shifts, the nodes or distinct
# shifts `_fold` returns) in a chunk of `stack_average`'s grid: the
# break-even size of a thread.  At 1601 points (min of 15, interleaved, with
# both cores free), two workers took 0.96x as long as one on 161 distinct
# shifts (two chunks of 129K cells), 0.68x on 1001 (1.6M cells) and 1.46x on
# 41 (66K); on 11 they took 2.4x.
_PARALLEL_CHUNK_CELLS = 2**17
# Chebyshev compression of the ring shifts (`_fold`): _CHEB_NODES first-kind
# Chebyshev points on each of equal panels at most _PANEL_PHASE / tau wide,
# taken when that makes fewer shifts than the distinct ones.  P0 is an entire
# function of the shift: P0(delta + s) = (tau Omega_R / 2)^2 sinc^2(tau g / 2),
# g = sqrt(Omega_R^2 + (delta + s)^2), and sinc^2 is even in g.  As
# |sinc z| <= e^|Im z| and |Im g| <= |Im s|, on the Bernstein ellipse of
# parameter rho about a panel of half-width h,
# |P0| <= M = (tau Omega_R / 2)^2 e^(tau h (rho - 1/rho) / 2).  The degree
# K - 1 interpolant in K Chebyshev points is then within 4 M rho^(1 - K) /
# (rho - 1) of P0 on the panel (Trefethen, Approximation Theory and
# Approximation Practice, thm 8.2); at tau h <= 2 pi, rho = 10 and K = 32
# that is 1.4e-18 (tau Omega_R / 2)^2, 1.4e-15 of P0's top at tau Omega_R =
# 20 pi.  The delta-derivatives of P0 are entire with like bounds, so the
# interpolant's ring sum serves the slope and the curvature as well.
_CHEB_NODES = 32
_PANEL_PHASE = 4.0 * np.pi


def stack_average(delta, omega_r: float, tau: float, ring_shifts,
                  workers: int = 1) -> np.ndarray:
    """Mean of P0(delta + shift_j) over the ring stack.

    The ring shifts are first reduced to weighted shifts by `_fold`: the
    distinct shifts with their ring counts, or, on a stack of more distinct
    shifts than that, Chebyshev nodes whose weighted sum equals the ring sum
    to rounding.  The weighted sum then runs over cache-sized blocks of grid
    points and those shifts (`_folded_average`).  The points are split into
    contiguous chunks averaged on a thread pool of one thread per chunk: at
    most ``workers`` of them, and no more than give each chunk
    _PARALLEL_CHUNK_CELLS cells (points x averaged shifts), so a stack too
    small to pay for a thread runs on the calling one.  A point's value
    depends only on that point, so the result is bit-identical at every
    worker count.
    """
    shifts, counts = _fold(ring_shifts, tau)
    d = np.asarray(delta, dtype=float)
    chunks = max(1, min(workers, d.size * shifts.size // _PARALLEL_CHUNK_CELLS))
    parts = parallel_map(
        lambda sub: _folded_average(sub, omega_r, tau, shifts, counts)[0],
        np.array_split(d.reshape(-1), chunks), chunks,
    )
    return np.concatenate(parts).reshape(d.shape)


def _fold(ring_shifts, tau: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Shifts and weights (floats) whose weighted sum of P0 is the ring sum.

    Without ``tau``: the distinct ring shifts, sorted, and how many rings
    carry each, so a symmetric profile such as s j^2 costs j_max + 1 shifts
    and an unshifted stack one.  With the pulse length ``tau``, a stack of
    more distinct shifts than _CHEB_NODES per panel gets Chebyshev nodes
    instead: the span of the shifts is cut into the fewest equal panels at
    most _PANEL_PHASE / tau wide, and P0 on each panel is its interpolant in
    the panel's _CHEB_NODES first-kind Chebyshev points sigma_i.  The ring
    sum of that interpolant is sum_i w_i P0(delta + sigma_i) with
    w_i = sum_j c_j l_i(s_j), c_j the count of distinct shift s_j and l_i
    the Lagrange basis in barycentric form (Berrut and Trefethen, SIAM Rev.
    46, 501 (2004)); a shift on a node gives that node its count.  The
    weights sum to the ring count to rounding and depend on the shifts and
    tau alone, never on the grid.  Nodes are sorted; panels without a shift
    give none.
    """
    shifts, counts = np.unique(np.asarray(ring_shifts, dtype=float), return_counts=True)
    if shifts.size == 0:
        raise InvalidInputError("the ring stack is empty (j_max must be non-negative)")
    if not (math.isfinite(shifts[0]) and math.isfinite(shifts[-1])):   # sorted, NaN last
        raise InvalidInputError(
            f"ring shifts must be finite, got shifts from {shifts[0]:.3g} to "
            f"{shifts[-1]:.3g} rad/s (a shift scale too large for the stack?)"
        )
    counts = counts.astype(float)
    span = shifts[-1] - shifts[0]   # inf, hence the exact fold, where it overflows
    panels = max(1.0, np.ceil(abs(tau) * span / _PANEL_PHASE)) if tau is not None else np.inf
    if not panels * _CHEB_NODES < shifts.size:
        return shifts, counts
    panels = int(panels)
    half = 0.5 * span / panels
    scaled = (shifts - shifts[0]) / half   # 0 to 2 panels
    panel = np.minimum((0.5 * scaled).astype(int), panels - 1)
    first = np.flatnonzero(np.diff(panel, prepend=-1))   # each used panel's first shift
    centres = shifts[0] + (2.0 * panel[first] + 1.0) * half
    theta = (np.arange(_CHEB_NODES) + 0.5) * (np.pi / _CHEB_NODES)
    nodes = -np.cos(theta)   # increasing in [-1, 1]
    barycentric = np.sin(theta) * (-1.0) ** np.arange(_CHEB_NODES)
    # (node, shift) layout, so that every step runs along the shifts
    gap = scaled - (2.0 * panel + 1.0) - nodes[:, None]
    node, ring = np.divmod(np.flatnonzero(gap == 0.0), shifts.size)
    gap[:, ring] = np.inf   # a shift on a node takes no part in the quotients
    quotients = np.divide(barycentric[:, None], gap, out=gap)
    totals = quotients.sum(axis=0)
    totals[ring] = np.inf
    share = counts / totals
    weights = np.array([np.einsum("kj,j->k", quotients[:, a:b], share[a:b])
                        for a, b in zip(first, [*first[1:], shifts.size])])
    np.add.at(weights, (np.searchsorted(first, ring, side="right") - 1, node), counts[ring])
    return (centres[:, None] + half * nodes).reshape(-1), weights.reshape(-1)


def _folded_average(delta, omega_r: float, tau: float, shifts, counts, order: int = 0):
    """Stack means of P0 and of its first ``order`` delta derivatives.

    Over the shifts and weights `_fold` returns (distinct shifts and their
    ring counts, or Chebyshev nodes and their weights): row k of the result,
    shaped ``(order + 1, *delta.shape)``, is the weighted sum of the k-th
    derivative (`_p0_terms`) of P0(delta + shift) over the sum of the
    weights, the ring count.  Each block holds the grid rows that
    _BLOCK_CELLS allows against one block of _RING_CHUNK shifts.  Every
    point's sum goes through the shift blocks in the same fixed order,
    whatever its grid block, so a point's value does not depend on the rest
    of the grid; one einsum per block weights every order and sums over the
    block's shifts.  The blocks are computed in contiguous views of the
    detunings' buffer and `_p0_terms`' work rows, made once per call (not per
    module: `stack_average` runs this function on threads), so memory stays
    at 2 MB at order 0 and 4.5 MB at order 2 whatever the inputs.
    """
    d = np.asarray(delta, dtype=float)
    points = d.reshape(-1)
    width = min(shifts.size, _RING_CHUNK)
    rows = max(_BLOCK_CELLS // width, 1)
    buffers = np.empty((1 + _P0_ROWS[order], min(rows, points.size) * width))
    total = np.zeros((order + 1, points.size))
    for g in range(0, points.size, rows):
        block = points[g:g + rows, None]
        for r in range(0, shifts.size, _RING_CHUNK):
            rings = slice(r, r + _RING_CHUNK)
            cells = block.size * counts[rings].size
            x = buffers[0, :cells].reshape(block.size, -1)
            work = buffers[1:, :cells].reshape(len(buffers) - 1, block.size, -1)
            np.add(block, shifts[rings], out=x)
            terms = _p0_terms(x, omega_r, tau, order, work)
            total[:, g:g + rows] += np.einsum("kpr,r->kp", terms, counts[rings])
    return (total / counts.sum()).reshape((order + 1, *d.shape))


def lineshape_from_rabi(omega_r: float, tau: float, ring_shifts, delta_grid,
                        workers: int = 1) -> Lineshape:
    """Ensemble lineshape for a directly specified Rabi frequency.

    The stack holds one singly occupied ring per entry of ``ring_shifts``,
    that ring's resonance shift; the function `ring_shifts` gives the 2 j_max
    + 1 rings |j| <= j_max of each profile.  The curve is `stack_average`
    over ``delta_grid`` on up to ``workers`` threads, bit-identical at every
    worker count.
    """
    grid = np.asarray(delta_grid, dtype=float)
    probability = stack_average(grid, omega_r, tau, ring_shifts, workers)
    return Lineshape(delta_grid=grid, probability=probability, Omega_R=omega_r)


# Peak search window in units of Omega_R, and scan steps per narrowest feature.
PEAK_WINDOW = (-5.0, 1.0)
_SCAN_STEPS_PER_FEATURE = 10
# Lobe heights closer than this, relative, tie in `lineshape_peak`: P_max is
# stated to 1e-12, while a height's rounding is ~1e-16.
LOBE_TIE_RTOL = 1e-12
# Each lobe's top is placed to this fraction of the narrowest feature.
_PEAK_XTOL = 1e-10
# The most points a peak scan, or a lineshape grid, may take: 2^20 float64,
# 8 MB per array of the curve.
MAX_SCAN_POINTS = 2**20


def _features_per_omega_r(omega_r: float, tau: float) -> float:
    """Omega_R over the narrowest feature of P0, min(Omega_R, 2 pi / tau)."""
    return max(1.0, abs(tau) * omega_r / (2.0 * np.pi))


def peak_scan_points(omega_r: float, tau: float) -> float:
    """Points of `lineshape_peak`'s scan (a float: inf when tau Omega_R overflows)."""
    lo_edge, hi_edge = PEAK_WINDOW
    steps_per_omega_r = _SCAN_STEPS_PER_FEATURE * _features_per_omega_r(omega_r, tau)
    return float(np.ceil((hi_edge - lo_edge) * steps_per_omega_r)) + 1.0


def lineshape_peak(omega_r: float, tau: float, ring_shifts):
    """Continuous peak (delta_max, P_max) of the stack-averaged lineshape.

    Scans [-5, +1] Omega_R with the stack means of P0 and of its slope
    (`_folded_average`), ten steps per narrowest feature P0 can have: its
    width Omega_R, or the fringe period 2 pi / tau when the pulse is longer
    than 2 pi / Omega_R.  At tau = pi / Omega_R that is 0.1 Omega_R (61
    points); a scan of more than MAX_SCAN_POINTS is refused by the config
    reader.  Every scan step across which the mean slope falls through zero
    brackets a lobe, and each lobe's top is the root of the mean slope in its
    bracket (`_falling_root`, Newton steps on the mean curvature) to 1e-10 of
    the feature.  A window edge that the mean slope leaves by is a candidate
    too.  The highest candidate is the peak.  Lobes whose heights agree to
    LOBE_TIE_RTOL tie (an unshifted stack under a long pulse has two lobes
    at +/- delta, equal to rounding); of tied lobes the one at the lowest
    delta is taken, the side that positive ring shifts push the line to.
    The ring shifts are folded once (`_fold`, given tau), for the scan and
    every refinement step.

    A scan whose values differ by no more than sqrt(eps) of its maximum has
    no peak that rounding does not move across the window (a pulse with
    tau Omega_R below ~1e-4 leaves P0 that flat, or underflows it to 0):
    that raises ConvergenceError.
    """
    folded = _fold(ring_shifts, tau)
    lo_edge, hi_edge = PEAK_WINDOW
    xs = np.linspace(lo_edge * omega_r, hi_edge * omega_r, int(peak_scan_points(omega_r, tau)))
    ys, slopes = _folded_average(xs, omega_r, tau, *folded, order=1)
    top = ys.max()
    depth = top - ys.min()
    if not depth > np.sqrt(np.finfo(float).eps) * top:
        raise ConvergenceError(
            f"the lineshape is flat to rounding over the peak window (tau Omega_R = "
            f"{tau * omega_r:.3g}): its peak cannot be placed",
            {"P_max": float(top), "depth": float(depth)},
        )
    rising = slopes > 0.0
    k = np.flatnonzero(rising[:-1] & ~rising[1:])
    tops, (_, _, top_heights) = _falling_root(
        lambda d: _folded_average(d, omega_r, tau, *folded, order=2)[[1, 2, 0]],
        xs[k], xs[k + 1], slopes[k], slopes[k + 1],
        _PEAK_XTOL * omega_r / _features_per_omega_r(omega_r, tau),
    )
    ends = ([0] if not rising[0] else []) + ([-1] if rising[-1] else [])
    candidates = np.concatenate([tops, xs[ends]])
    heights = np.concatenate([top_heights, ys[ends]])
    tied = heights >= heights.max() * (1.0 - LOBE_TIE_RTOL)
    best = int(np.argmin(np.where(tied, candidates, np.inf)))
    return float(candidates[best]), float(heights[best])


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
) -> CalibrationResult:
    """Choose the quadratic shift scale that places the lineshape peak.

    Root-finds delta_max(s) = target on the rising branch.  The peak location
    saturates as the broadening grows, so targets beyond the extremum are
    unattainable; in that case the extremal s (closest approach) is returned
    with ``on_target = False``.  The reported (delta_max, P_max) is always a
    whole `lineshape_peak` search at the returned scale.

    Whole searches only bracket and certify.  Golden-section steps on
    delta_max over [1e-6 s_max, s_max], as a bounded minimiser takes them,
    stop at the first scale whose peak is at or past the target, or once
    their two inner points bracket a slope d delta_max / ds that turns from
    falling to rising (at j_max 12, tau Omega_R = pi the slope is -52 at
    1e-6 s_max, +0.9 at 0.7 s_max and -1.4 at s_max, so the interval's ends
    need not bracket it).  At the peak the stack-mean slope <P0'> vanishes
    and its s-derivative is <j^2 P0''>, so the slope is -<j^2 P0''> / <P0''>,
    means taken at delta_max + s j^2 (`_p0_terms`).  In between, the solves
    evaluate such means at single points, not whole searches:

    - root-found: with delta_max at the target, G(s) = <P0'(target + s j^2)>
      falls through 0 at the scale sought, with slope <j^2 P0''>;
      `_falling_root` solves it on [1e-9 s_max, the scale that passed].
    - saturated: <P0'(d + s j^2)> = 0 and <j^2 P0''(d + s j^2)> = 0 are solved
      jointly by Newton steps in (d, s) (`_peak_extremum`), with s kept
      between the two bracketing golden points.

    A whole search at the final scale certifies the Newton peak: the two must
    agree to the resolution below, else ConvergenceError, as when the Newton
    steps do not converge.  An extremum that lies past the target hands its
    scale to the root-found solve.

    Both solves ask for s only to the precision delta_max(s) carries.  The
    peak is flat, so rounding in P moves delta_max by up to sqrt(eps) of P0's
    width: Omega_R, or its fringe period 2 pi / tau when the pulse is longer
    than 2 pi / Omega_R, or pi / tau when it is shorter than pi / Omega_R (P0
    is then a sinc^2 about 1/tau wide).  delta_max(s) falls at most as fast as
    the mean shift s <j^2>, <j^2> = j_max (j_max + 1) / 3, so s is resolved to
    that precision over <j^2>, about 1e-8 s_max for a pi pulse.  An on-target
    peak lands within 4 sqrt(eps) of P0's width of the target (6e-8 Omega_R
    for tau Omega_R in [pi, 2 pi], 6e-4 Omega_R at tau Omega_R = 3e-4).  The
    slope is not flat at the extremum, so a saturated scale is pinned to that
    tolerance too, the same in units of Omega_R at every scale of Omega_R.

    A target that the smallest scale tried, 1e-9 s_max, already passes has
    no root on the bracket and raises CalibrationTargetError, as do a target
    that is not negative and a one-ring stack (j_max = 0), whose only ring
    is unshifted at every s.
    """
    if target_delta_max >= 0:
        raise CalibrationTargetError("target_delta_max must be negative for s >= 0 shifts")
    if j_max == 0:
        raise CalibrationTargetError(
            "a one-ring stack (j_max = 0) has no scale to calibrate: its peak does not "
            "move with s"
        )
    # peak saturation happens near s j_max^2 ~ 2 Omega_R
    s_max = 3.0 * omega_r / j_max**2
    j2 = ring_shifts("quadratic", j_max, 1.0)
    width = max(omega_r / _features_per_omega_r(omega_r, tau), np.pi / tau)
    resolution = np.sqrt(np.finfo(float).eps) * width
    mean_j2 = max(j_max * (j_max + 1), 1) / 3.0
    xtol = resolution / mean_j2

    @functools.cache
    def peak(s):
        """delta_max, P_max and d delta_max / ds at scale s, by a whole search."""
        shifts = s * j2
        d_max, p_max = lineshape_peak(omega_r, tau, shifts)
        x = d_max + shifts
        curvature = _p0_terms(x, omega_r, tau, 2)[2]
        return d_max, p_max, -float(np.dot(j2, curvature) / curvature.sum())

    def certified(s, d_newton):
        """The whole search's peak at s, which must lie within resolution of d_newton."""
        d_max, p_max, _ = peak(s)
        if not abs(d_max - d_newton) <= resolution:
            raise ConvergenceError(
                f"the quadratic-scale calibration did not converge: at s = {s:.9g} the "
                f"searched peak {d_max / omega_r:.9g} Omega_R and the Newton peak "
                f"{d_newton / omega_r:.9g} Omega_R differ by more than {resolution:.3g}",
                {"scale_s": s, "delta_max": d_max, "newton_delta_max": d_newton},
            )
        return d_max, p_max

    golden = 0.5 * (3.0 - math.sqrt(5.0))
    lo, hi = 1e-6 * s_max, s_max
    left, right = lo + golden * (hi - lo), hi - golden * (hi - lo)

    def turned():
        return peak(left)[2] < 0.0 < peak(right)[2]

    while (passed := next((s for s in (left, right) if peak(s)[0] <= target_delta_max),
                          None)) is None:
        if turned() or not hi - lo > xtol:
            break
        if peak(left)[0] <= peak(right)[0]:
            hi, right = right, left
            left = lo + golden * (hi - lo)
        else:
            lo, left = left, right
            right = hi - golden * (hi - lo)
    if passed is None:
        if turned():
            s_ext, d_newton = _peak_extremum(omega_r, tau, j2, (left, right),
                                             peak(left), peak(right), resolution, xtol)
            d_ext, p_ext = certified(s_ext, d_newton)
        else:  # the minimum is at an end of [1e-6 s_max, s_max]
            s_ext = min(left, right, key=lambda s: peak(s)[0])
            d_ext, p_ext, _ = peak(s_ext)
        if target_delta_max < d_ext:
            return CalibrationResult(s_ext, d_ext, target_delta_max, False, p_ext)
        passed = s_ext

    def at_target(s):
        """G(s) = <P0'>, its slope <j^2 P0''>, and <P0''>, at target + s j^2."""
        _, slope, curvature = _p0_terms(target_delta_max + s * j2, omega_r, tau, 2)
        return slope.mean(), np.mean(j2 * curvature), curvature.mean()

    s_lo = 1e-9 * s_max
    g_lo = at_target(s_lo)[0]
    # a slope that does not rise into the target there marks a target the peak
    # has passed, or one on a side lobe (then the certifying search fails)
    if not g_lo > 0.0 and (d_lo := peak(s_lo)[0]) <= target_delta_max:
        raise CalibrationTargetError(
            f"the target delta_max = {target_delta_max / omega_r:.3g} Omega_R is passed "
            f"already at the smallest scale tried, s = {s_lo:.3g}, where delta_max = "
            f"{d_lo / omega_r:.3g} Omega_R"
        )
    s_star, (g, _, curvature) = _falling_root(at_target, s_lo, passed, g_lo,
                                              at_target(passed)[0], xtol)
    s_star = float(s_star)
    # one Newton step in delta from the target places the peak at s_star
    d_star, p_star = certified(s_star, target_delta_max - float(g / curvature))
    return CalibrationResult(s_star, d_star, target_delta_max, True, p_star)


# The most joint Newton steps `_peak_extremum` takes.
_EXTREMUM_NEWTON_STEPS = 50


def _peak_extremum(omega_r, tau, j2, bracket, peak_lo, peak_hi, resolution, xtol):
    """(s, delta_max) where the peak of the s j^2 stack stops moving, by Newton steps.

    Solves <P0'(d + s j^2)> = 0 (d is the peak at s) and <j^2 P0''(d + s j^2)>
    = 0 (d delta_max / ds = 0) jointly in (d, s).  ``peak_lo`` and ``peak_hi``
    are (delta_max, P_max, d delta_max / ds) at the ends of ``bracket``, where
    that slope turns from falling to rising.  s starts at the slope's secant
    root and d on the parabola the secant describes; s stays inside the
    bracket.  The Jacobian's P0''' column is a forward difference of P0''
    over ``resolution`` from the same `_p0_terms` call: only the closed-form
    conditions decide the answer.  The terms are taken in units of that step,
    so that no product of them leaves the float range at any Omega_R.  Stops
    after the first step of at most ``xtol`` in s and ``resolution`` in d, and
    raises ConvergenceError after _EXTREMUM_NEWTON_STEPS steps.
    """
    (s_lo, s_hi), (d, _, slope_lo), (_, _, slope_hi) = bracket, peak_lo, peak_hi
    s = s_lo - slope_lo * (s_hi - s_lo) / (slope_hi - slope_lo)
    d += 0.5 * slope_lo * (s - s_lo)
    h = resolution   # the difference step, and the unit of the terms below
    for _ in range(_EXTREMUM_NEWTON_STEPS):
        x = d + s * j2
        _, slope, curvature = _p0_terms(np.stack([x, x + h]), omega_r, tau, 2)
        slope, curvature = slope[0] * h, curvature * (h * h)
        third = j2 * (curvature[1] - curvature[0])   # j^2 P0''' by a forward difference
        f_d, f_s = slope.mean(), np.mean(j2 * curvature[0])
        a, c, e = curvature[0].mean(), third.mean(), np.mean(j2 * third)
        det = a * e - f_s * c
        step_d, step_s = h * (f_s * f_s - e * f_d) / det, h * (c * f_d - a * f_s) / det
        d, s = d + step_d, min(max(s + step_s, s_lo), s_hi)
        if abs(step_s) <= xtol and abs(step_d) <= resolution:
            return float(s), float(d)
    raise ConvergenceError(
        f"the quadratic-scale calibration did not converge: {_EXTREMUM_NEWTON_STEPS} "
        f"Newton steps on the peak conditions left s = {s:.9g}",
        {"scale_s": float(s), "delta_max": float(d)},
    )


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

    Returns ``(model, d model / d delta_0, d model / d Omega_eff)``: the fit
    needs all three at every evaluation.  With x = delta - delta_0 the first
    slope is -A dP0/dx (`_p0_terms`); at the pi-pulse duration P0 depends
    on x / Omega_eff alone, so d/d Omega_eff = (x / Omega_eff) d/d delta_0.
    """
    x = np.asarray(delta, dtype=float) - delta_0
    tau = np.pi / omega_eff
    p, slope = _p0_terms(x, omega_eff, tau, 1)
    d_delta_0 = -amplitude * slope
    return amplitude * p, d_delta_0, d_delta_0 * (x / omega_eff)


# The fit's box in units of Omega_R: delta_0 within FIT_CENTRE_RANGE of the
# grid's peak, the width Omega_eff within FIT_WIDTH_BOUNDS.
FIT_CENTRE_RANGE = 3.0
FIT_WIDTH_BOUNDS = (0.2, 5.0)
# The fewest grid points the fit takes, and the tolerance each start of a
# multi-lobed curve is screened to before the best one is polished.
FIT_MIN_POINTS = 50
FIT_SCREEN_TOL = 1e-6


def fit_denominator_range(omega_r: float, half_width: float) -> tuple[float, float]:
    """Least and greatest (Omega_eff^2 + x^2)^2 that the fit's slopes divide by.

    Over the fit's box, on a grid of half-width ``half_width`` Omega_R, the
    detuning x = delta - delta_0 stays within (2 half_width + FIT_CENTRE_RANGE)
    Omega_R.  Products, not powers, so an overflow gives inf, not an error.
    """
    w_lo, w_hi = FIT_WIDTH_BOUNDS
    least = (w_lo * omega_r) * (w_lo * omega_r)
    x_max = (2.0 * abs(half_width) + FIT_CENTRE_RANGE) * omega_r
    greatest = (w_hi * omega_r) * (w_hi * omega_r) + x_max * x_max
    return least * least, greatest * greatest


@functools.cache
def _fwhm_per_width() -> float:
    """peak_fwhm(Omega) / Omega at the pi pulse, the same at every Omega."""
    return peak_fwhm(1.0)


def _half_width_start(delta, y, top: int) -> tuple[list[float], int]:
    """The fit's start (delta_0, Omega_eff) read off the lobe around ``y[top]``.

    delta_0 is the midpoint of the half-maximum crossings on each side of
    ``top``, interpolated linearly between grid points (a side that never
    falls below half ends at the grid's edge), and Omega_eff the model width
    whose full width at half maximum is their distance.  Also returns the
    number of runs of grid points at or above half the maximum: more than
    one marks a multi-lobed curve.
    """
    half = 0.5 * y[top]
    above = y >= half
    runs = int(above[0]) + int(np.count_nonzero(above[1:] & ~above[:-1]))

    def crossing(below, inside):
        return delta[below] + (half - y[below]) * (
            (delta[inside] - delta[below]) / (y[inside] - y[below]))

    left = np.flatnonzero(~above[:top])
    right = np.flatnonzero(~above[top:])
    lo = crossing(left[-1], left[-1] + 1) if left.size else delta[0]
    hi = crossing(top + right[0], top + right[0] - 1) if right.size else delta[-1]
    return [float(0.5 * (lo + hi)), float(hi - lo) / _fwhm_per_width()], runs


def fit_lineshape(ls: Lineshape) -> FitResult:
    """Least-squares fit of A * P0(delta - delta_0, Omega_eff) to the lineshape.

    A enters linearly, so variable projection (`_varpro`) eliminates it:
    A = <P0, y> / <P0, P0> at each (delta_0, Omega_eff), clipped to
    [1e-9, 1.5], and damped Newton steps built from the analytic slopes of
    `fit_model` move (delta_0, Omega_eff) within the fit's box.  Requires the
    grid to span at least +/- 4 Omega_R around the peak with >=
    FIT_MIN_POINTS points.

    The start is read off the curve: delta_0 is the midpoint of the
    half-maximum crossings around the grid's peak, and Omega_eff their
    distance over the model's own width ratio peak_fwhm(Omega) / Omega
    (1.597), clipped into the box.  A curve whose points at or above half
    its maximum form one run is fitted from that start alone, at 1e-15.  On
    a multi-lobed curve the sin^2 sidelobes and a broad stack's separate
    ring groups make secondary minima, and the half-width start can land in
    the wrong one: there it is screened, with width starts {1, 1.5, 2}
    Omega_R at the grid's peak, to tolerance FIT_SCREEN_TOL, which tells the
    basins apart (their costs differ by 30% or more), and only the
    lowest-cost one is polished at 1e-15.  The answer is determined to
    ~1e-8 relative, not 1e-15: the cost is flat to rounding over that much
    of the parameters, and the solver stops at that rounding floor, once a
    step predicts a smaller reduction than the cost can show (8 evaluations
    on fig4).  A trust-region reflective least-squares solve on the same box
    (the oracle in tests/test_fits.py) agrees with it to 5.6e-9 relative on
    fig4 and to within 1.1e-8 on 378 calibrated stacks of 9 to 30 rings: the
    ninth printed digit is not determined.

    delta_0 and Omega_eff move in units of Omega_R: the step test is
    relative to them, which holds at every scale of Omega_R.  Floats still
    bound Omega_R: the slopes divide twice by Omega_eff^2 + x^2, and its
    square must be a normal, finite float over the fit's box
    (`fit_denominator_range`).  That asks (0.2 Omega_R)^4 >= 2.2e-308, so
    Omega_R >= 6.1e-77, and, on a grid of half-width 8 Omega_R,
    Omega_R <= 5.9e75.  The config reader refuses an Omega_R outside that
    range.
    """
    from ._varpro import varpro

    delta = ls.delta_grid
    y = ls.probability
    top = int(np.argmax(y))
    peak = float(delta[top])
    span = 4.0 * ls.Omega_R
    if len(delta) < FIT_MIN_POINTS or delta[0] > peak - span or delta[-1] < peak + span:
        raise InvalidInputError(
            "lineshape grid must span at least +/- 4 Omega_R around its peak "
            f"with at least {FIT_MIN_POINTS} points"
        )

    def basis(theta, out):
        out[0], out[1], out[2] = fit_model(delta, 1.0, *theta)

    w_lo, w_hi = FIT_WIDTH_BOUNDS
    lower = [peak - FIT_CENTRE_RANGE * ls.Omega_R, w_lo * ls.Omega_R]
    upper = [peak + FIT_CENTRE_RANGE * ls.Omega_R, w_hi * ls.Omega_R]

    def solve(start, tol):
        return varpro(basis, y, start, lower, upper, ls.Omega_R, tol, coef_bounds=(1e-9, 1.5))

    start, runs = _half_width_start(delta, y, top)
    if runs > 1:
        starts = [start] + [[peak, guess * ls.Omega_R] for guess in (1.0, 1.5, 2.0)]
        screened = [solve(s, FIT_SCREEN_TOL) for s in starts]
        start = min(screened, key=lambda sol: sol.cost).theta
    best = solve(start, 1e-15)
    result = FitResult(
        amplitude_A=float(best.coef),
        delta_0=float(best.theta[0]),
        Omega_R_eff=float(best.theta[1]),
        rms_residual=float(np.sqrt(np.mean(best.residual**2))),
    )
    if not best.success or not all(map(math.isfinite, vars(result).values())):
        raise ConvergenceError("lineshape fit did not converge", diagnostics=vars(result))
    return result
