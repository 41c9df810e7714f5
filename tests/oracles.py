"""Independent oracles for package code, kept apart from the code they check.

- `sequential_period_propagator` multiplies one drive period's N eigen-steps
  of the five-level ladder one after another, each midpoint eigendecomposed
  on its own; it checks the mirrored, pairwise product of
  `qrotor.fivelevel._period_propagator`.
- `evolve_rwa` propagates the 3-level rotating-wave Hamiltonian by
  eigendecomposition; it checks the closed form
  `qrotor.raman.transition_probability` (acceptance criterion 5).
- `adiabatic_eliminate` reduces the five-level ladder in two perturbative
  steps; its cos(w_ps t) amplitude checks the coupling chain of
  `qrotor.raman.effective_coupling` (cos amplitude = 2 V).
- `stacked_dvr` diagonalises every sinc-DVR Hamiltonian in full, one
  eigvalsh call per stack of rows, on the package's kinetic matrix.
  `radial_dvr` runs it on the radial Hamiltonian of each m_ell; it checks
  the Rayleigh-Ritz levels, drift and Ritz vectors of
  `qrotor.spectrum.solve_radial`.
- `axial_dvr` runs `stacked_dvr` on the exactly harmonic axial well; it
  checks the sinc-DVR kinetic matrix, and the closed-form
  `qrotor.spectrum.solve_axial` levels and Hermite functions, against each
  other (acceptance criterion 2).
- `hermite_functions` sums the Hermite series with numpy's `hermval`; it
  checks the three-term recurrence of `qrotor.spectrum.solve_axial`.
- `harmonic_ring_profile` stands in for `qrotor.optics.optical_potential`
  with the ring's harmonic expansion, so that `solve_radial` can be run on a
  profile whose gaps are known (acceptance criterion 2).
- `level_rows` builds a spectrum's rows one level at a time and sorts them
  with a Python key, from the same solves; it checks the index arrays and
  lexsort of `qrotor.spectrum.assemble_spectrum` and `spectrum_rows`.
- `nested_calibration` places the calibrated peak with a whole
  `qrotor.raman.lineshape_peak` search at every step (golden-section steps,
  then a secant root of the peak's slope in s or a Newton root on the
  target); it checks the single-point Newton steps of
  `qrotor.raman.calibrate_quadratic_scale`.
- `axial_frequency` takes the axial frequency from a finite difference of
  `qrotor.optics.optical_potential`, not from the closed-form curvature that
  `qrotor.spectrum.solve_axial` reads; it checks the axial gaps (acceptance
  criterion 2).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval

from qrotor.fivelevel import FiveLevelModel
from qrotor.optics import optical_potential, ring_minima
from qrotor.exceptions import CalibrationTargetError, ConvergenceError, InvalidInputError
from qrotor.raman import (
    CalibrationResult,
    _falling_root,
    _features_per_omega_r,
    _p0_terms,
    lineshape_peak,
    ring_shifts,
)
from qrotor.spectrum import (
    _CONVERGENCE_LIMIT,
    _M_BLOCK,
    _dvr_kinetic,
    rotational_constant,
    solve_axial,
    solve_radial,
)
from qrotor.units import HBAR, K_B, LI6, MU_B

# |v_b|, |v_e| beyond this make the perturbative elimination meaningless.
PERTURBATIVE_LIMIT = 0.3


class DressingError(Exception):
    """A dressing amplitude is too large for the perturbative elimination."""

    def __init__(self, message, ratio):
        super().__init__(message)
        self.ratio = ratio


def rwa_hamiltonian(delta: float, omega_r: float) -> np.ndarray:
    """3-level rotating-wave Hamiltonian over hbar on {|0>, |+2L>, |-2L>}.

    Off-diagonals Omega_R sqrt(2)/4 couple |0> to each kicked state; the
    kicked states sit at -delta.  Units: rad/s (energy / hbar).
    """
    c = omega_r * np.sqrt(2.0) / 4.0
    return np.array(
        [[0.0, c, c], [c, -delta, 0.0], [c, 0.0, -delta]], dtype=complex
    )


_STATE_0 = np.array([1.0, 0.0, 0.0], dtype=complex)
_STATE_F = np.array([0.0, 1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def evolve_rwa(delta: float, omega_r: float, tau: float) -> float:
    """Evolution of |0> under the RWA Hamiltonian, exp(-i H tau) = V exp(-i E tau) V^+.

    Returns the population of (|+2L> + |-2L>)/sqrt(2) after ``tau``.
    """
    energies, vecs = np.linalg.eigh(rwa_hamiltonian(delta, omega_r))
    u = (vecs * np.exp(-1j * energies * tau)) @ vecs.conj().T
    return float(np.abs(np.vdot(_STATE_F, u @ _STATE_0)) ** 2)


def sequential_period_propagator(model: FiveLevelModel, steps_per_period: int) -> np.ndarray:
    """exp(-i H(t_N-1) dt / hbar) ... exp(-i H(t_0) dt / hbar) over one drive period.

    t_k = (k + 1/2) dt is the k-th midpoint.  Each step is V exp(-i E dt /
    hbar) V^+ from that midpoint's own eigendecomposition, multiplied onto
    the product in time order.
    """
    dt = 2.0 * np.pi / model.drive_frequency / steps_per_period
    u = np.eye(5, dtype=complex)
    for k in range(steps_per_period):
        energies, vecs = np.linalg.eigh(model.hamiltonian((k + 0.5) * dt))
        u = (vecs * np.exp(-1j * energies * (dt / HBAR))) @ vecs.conj().T @ u
    return u


def perturbative_ratios(model: FiveLevelModel) -> tuple[float, float]:
    """(|v_b|, |v_e|): the ladder's magnetic and optical dressing amplitudes."""
    w_p, w_s = model.magnetic_couplings
    v_b = max(abs(w_p), abs(w_s)) / abs(HBAR * model.cfg.Delta_hf)
    _, g1 = model.electric_couplings
    v_e = g1 / abs(HBAR * model.cfg.Delta_e)
    return v_b, v_e


@dataclass(frozen=True)
class EliminationResult:
    """Effective two-level reduction of the ladder.

    ``off_diagonal(t) = static_coupling + cos_amplitude * cos(w_ps t)``; the
    cos amplitude equals twice the effective coupling V of the factorised
    chain (exact algebraic identity).  ``stark_shift`` is the kick-pulse level
    shift quoted with the laser-minus-resonance detuning in the denominator,
    so red detuning (Delta_e < 0) gives a negative, trapping shift.
    """

    h_e: float
    epsilon_2L: float
    static_coupling: float
    cos_amplitude: float
    stark_shift: float
    v_b: float
    v_e: float
    omega_ps: float

    def hamiltonian(self, t: float) -> np.ndarray:
        c = self.static_coupling + self.cos_amplitude * np.cos(self.omega_ps * t)
        return np.array([[0.0, c], [c, self.epsilon_2L]])


def adiabatic_eliminate(cfg, species, omega_2L0: float) -> EliminationResult:
    """Two-step elimination: hyperfine dressing first, then the excited state.

    The kick-pulse element is h_e = (1/2) |u_L + u_-L| d with the dipole scale
    d = sqrt(alpha hbar |Delta_e|): h_e = g1 / sqrt(2) with g1 the ladder's
    |1> - |4> element, so h_e^2 = V_e hbar |Delta_e| / 2 with V_e the kick
    Stark scale.  Dressing by the radio-frequency fields multiplies it by
    (1 - |v_b(t)|^2 / 2), and the second elimination yields the off-diagonal
    -2 |h_e(t)|^2 / (hbar Delta_e) whose expansion is the static Stark part
    plus the cos(w_ps t) Raman drive.  v_b and v_e are `perturbative_ratios`
    of the ladder (m_F = 1/2); either at PERTURBATIVE_LIMIT or beyond raises
    DressingError.
    """
    model = FiveLevelModel(cfg, species, omega_2L0)
    v_b, v_e = perturbative_ratios(model)
    # (1/2) |u_L + u_-L| d, both components adding in phase on the ring at phi = 0.
    h_e = model.electric_couplings[1] / math.sqrt(2.0)
    if v_b >= PERTURBATIVE_LIMIT:
        raise DressingError("magnetic dressing |v_b| too large", ratio=v_b)
    if v_e >= PERTURBATIVE_LIMIT:
        raise DressingError("optical dressing |v_e| too large", ratio=v_e)

    # -2 |h_e|^2 / (hbar Delta_e) including the dressed (1 - |v_b(t)|^2) factor,
    # with the effective 1/3 spin weight of the coupling chain.
    base = 2.0 * h_e**2 / (HBAR * cfg.Delta_e)
    spin_weight = species.g_factor**2 * MU_B**2 / (3.0 * HBAR**2 * cfg.Delta_hf**2)
    static_b2 = cfg.B_p0**2 + cfg.B_s0**2
    static_coupling = -base * (1.0 - spin_weight * static_b2)
    cos_amplitude = base * spin_weight * 2.0 * cfg.B_p0 * cfg.B_s0
    return EliminationResult(
        h_e=h_e,
        epsilon_2L=HBAR * omega_2L0,
        static_coupling=float(static_coupling),
        cos_amplitude=float(cos_amplitude),
        stark_shift=float(base),
        v_b=float(v_b),
        v_e=float(v_e),
        omega_ps=cfg.omega_ps,
    )


def stacked_dvr(potential, lo, hi, n, mass, k, scale, label=None):
    """Lowest k eigenvalues of sinc-DVR Hamiltonians of n points, checked against 3n/2.

    Every Hamiltonian is diagonalised in full, with one eigvalsh call per
    stack of rows.  ``potential(x)`` gives the diagonal on the grid x: a 1-D
    row for a single Hamiltonian, or an iterator of blocks of rows, shape
    (B, len(x)), one row per Hamiltonian.  Each block is solved as one stack
    in both bases, and its drift is checked before the next block is drawn.

    Returns ``(energies, grid, vectors, drift)``: the n-point energies, shape
    (k,) for a 1-D row and (M, k) for M rows; the 3n/2-point grid; a
    ``vectors()`` that computes the 3n/2-point eigenvectors normalised
    against dx, shape energies.shape[:-1] + (len(grid), k); and the largest
    difference between the two bases' energies in units of ``scale``.
    ``label``, a ``(name, values)`` pair giving each row an integer, names
    the first unconverged Hamiltonian in the error.
    """
    if n < k + 4:
        raise InvalidInputError(f"basis of {n} points cannot resolve {k} eigenstates")
    x, _, kinetic = _dvr_kinetic(lo, hi, n, mass)
    grid, h, kinetic_fine = _dvr_kinetic(lo, hi, 3 * n // 2, mass)
    rows_coarse = potential(x)
    single = isinstance(rows_coarse, np.ndarray)

    def blocks(rows):
        return [rows[None]] if single else rows

    def hamiltonians(kinetic, rows):
        ham = np.repeat(kinetic[None], len(rows), axis=0)
        idx = np.arange(len(kinetic))
        ham[:, idx, idx] += rows
        return ham

    energies, drift = [], 0.0
    for rows, rows_fine in zip(blocks(rows_coarse), blocks(potential(grid))):
        coarse = np.linalg.eigvalsh(hamiltonians(kinetic, rows))[:, :k]
        fine = np.linalg.eigvalsh(hamiltonians(kinetic_fine, rows_fine))[:, :k]
        drifts = np.max(np.abs(coarse - fine), axis=1) / scale
        failed = np.flatnonzero(~(drifts <= _CONVERGENCE_LIMIT))
        if failed.size:
            worst = float(drifts[failed[0]])
            where = {} if label is None else {
                label[0]: int(label[1][sum(map(len, energies)) + failed[0]])}
            raise ConvergenceError(
                "sinc-DVR eigensolve did not converge"
                + "".join(f" at {name} = {value}" for name, value in where.items())
                + f": drift_over_C {worst:.3e} exceeds the limit {_CONVERGENCE_LIMIT:.0e}",
                diagnostics={"grid_points": n, "drift_over_C": worst, "lo": lo, "hi": hi,
                             **where},
            )
        energies.append(coarse)
        drift = max(drift, float(np.max(drifts)))
    energies = np.concatenate(energies)

    def vectors():
        psi = np.concatenate([np.linalg.eigh(hamiltonians(kinetic_fine, rows))[1][:, :, :k]
                              for rows in blocks(potential(grid))]) / np.sqrt(h)
        return psi[0] if single else psi

    return (energies[0] if single else energies), grid, vectors, drift


def radial_dvr(beam, species, j: int, m_ell, n_r_max: int, grid_points: int = 42):
    """`stacked_dvr` on the radial Hamiltonian of each m_ell in the sequence ``m_ell``.

    The box and the effective potential V_l(r) + (m^2 - 1/4) hbar^2 / (2 M r^2)
    are those of `qrotor.spectrum.solve_radial`; the m_ell go in stacks of
    `_M_BLOCK`.  Returns `stacked_dvr`'s ``(energies, grid, vectors, drift)``,
    energies of shape (len(m_ell), n_r_max + 1).
    """
    geo = ring_minima(beam, species, j)

    def v_eff(r):
        well = optical_potential(beam, r, geo.z_j)
        for start in range(0, len(m_ell), _M_BLOCK):
            m = np.asarray(m_ell[start:start + _M_BLOCK], dtype=float)[:, None]
            yield well + (m**2 - 0.25) * HBAR**2 / (2.0 * species.mass) / r**2

    lo = max(geo.r_l - 8.0 * geo.b_r, 1e-4 * geo.r_l)
    hi = geo.r_l + 8.0 * geo.b_r
    return stacked_dvr(
        v_eff, lo, hi, grid_points, species.mass, n_r_max + 1,
        rotational_constant(geo.r_l, species), label=("m_ell", m_ell),
    )


def axial_dvr(beam, species, j: int, n_z_max: int, grid_points: int = 42):
    """Sinc-DVR solve of the axial well kappa_z (z - z_j)^2 / 2 at ring j.

    Runs `stacked_dvr` on z_j +/- 10 b_z in a basis of ``grid_points`` points
    checked against 3n/2, and returns its ``(energies, grid, vectors,
    drift)``: the lowest n_z_max + 1 levels, the 3n/2-point grid, the
    eigenvectors on it (normalised against dz) and the drift between the two
    bases in units of C(r_l).
    """
    geo = ring_minima(beam, species, j)
    half = 10.0 * geo.b_z
    return stacked_dvr(
        lambda z: 0.5 * geo.kappa_z * (z - geo.z_j) ** 2,
        geo.z_j - half, geo.z_j + half, grid_points, species.mass, n_z_max + 1,
        rotational_constant(geo.r_l, species),
    )


def hermite_functions(x, n_max: int) -> np.ndarray:
    """Hermite functions H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi)), n = 0..n_max.

    Summed from the physicists' Hermite series (`numpy.polynomial.hermite`),
    each normalisation taken in log space; shape (len(x), n_max + 1).
    """
    norm = [math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1))) for n in range(n_max + 1)]
    return (hermval(x, np.diag(norm)) * np.exp(-0.5 * x**2)).T / math.sqrt(math.sqrt(math.pi))


def harmonic_ring_profile(beam, r, z):
    """Stand-in for `qrotor.optics.optical_potential`: depth_at_ring + kappa_r (r - r_l)^2 / 2.

    The expansion is about the ring whose antinode z_j is ``z``, with the
    geometry `ring_minima` reports for it (depth and curvature do not depend
    on the species).
    """
    j = round((float(z) - beam.phase_z0) * beam.wavenumber / math.pi)
    geo = ring_minima(beam, LI6, j)
    return geo.depth_at_ring + 0.5 * geo.kappa_r * (np.asarray(r) - geo.r_l) ** 2


def axial_frequency(beam, species, j: int) -> float:
    """sqrt(kappa / M), kappa the central second difference of `optical_potential` along z.

    The difference is taken at (r_l, z_j) of ring j with a step of 1e-3 b_z.
    """
    geo = ring_minima(beam, species, j)
    step = 1e-3 * geo.b_z
    v = optical_potential(beam, geo.r_l, geo.z_j + step * np.array([-1.0, 0.0, 1.0]))
    return math.sqrt((v[0] - 2.0 * v[1] + v[2]) / step**2 / species.mass)


def level_rows(beam, species, limits):
    """Spectrum rows (n_z, n_r, m_ell, energy_J, energy_kB_nK, degeneracy), level by level.

    The solves are padded as `qrotor.spectrum.assemble_spectrum` pads them;
    each level's energy takes the same float operations, and the rows are
    sorted by (energy, n_z, n_r, m_ell).
    """
    axial = solve_axial(beam, species, limits.j, max(limits.n_z_max, 1)).energies
    radial = solve_radial(beam, species, limits.j, range(max(limits.m_ell_max, 1) + 1),
                          max(limits.n_r_max, 1)).energies
    ground = axial[0] + radial[0, 0]
    deg0 = int(round(2 * species.F_ground + 1))
    levels = []
    for n_z in range(limits.n_z_max + 1):
        for n_r in range(limits.n_r_max + 1):
            for m in range(limits.m_ell_max + 1):
                energy = float(axial[n_z] + radial[m, n_r] - ground)
                levels.append((energy, n_z, n_r, m, deg0 if m == 0 else 2 * deg0))
    levels.sort(key=lambda level: level[:4])
    return [(n_z, n_r, m, e, e / K_B * 1e9, deg) for e, n_z, n_r, m, deg in levels]


def nested_calibration(
    omega_r: float,
    tau: float,
    j_max: int,
    target_delta_max: float,
) -> CalibrationResult:
    """`qrotor.raman.calibrate_quadratic_scale` by nested peak searches.

    Every step of both solves runs a whole `lineshape_peak` search.

    Root-finds delta_max(s) = target on the rising branch.  The peak location
    saturates as the broadening grows, so targets beyond the extremum are
    unattainable; in that case the extremal s (closest approach) is returned
    with ``on_target = False``.  Each scale's peak (delta_max, P_max) is
    searched once, by `lineshape_peak` with its own scan, and kept, so the
    result carries the peak at its scale.

    Both solves use the slope of delta_max(s) in closed form.  At the peak the
    stack-mean slope <P0'> vanishes and its s-derivative is <j^2 P0''>, so
    d delta_max / ds = -<j^2 P0''> / <P0''>, both means taken at delta_max
    (`_p0_terms`).

    The extremum is a root of that slope, but the ends of [1e-6 s_max, s_max]
    need not bracket it: delta_max(s) falls to a minimum and can rise to a
    local maximum before s_max (at j_max 12, tau Omega_R = pi the slope is
    -52 at 1e-6 s_max, +0.9 at 0.7 s_max and -1.4 at s_max).  So golden-section
    steps on the values of delta_max, as a bounded minimiser takes them, first
    narrow the interval until its two inner points bracket a slope that turns
    from falling to rising.  A secant iteration on the slope inside that
    bracket (`_falling_root`) then locates the minimum.  The target's root is
    a Newton iteration with the slope, safeguarded inside [1e-9 s_max, s_ext].

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

    @functools.cache
    def peak(s):
        """delta_max, P_max and d delta_max / ds at scale s."""
        shifts = s * j2
        d_max, p_max = lineshape_peak(omega_r, tau, shifts)
        x = d_max + shifts
        curvature = _p0_terms(x, omega_r, tau, 2)[2]
        return d_max, p_max, -float(np.dot(j2, curvature) / curvature.sum())

    def slope(s):
        return peak(float(s))[2]

    width = max(omega_r / _features_per_omega_r(omega_r, tau), np.pi / tau)
    resolution = np.sqrt(np.finfo(float).eps) * width
    mean_j2 = max(j_max * (j_max + 1), 1) / 3.0
    xtol = resolution / mean_j2
    golden = 0.5 * (3.0 - math.sqrt(5.0))
    lo, hi = 1e-6 * s_max, s_max
    left, right = lo + golden * (hi - lo), hi - golden * (hi - lo)
    while not slope(left) < 0.0 < slope(right) and hi - lo > xtol:
        if peak(left)[0] <= peak(right)[0]:
            hi, right = right, left
            left = lo + golden * (hi - lo)
        else:
            lo, left = left, right
            right = hi - golden * (hi - lo)
    if slope(left) < 0.0 < slope(right):
        s_ext = float(_falling_root(lambda s: (-slope(s), None), left, right,
                                    -slope(left), -slope(right), xtol)[0])
    else:  # the minimum is at an end of [1e-6 s_max, s_max]
        s_ext = min(left, right, key=lambda s: peak(s)[0])
    d_ext, p_ext, _ = peak(s_ext)
    if target_delta_max < d_ext:
        return CalibrationResult(s_ext, d_ext, target_delta_max, False, p_ext)
    s_lo = 1e-9 * s_max
    d_lo = peak(s_lo)[0]
    if d_lo <= target_delta_max:
        raise CalibrationTargetError(
            f"the target delta_max = {target_delta_max / omega_r:.3g} Omega_R is passed "
            f"already at the smallest scale tried, s = {s_lo:.3g}, where delta_max = "
            f"{d_lo / omega_r:.3g} Omega_R"
        )

    def miss(s):
        d_max, _, d_slope = peak(float(s))
        return d_max - target_delta_max, d_slope

    s_star = float(_falling_root(miss, s_lo, s_ext, d_lo - target_delta_max,
                                 d_ext - target_delta_max, xtol)[0])
    d_star, p_star, _ = peak(s_star)
    return CalibrationResult(s_star, d_star, target_delta_max, True, p_star)
