"""Bound-state spectra of ring-trapped atoms.

The trap potential separates near a ring minimum into an axial harmonic well
and a radial profile V_l(r), both read from the ring's `TrapGeometry`; the
azimuthal motion contributes a rigid-rotor tower m^2 C(r) with
C(r) = hbar^2 / (2 M r^2).  The axial well kappa_z (z - z_j)^2 / 2 is exactly
harmonic: its levels are hbar omega_z (n + 1/2) and its eigenfunctions are
Hermite functions.  Only the radial profile is solved numerically, in a
Colbert-Miller sinc discrete-variable representation (DVR) on a uniform grid
(D. T. Colbert and W. H. Miller, J. Chem. Phys. 96, 1982 (1992)).  The radial
equation (cylindrical Laplacian) is symmetrised with psi = chi / sqrt(r),
which maps it onto a 1-D problem with effective potential
V_l(r) + (m^2 - 1/4) hbar^2 / (2 M r^2).

The well is smooth and the box spans 8 oscillator lengths either side, so
the DVR eigenvalues converge exponentially in the basis size: on the fig2
trap 42 points put every level within 3e-10 of a rotor gap of its 128-point
value, which is the rounding floor of energies ~1e5 gaps deep.  Each solve is
repeated in a basis of 3n/2 points, and the largest difference of the two in
units of the ring's rotor constant C(r_l) is the convergence diagnostic: the
levels are that deep, so a drift relative to the level energy would hide
errors of a whole rotor gap.

The radial Hamiltonians of different m_ell differ only in the centrifugal
diagonal: H(m) = H(m0) + (m^2 - m0^2) D, with D = hbar^2 / (2 M r^2) on the
grid.  So per basis a solve samples the ring profile once, and each stretch
of `_M_BLOCK` m_ell shares one eigendecomposition H(m0) = V diag(E0) V^T at
its reference m0.  The levels of each m are then its Rayleigh-Ritz values on
the lowest K columns of V: the eigenvalues theta_i, eigenvectors y_i of the
K x K matrix diag(E0) + (m^2 - m0^2) W, with W = V^T D V shared.  The i-th
Ritz value is never below the i-th eigenvalue (Cauchy interlacing), and its
residual norm is rho_i = |m^2 - m0^2| ||(D V - V W) y_i||.  The rest of the
basis is bounded below by E0[K] + (m^2 - m0^2) D, which proves a lower bound
on the next eigenvalue, and with it the Kato-Temple bound rho_i^2 / gap on
theta_i minus the eigenvalue (B. N. Parlett, The Symmetric Eigenvalue
Problem, ch. 10-11; T. Kato, J. Phys. Soc. Jpn. 4, 334 (1949); see `_ritz`).
Where that bound exceeds `_RITZ_LIMIT` C(r_l), the m is solved again with
twice as many columns, up to the whole basis, where Ritz is exact.  On the
fig2 trap the Ritz levels of m_ell 0..30 lie within 3e-14 C(r_l) of the
eigenvalues by that bound, and agree with a full eigvalsh of each
Hamiltonian to 8e-10 C(r_l), that solve's own rounding.  The m_ell go in
blocks of `_M_BLOCK`, each checked before the next, so memory stays bounded
and an m_ell_max far beyond what the box holds stops at its first
unconverged block.  The radial wavefunctions are the Ritz vectors V y of the
3n/2-point basis, kept from the same solve.

The level table (`RotorSpectrum`) is one sorted 1-D array per column: index
arrays over every (n_z, n_r, m_ell), each energy the axial level plus the
radial one, and one lexsort by (energy, n_z, n_r, m_ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConvergenceError, InvalidInputError
from .optics import BeamConfig, optical_potential, ring_minima
from .units import HBAR, K_B, AtomSpecies

# Disagreement between the eigenvalues of the n- and 3n/2-point bases, in
# units of the rotor constant C(r_l), beyond which the basis is declared
# unconverged.
_CONVERGENCE_LIMIT = 1e-3
# Default sinc-DVR basis size of the radial solve.  The reference
# eigendecompositions (eigh, LAPACK syevd) of more than 25 points take the
# divide-and-conquer path, on which OpenBLAS (0.3.31) wakes a second thread,
# although one is faster (2-core machine: 0.32 ms per 42-point eigh on two
# cores against 0.24 ms on one, 0.62 against 0.49 ms at 63 points); numpy has
# no eigenvector solver that stays on the calling thread at these sizes.  So a radial solve of
# m_ell 0..30, two such eigh calls, runs at CPU/wall 1.9-2.0 (min of 60 runs:
# 2.0-3.8 ms, against 8.7-14 ms for a full eigvalsh of every Hamiltonian).
_BASIS_POINTS = 42
# m_ell per block of a radial solve, and per stretch that shares one
# reference eigendecomposition: an m_ell_max <= 31 spectrum makes one per
# basis.  A block holds 32 K x K Ritz matrices and Ritz vectors of 32 x 63 x k
# floats at the default basis.
_M_BLOCK = 32
# Ritz pairs a radial solve first takes beyond the k levels it reports: with
# 6, no m_ell in 0..127 on the fig2 trap (n_r_max <= 4) needs more.
_RITZ_SPARE = 6
# Largest Kato-Temple bound a Ritz value may keep, in units of C(r_l): a
# third of the rounding floor of the levels (see the module docstring), so
# Rayleigh-Ritz moves no level by more than a full eigensolve's rounding.
_RITZ_LIMIT = 1e-10
# Highest axial level a spectrum lists, and the half-width in b_z and the
# default number of samples of the box its wavefunctions are sampled on.  The
# turning point sqrt(2 n + 1) b_z of n = 23 lies at 6.9 b_z; a +/- 7 b_z box
# cut 2.8e-2 of that state's norm (|1 - sum psi^2 dz|, trapezoid), and the
# +/- 10 b_z box, at the same spacing of ~0.34 b_z, cuts below 1e-9 of every
# listed state.
_N_Z_MAX = 23
_AXIAL_HALF_WIDTH = 10.0
_AXIAL_POINTS = 60


@dataclass(frozen=True)
class RotorSpectrum:
    """Level table, one 1-D array per column, sorted by (energy, n_z, n_r, m_ell)."""

    n_z: np.ndarray
    n_r: np.ndarray
    m_ell: np.ndarray
    energy: np.ndarray                 # J, relative to the (0,0,0) ground level
    degeneracy: np.ndarray
    gaps: tuple[float, float, float]   # (eps_z, eps_r, eps_ell) in J
    inequalities_ok: bool
    ratio_threshold: float


@dataclass(frozen=True)
class BoundStates:
    """Eigenvalues and eigenfunctions of one 1-D solve.

    ``wavefunctions[..., :, n]`` is state n sampled on ``grid`` (a leading
    axis runs over the m_ell of a radial solve given several), normalised so
    that the trapezoid integral of |psi|^2 against ``measure`` equals one
    (measure = 1 for axial dz, measure = r for the radial r dr weight).
    The solve fills them in: the axial ones are Hermite functions, the
    radial ones the Ritz vectors V y that the 3n/2-point DVR basis, whose
    grid is ``grid``, computes with its levels (see `_ritz`).  ``drift`` is
    the largest difference between the n- and 3n/2-point levels, and
    ``ritz_bound`` the largest residual bound of a Ritz value in either
    basis, both in units of C(r_l) (both 0 for the closed-form axial
    levels).
    """

    energies: np.ndarray
    grid: np.ndarray
    measure: np.ndarray
    drift: float
    ritz_bound: float
    wavefunctions: np.ndarray


@dataclass(frozen=True)
class SpectrumLimits:
    n_z_max: int
    n_r_max: int
    m_ell_max: int
    j: int = 0
    ratio_threshold: float = 10.0

    def __post_init__(self):
        for name in ("n_z_max", "n_r_max", "m_ell_max"):
            if getattr(self, name) < 0:
                raise InvalidInputError(f"{name} must be non-negative")
        if self.n_z_max > _N_Z_MAX:
            raise InvalidInputError(f"n_z_max must be at most {_N_Z_MAX}")
        # a basis of n points resolves n - 4 states (see `solve_radial`)
        if self.n_r_max > _BASIS_POINTS - 5:
            raise InvalidInputError(f"n_r_max must be at most {_BASIS_POINTS - 5}")
        if not self.ratio_threshold > 0:
            raise InvalidInputError("ratio_threshold must be positive")


def rotational_constant(r, species: AtomSpecies):
    """Rigid-rotor energy scale C(r) = hbar^2 / (2 M r^2); r may be an array."""
    if np.any(np.asarray(r) <= 0):
        raise InvalidInputError("radius must be positive")
    return HBAR**2 / (2.0 * species.mass * r**2)


def _dvr_kinetic(lo: float, hi: float, n: int, mass: float):
    """Colbert-Miller sinc-DVR kinetic matrix on n points strictly inside (lo, hi).

    T_ii = t pi^2 / 3 and T_ij = t 2 (-1)^(i-j) / (i-j)^2 with
    t = hbar^2 / (2 m h^2).  Returns the grid, its spacing and the matrix.
    """
    x = np.linspace(lo, hi, n + 2)[1:-1]
    h = x[1] - x[0]
    k = np.arange(1, n)
    row = np.concatenate(([np.pi**2 / 3.0], 2.0 * (-1.0) ** k / k**2))
    idx = np.arange(n)
    return x, h, HBAR**2 / (2.0 * mass * h**2) * row[np.abs(idx[:, None] - idx[None, :])]


def _ritz(hamiltonian, d, m_ell, k, limit):
    """Lowest k eigenpairs of hamiltonian + m^2 diag(d) for each m in ``m_ell``, by Rayleigh-Ritz.

    |m| falls in a stretch of `_M_BLOCK` m_ell, whose reference m0^2 is the
    mean of its end points' m^2: one eigendecomposition H0 = V diag(E0) V^T
    per stretch serves all its m.  With delta = m^2 - m0^2, the levels of m
    are the eigenvalues theta (eigenvectors y) of A = diag(E0) + delta W
    over V's lowest K columns, W = V^T D V and K = k + `_RITZ_SPARE` at
    first.  In the basis (V_K, V_rest), H = [[A, B^T], [B, C]] with
    ||B|| = |delta| ||R|| <= |delta| ||R||_F, R = D V_K - V_K W, and
    C >= c = E0[K] + min(delta D).  For x < c the inertia of H - x is that
    of C - x plus that of A - x - B^T (C - x)^-1 B, so fewer than i + 1
    eigenvalues lie below theta_{i+1} - g, g = 2 ||B||^2 / (c - theta_{i+1}
    + sqrt((c - theta_{i+1})^2 + 4 ||B||^2)): a proven lower bound on the
    (i+1)-th eigenvalue.  Kato-Temple then bounds theta_i minus the i-th
    eigenvalue by rho_i^2 / (theta_{i+1} - g - theta_i), with the residual
    norm rho_i = |delta| ||R y_i||.  A row whose largest bound exceeds
    ``limit`` (or whose gap is not proven) is solved again on its own with
    twice as many columns; at K = n Ritz is exact and the bound is 0.  What
    a row's levels take depends on its m alone, so they come out the same
    in any batch.  All of this holds to the rounding of the reference
    eigendecomposition.

    Returns ``(energies, bound, vectors)``: shape (len(m_ell), k), the
    largest accepted bound, and the Ritz vectors V y, shape
    (len(m_ell), n, k).
    """
    n = len(d)
    energies, vectors, bound = np.empty((len(m_ell), k)), np.empty((len(m_ell), n, k)), 0.0
    stretch = np.abs(m_ell) // _M_BLOCK
    m2 = np.asarray(m_ell, dtype=float) ** 2
    for s in np.unique(stretch).tolist():
        m0sq = ((s * _M_BLOCK) ** 2 + (s * _M_BLOCK + _M_BLOCK - 1) ** 2) / 2.0
        e0, v = np.linalg.eigh(hamiltonian + np.diag(m0sq * d))
        todo = [(np.flatnonzero(stretch == s), k + _RITZ_SPARE)]
        while todo:
            rows, size = todo.pop()
            size = min(size, n)
            shift = m2[rows] - m0sq
            basis = v[:, :size]
            w = basis.T @ (d[:, None] * basis)
            a = shift[:, None, None] * w
            a[:, np.arange(size), np.arange(size)] += e0[:size]
            theta, y = np.linalg.eigh(a)
            y = y[..., :k]
            if size < n:
                r = d[:, None] * basis - basis @ w
                delta = np.abs(shift)[:, None]
                rho = delta * np.sqrt(np.sum(y * (r.T @ r @ y), axis=1))
                coupling = delta * np.sqrt(np.sum(r * r))
                c = e0[size] + np.minimum(shift * d.min(), shift * d.max())
                eta = c[:, None] - theta[:, 1:k + 1]
                g = 2.0 * coupling**2 / (eta + np.sqrt(eta**2 + 4.0 * coupling**2))
                gap = theta[:, 1:k + 1] - g - theta[:, :k]
                error = np.max(np.where(gap > 0.0, rho**2 / gap, np.inf), axis=1)
                done = error <= limit
                bound = max(bound, float(np.max(error[done], initial=0.0)))
            else:
                done = np.ones(rows.size, dtype=bool)
            energies[rows[done]] = theta[done, :k]
            vectors[rows[done]] = basis @ y[done]
            todo += [(rows[[i]], 2 * size) for i in np.flatnonzero(~done)]
    return energies, bound, vectors


def solve_axial(
    beam: BeamConfig,
    species: AtomSpecies,
    j: int,
    n_z_max: int,
    grid_points: int = _AXIAL_POINTS,
) -> BoundStates:
    """Axial levels hbar omega_z (n + 1/2), n = 0..n_z_max, of the well at ring j.

    The well kappa_z (z - z_j)^2 / 2 is exactly harmonic, so ``drift`` and
    ``ritz_bound`` are 0.  The wavefunctions are the Hermite functions
    H_n(x) exp(-x^2/2) / sqrt(2^n n! sqrt(pi) b_z), x = (z - z_j) / b_z, on
    ``grid_points`` uniform points over z_j +/- 10 b_z (see `_N_Z_MAX`),
    from the normalised three-term recurrence
    psi_(n+1) = sqrt(2 / (n+1)) x psi_n - sqrt(n / (n+1)) psi_(n-1).
    """
    if n_z_max < 0:
        raise InvalidInputError("n_z_max must be non-negative")
    geo = ring_minima(beam, species, j)
    energies = HBAR * geo.omega_z * (np.arange(n_z_max + 1) + 0.5)
    half = _AXIAL_HALF_WIDTH * geo.b_z
    grid = np.linspace(geo.z_j - half, geo.z_j + half, grid_points)
    x = (grid - geo.z_j) / geo.b_z
    psi = np.empty((grid_points, n_z_max + 1))
    psi[:, 0] = np.exp(-0.5 * x**2) / np.sqrt(np.sqrt(np.pi) * geo.b_z)
    if n_z_max:
        psi[:, 1] = math.sqrt(2.0) * x * psi[:, 0]
    for n in range(1, n_z_max):
        psi[:, n + 1] = (math.sqrt(2.0 / (n + 1)) * x * psi[:, n]
                         - math.sqrt(n / (n + 1)) * psi[:, n - 1])
    return BoundStates(energies, grid, np.ones_like(grid), 0.0, 0.0, psi)


def solve_radial(
    beam: BeamConfig,
    species: AtomSpecies,
    j: int,
    m_ell,
    n_r_max: int,
    grid_points: int = _BASIS_POINTS,
) -> BoundStates:
    """Radial levels eps_r(n_r, m_ell) of the ring profile plus centrifugal term.

    ``m_ell`` is an int or a 1-D sequence of ints; anything else raises
    `InvalidInputError`.  The box spans +/- 8 b_r around r_l in a DVR basis
    of n = ``grid_points`` points, checked against 3n/2.  The Hamiltonian
    of m is T + diag(V_l(r) + (m^2 - 1/4) D), D = hbar^2 / (2 M r^2), so
    each basis samples the ring profile once, and each stretch of
    `_M_BLOCK` m_ell shares one reference eigendecomposition, from which
    every m takes its levels by Rayleigh-Ritz (`_ritz`).  The m_ell go in
    blocks of `_M_BLOCK`, each solved in both bases and its drift checked
    before the next, so the first unconverged block stops the solve, naming
    its first failing m_ell.  ``energies`` are the n-point levels, shape
    np.shape(m_ell) + (n_r_max + 1,); ``drift`` and ``ritz_bound`` are the
    largest over m_ell.  The wavefunctions are the 3n/2-point Ritz vectors
    as psi(r) = chi(r)/sqrt(r), orthonormal under the cylindrical measure
    r dr, shape np.shape(m_ell) + (len(grid), n_r_max + 1).
    """
    if n_r_max < 0:
        raise InvalidInputError("n_r_max must be non-negative")
    single = np.isscalar(m_ell)
    # a range stays lazy: an m_ell_max of 10**6 must not become an array
    ms = m_ell if isinstance(m_ell, range) else np.asarray([m_ell] if single else m_ell)
    if not isinstance(ms, range) and (ms.ndim != 1 or not np.issubdtype(ms.dtype, np.integer)):
        raise InvalidInputError("m_ell must be an int or a 1-D sequence of ints")
    if not len(ms):
        raise InvalidInputError("m_ell must not be empty")
    geo = ring_minima(beam, species, j)
    lo = max(geo.r_l - 8.0 * geo.b_r, 1e-4 * geo.r_l)
    hi = geo.r_l + 8.0 * geo.b_r
    n, k, mass = grid_points, n_r_max + 1, species.mass
    if n < k + 4:
        raise InvalidInputError(f"basis of {n} points cannot resolve {k} eigenstates")
    scale = rotational_constant(geo.r_l, species)
    bases = []
    for size in (n, 3 * n // 2):   # grid and h stay the 3n/2-point basis's
        grid, h, hamiltonian = _dvr_kinetic(lo, hi, size, mass)
        d = HBAR**2 / (2.0 * mass) / grid**2
        hamiltonian[np.diag_indices(size)] += optical_potential(beam, grid, geo.z_j) - 0.25 * d
        bases.append((hamiltonian, d))
    limit = _RITZ_LIMIT * scale

    energies, vectors, drift, bound = [], [], 0.0, 0.0
    for start in range(0, len(ms), _M_BLOCK):
        block = ms[start:start + _M_BLOCK]
        (coarse, coarse_bound, _), (fine, fine_bound, fine_vectors) = (
            _ritz(*basis, block, k, limit) for basis in bases)
        drifts = np.max(np.abs(coarse - fine), axis=1) / scale
        failed = np.flatnonzero(~(drifts <= _CONVERGENCE_LIMIT))
        if failed.size:
            worst, m = float(drifts[failed[0]]), int(block[failed[0]])
            raise ConvergenceError(
                f"sinc-DVR eigensolve did not converge at m_ell = {m}: drift_over_C "
                f"{worst:.3e} exceeds the limit {_CONVERGENCE_LIMIT:.0e}",
                diagnostics={"grid_points": n, "drift_over_C": worst, "lo": lo, "hi": hi,
                             "m_ell": m},
            )
        energies.append(coarse)
        vectors.append(fine_vectors)
        drift = max(drift, float(np.max(drifts)))
        bound = max(bound, coarse_bound, fine_bound)

    shape = () if single else (len(ms),)
    psi = np.concatenate(vectors) / np.sqrt(h) / np.sqrt(grid)[:, None]
    return BoundStates(
        np.concatenate(energies).reshape(shape + (k,)), grid, grid.copy(), drift,
        bound / scale, psi.reshape(shape + (len(grid), k)),
    )


def assemble_spectrum(
    beam: BeamConfig, species: AtomSpecies, limits: SpectrumLimits
) -> RotorSpectrum:
    """Combined spectrum eps(n_z, n_r, m_ell) = eps_z(n_z) + eps_r(n_r, m_ell).

    Energies are reported relative to the (0, 0, 0) ground level.  States with
    m_ell = 0 carry the hyperfine multiplicity 2F + 1; states with m_ell != 0
    are doubled by the +/- m_ell orbital degeneracy.  Every m_ell comes from
    one radial solve, which takes each stretch of m_ell from one reference
    eigendecomposition per basis (see `solve_radial`).  It keeps at least two
    levels and m_ell runs to at least 1, so the three gaps come from the same
    solve as the listed levels.  The table is built as index
    arrays over every (n_z, n_r, m_ell) and sorted with one lexsort.
    """
    axial = solve_axial(beam, species, limits.j, max(limits.n_z_max, 1)).energies
    radial = solve_radial(beam, species, limits.j, range(max(limits.m_ell_max, 1) + 1),
                          max(limits.n_r_max, 1)).energies

    ground = axial[0] + radial[0, 0]
    deg0 = int(round(2 * species.F_ground + 1))
    n_z, n_r, m = (a.ravel() for a in np.meshgrid(
        np.arange(limits.n_z_max + 1), np.arange(limits.n_r_max + 1),
        np.arange(limits.m_ell_max + 1), indexing="ij"))
    energy = axial[n_z] + radial[m, n_r] - ground
    order = np.lexsort((m, n_r, n_z, energy))
    n_z, n_r, m, energy = n_z[order], n_r[order], m[order], energy[order]

    eps_z = float(axial[1] - axial[0])
    eps_r = float(radial[0, 1] - radial[0, 0])
    eps_ell = float(radial[1, 0] - radial[0, 0])

    thr = limits.ratio_threshold
    ok = eps_z >= thr * eps_r and eps_r >= thr * eps_ell and eps_ell > 0
    return RotorSpectrum(
        n_z=n_z, n_r=n_r, m_ell=m, energy=energy,
        degeneracy=np.where(m == 0, deg0, 2 * deg0),
        gaps=(eps_z, eps_r, eps_ell),
        inequalities_ok=bool(ok),
        ratio_threshold=thr,
    )


def spectrum_rows(spectrum: RotorSpectrum):
    """Rows (n_z, n_r, m_ell, energy_J, energy_kB_nK, degeneracy) for export."""
    s = spectrum
    return list(zip(s.n_z.tolist(), s.n_r.tolist(), s.m_ell.tolist(), s.energy.tolist(),
                    (s.energy / K_B * 1e9).tolist(), s.degeneracy.tolist()))
