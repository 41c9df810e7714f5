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
errors of a whole rotor gap.  Both bases are solved for eigenvalues only.

The radial Hamiltonians of different m_ell differ only in the centrifugal
diagonal, so a spectrum solves its whole m_ell tower at once: per basis it
samples the ring profile once, builds one kinetic matrix, adds each m_ell's
diagonal to a copy, and hands the stack to one eigvalsh call (one LAPACK
solve per matrix, looped in C).  The m_ell go in blocks of `_M_BLOCK`, each
checked before the next, so memory stays bounded and an m_ell_max far
beyond what the box holds stops at its first unconverged block.

The level table (`RotorSpectrum`) is one sorted 1-D array per column: index
arrays over every (n_z, n_r, m_ell), each energy the axial level plus the
radial one, and one lexsort by (energy, n_z, n_r, m_ell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .exceptions import ConvergenceError, InvalidInputError
from .optics import BeamConfig, optical_potential, ring_minima
from .units import HBAR, K_B, AtomSpecies

# Disagreement between the eigenvalues of the n- and 3n/2-point bases, in
# units of the rotor constant C(r_l), beyond which the basis is declared
# unconverged.
_CONVERGENCE_LIMIT = 1e-3
# Default sinc-DVR basis size of the radial solve, and the default number of
# axial wavefunction samples.  Its 3n/2 = 63-point check stays below the 72
# points at which OpenBLAS (0.3.31) hands eigvalsh's tridiagonal reduction to
# a second thread (2-core machine: 0.15 ms per 72-point solve on two cores,
# and in one run 2.8 ms, against 0.12 ms on one core at 63 points).  A stack
# of m_ell is still one LAPACK solve per matrix, so it threads the same way:
# an m_ell_max = 30 spectrum runs at CPU/wall 1.00.
_BASIS_POINTS = 42
# m_ell per eigenvalue stack of a radial solve: a 16 x 63 x 63 stack is
# 0.5 MB at the default basis.  Stacks of 32 raised a process's peak RSS by
# ~0.6 MB over one solve per m_ell (this size: none), and saved under 2% of
# an m_ell_max = 30 spectrum's time.
_M_BLOCK = 16
# Highest axial level a spectrum lists: the +/- 7 b_z sampling box of the axial
# wavefunctions holds the turning point sqrt(2 n + 1) b_z of every n <= 23.
_N_Z_MAX = 23


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
    The spectrum needs only the energies, so the wavefunctions are computed
    on first access: the axial ones are Hermite functions, the radial ones
    the eigenvectors of the 3n/2-point DVR Hamiltonian whose grid is ``grid``.
    """

    energies: np.ndarray
    grid: np.ndarray
    measure: np.ndarray
    drift: float
    _vectors: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def wavefunctions(self) -> np.ndarray:
        return self._vectors()


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
        # a basis of n points resolves n - 4 states (see `_solve_dvr`)
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


def _hamiltonians(kinetic, rows):
    """Stack of the kinetic matrix plus each row of the 2-D ``rows`` on its diagonal."""
    ham = np.repeat(kinetic[None], len(rows), axis=0)
    idx = np.arange(len(kinetic))
    ham[:, idx, idx] += rows
    return ham


def _solve_dvr(potential, lo, hi, n, mass, k, scale, label=None):
    """Lowest k eigenvalues of sinc-DVR Hamiltonians of n points, checked against 3n/2.

    ``potential(x)`` gives the diagonal on the grid x: a 1-D row for a single
    Hamiltonian, or an iterator of blocks of rows, shape (B, len(x)), one row
    per Hamiltonian.  Each block is solved as one stack in both bases, and
    its drift is checked before the next block is drawn: memory stays
    bounded by a block, and the first unconverged block stops the solve.

    Returns ``(energies, grid, vectors, drift)``: the n-point energies, shape
    (k,) for a 1-D row and (M, k) for M rows; the 3n/2-point grid; a
    ``vectors()`` that computes the 3n/2-point eigenvectors normalised
    against dx only when called, shape energies.shape[:-1] + (len(grid), k);
    and the largest difference between the two bases' energies in units of
    ``scale``.  ``label``, a ``(name, values)`` pair giving each row an
    integer, names the first unconverged Hamiltonian in the error.
    """
    if n < k + 4:
        raise InvalidInputError(f"basis of {n} points cannot resolve {k} eigenstates")
    x, _, kinetic = _dvr_kinetic(lo, hi, n, mass)
    grid, h, kinetic_fine = _dvr_kinetic(lo, hi, 3 * n // 2, mass)
    rows_coarse = potential(x)
    single = isinstance(rows_coarse, np.ndarray)

    def blocks(rows):
        return [rows[None]] if single else rows

    energies, drift = [], 0.0
    for rows, rows_fine in zip(blocks(rows_coarse), blocks(potential(grid))):
        coarse = np.linalg.eigvalsh(_hamiltonians(kinetic, rows))[:, :k]
        fine = np.linalg.eigvalsh(_hamiltonians(kinetic_fine, rows_fine))[:, :k]
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
        psi = np.concatenate([np.linalg.eigh(_hamiltonians(kinetic_fine, rows))[1][:, :, :k]
                              for rows in blocks(potential(grid))]) / np.sqrt(h)
        return psi[0] if single else psi

    return (energies[0] if single else energies), grid, vectors, drift


def solve_axial(
    beam: BeamConfig,
    species: AtomSpecies,
    j: int,
    n_z_max: int,
    grid_points: int = _BASIS_POINTS,
) -> BoundStates:
    """Axial levels hbar omega_z (n + 1/2), n = 0..n_z_max, of the well at ring j.

    The well kappa_z (z - z_j)^2 / 2 is exactly harmonic, so ``drift`` is 0.
    The wavefunctions are the Hermite functions H_n(x) exp(-x^2/2) /
    sqrt(2^n n! sqrt(pi) b_z), x = (z - z_j) / b_z, on ``grid_points``
    uniform points over z_j +/- 7 b_z (see `_N_Z_MAX`).
    """
    if n_z_max < 0:
        raise InvalidInputError("n_z_max must be non-negative")
    geo = ring_minima(beam, species, [j])[0]
    energies = HBAR * geo.omega_z * (np.arange(n_z_max + 1) + 0.5)
    grid = np.linspace(geo.z_j - 7.0 * geo.b_z, geo.z_j + 7.0 * geo.b_z, grid_points)

    def vectors():
        from numpy.polynomial.hermite import hermval  # ~3 ms of import that no CLI run needs

        x = (grid - geo.z_j) / geo.b_z
        norm = [math.exp(-0.5 * (n * math.log(2.0) + math.lgamma(n + 1)))
                for n in range(n_z_max + 1)]
        psi = hermval(x, np.diag(norm)) * np.exp(-0.5 * x**2)
        return psi.T / np.sqrt(np.sqrt(np.pi) * geo.b_z)

    return BoundStates(energies, grid, np.ones_like(grid), 0.0, vectors)


def solve_radial(
    beam: BeamConfig,
    species: AtomSpecies,
    j: int,
    m_ell,
    n_r_max: int,
    grid_points: int = _BASIS_POINTS,
) -> BoundStates:
    """Radial levels eps_r(n_r, m_ell) of the ring profile plus centrifugal term.

    ``m_ell`` is an int or a 1-D sequence of ints.  The box spans +/- 8 b_r
    around r_l in a DVR basis of ``grid_points`` points.  The Hamiltonians of
    different m_ell differ only in the centrifugal diagonal, so each basis
    samples the ring profile once and shares one kinetic matrix, and the
    m_ell are solved in stacks of `_M_BLOCK`.  ``energies`` has shape
    np.shape(m_ell) + (n_r_max + 1,) and ``drift`` is the largest over m_ell.
    Eigenfunctions are returned as psi(r) = chi(r)/sqrt(r), orthonormal under
    the cylindrical measure r dr, shape np.shape(m_ell) + (len(grid),
    n_r_max + 1), and computed only when ``wavefunctions`` is first read.
    """
    if n_r_max < 0:
        raise InvalidInputError("n_r_max must be non-negative")
    single = np.isscalar(m_ell)
    ms = [m_ell] if single else m_ell
    if not len(ms):
        raise InvalidInputError("m_ell must not be empty")
    geo = ring_minima(beam, species, [j])[0]

    def v_eff(r):
        well = optical_potential(beam, r, geo.z_j)
        for start in range(0, len(ms), _M_BLOCK):
            m = np.asarray(ms[start:start + _M_BLOCK], dtype=float)[:, None]
            yield well + (m**2 - 0.25) * HBAR**2 / (2.0 * species.mass) / r**2

    lo = max(geo.r_l - 8.0 * geo.b_r, 1e-4 * geo.r_l)
    hi = geo.r_l + 8.0 * geo.b_r
    energies, grid, vectors, drift = _solve_dvr(
        v_eff, lo, hi, grid_points, species.mass, n_r_max + 1,
        rotational_constant(geo.r_l, species), label=("m_ell", ms),
    )
    shape = () if single else (len(ms),)
    return BoundStates(
        energies.reshape(shape + (n_r_max + 1,)), grid, grid.copy(), drift,
        lambda: (vectors() / np.sqrt(grid)[:, None]).reshape(shape + (len(grid), n_r_max + 1)),
    )


def assemble_spectrum(
    beam: BeamConfig, species: AtomSpecies, limits: SpectrumLimits
) -> RotorSpectrum:
    """Combined spectrum eps(n_z, n_r, m_ell) = eps_z(n_z) + eps_r(n_r, m_ell).

    Energies are reported relative to the (0, 0, 0) ground level.  States with
    m_ell = 0 carry the hyperfine multiplicity 2F + 1; states with m_ell != 0
    are doubled by the +/- m_ell orbital degeneracy.  Every m_ell comes from
    one radial solve, which stacks the m_ell into batched eigenvalue solves
    (see `solve_radial`).  It keeps at least two levels and m_ell runs to at
    least 1, so the three gaps come from the same solve as the listed levels
    (eigvalsh computes every level anyway).  The table is built as index
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
