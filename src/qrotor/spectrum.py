"""Bound-state spectra of ring-trapped atoms.

The trap potential separates near a ring minimum into an axial harmonic well
and a radial profile V_l(r), both read from the ring's `TrapGeometry`; the
azimuthal motion contributes a rigid-rotor tower m^2 C(r) with
C(r) = hbar^2 / (2 M r^2).  Both 1-D problems
are solved in a Colbert-Miller sinc discrete-variable representation (DVR) on
a uniform grid (D. T. Colbert and W. H. Miller, J. Chem. Phys. 96, 1982
(1992)).  The radial equation (cylindrical Laplacian) is symmetrised with
psi = chi / sqrt(r), which maps it onto a 1-D problem with effective potential
V_l(r) + (m^2 - 1/4) hbar^2 / (2 M r^2).

The wells are smooth and each box spans 7-8 oscillator lengths either side,
so the DVR eigenvalues converge exponentially in the basis size: on the fig2
trap 42 points put every level within 3e-10 of a rotor gap of its 128-point
value, which is the rounding floor of energies ~1e5 gaps deep.  Each solve is
repeated in a basis of 3n/2 points, and the largest difference of the two in
units of the ring's rotor constant C(r_l) is the convergence diagnostic: the
levels are that deep, so a drift relative to the level energy would hide
errors of a whole rotor gap.  Both bases are solved for eigenvalues only; the
eigenfunctions of the larger basis are computed on request.
"""

from __future__ import annotations

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
# Default sinc-DVR basis size of both 1-D solves.  Its 3n/2 = 63-point check
# stays below the 72 points at which OpenBLAS (0.3.31) hands eigvalsh's
# tridiagonal reduction to a second thread (2-core machine: 0.15 ms per
# 72-point solve on two cores, and in one run 2.8 ms, against 0.12 ms on one
# core at 63 points).
_BASIS_POINTS = 42


@dataclass(frozen=True)
class QuantumNumbers:
    """Separable quantum numbers of a trapped rotor state."""

    n_z: int
    n_r: int
    m_ell: int
    m_F: float = 0.0


@dataclass(frozen=True)
class EnergyLevel:
    qn: QuantumNumbers
    energy: float          # J, relative to the (0,0,0) ground level
    degeneracy: int


@dataclass(frozen=True)
class RotorSpectrum:
    levels: tuple[EnergyLevel, ...]
    gaps: tuple[float, float, float]   # (eps_z, eps_r, eps_ell) in J
    inequalities_ok: bool
    ratio_threshold: float = 10.0


@dataclass(frozen=True)
class BoundStates:
    """Eigenvalues and eigenfunctions of one 1-D solve.

    ``wavefunctions[:, n]`` is state n sampled on ``grid``, normalised so that
    the trapezoid integral of |psi|^2 against ``measure`` equals one
    (measure = 1 for axial dz, measure = r for the radial r dr weight).
    The spectrum needs only the energies, so the eigenvectors are computed on
    first access to ``wavefunctions``, from the 3n/2-point DVR Hamiltonian
    whose grid is ``grid``.
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
        if self.ratio_threshold <= 0:
            raise InvalidInputError("ratio_threshold must be positive")


def rotational_constant(r, species: AtomSpecies):
    """Rigid-rotor energy scale C(r) = hbar^2 / (2 M r^2); r may be an array."""
    if np.any(np.asarray(r) <= 0):
        raise InvalidInputError("radius must be positive")
    return HBAR**2 / (2.0 * species.mass * r**2)


def _dvr_hamiltonian(potential, lo: float, hi: float, n: int, mass: float):
    """Colbert-Miller sinc-DVR Hamiltonian on n points strictly inside (lo, hi).

    T_ii = t pi^2 / 3 and T_ij = t 2 (-1)^(i-j) / (i-j)^2 with
    t = hbar^2 / (2 m h^2); the potential is diagonal.  Returns the grid, its
    spacing and the dense matrix.
    """
    x = np.linspace(lo, hi, n + 2)[1:-1]
    h = x[1] - x[0]
    k = np.arange(1, n)
    row = np.concatenate(([np.pi**2 / 3.0], 2.0 * (-1.0) ** k / k**2))
    idx = np.arange(n)
    ham = HBAR**2 / (2.0 * mass * h**2) * row[np.abs(idx[:, None] - idx[None, :])]
    ham[idx, idx] += potential(x)
    return x, h, ham


def _solve_dvr(potential, lo, hi, n, mass, k, scale):
    """Lowest k eigenvalues of a sinc-DVR basis of n points, checked against 3n/2.

    Returns ``(energies, grid, vectors, drift)``: the n-point energies, the
    3n/2-point grid, a ``vectors()`` that computes the 3n/2-point
    eigenvectors normalised against dx only when called, and the largest
    difference between the two bases' energies in units of ``scale``.
    """
    if n < k + 4:
        raise InvalidInputError(f"basis of {n} points cannot resolve {k} eigenstates")
    energies = np.linalg.eigvalsh(_dvr_hamiltonian(potential, lo, hi, n, mass)[2])[:k]
    grid, h, ham = _dvr_hamiltonian(potential, lo, hi, 3 * n // 2, mass)
    fine = np.linalg.eigvalsh(ham)[:k]
    drift = float(np.max(np.abs(energies - fine)) / scale)
    if not drift <= _CONVERGENCE_LIMIT:
        raise ConvergenceError(
            "sinc-DVR eigensolve did not converge",
            diagnostics={"grid_points": n, "drift_over_C": drift, "lo": lo, "hi": hi},
        )

    def vectors():
        return np.linalg.eigh(ham)[1][:, :k] / np.sqrt(h)

    return energies, grid, vectors, drift


def solve_axial(
    beam: BeamConfig,
    species: AtomSpecies,
    j: int,
    n_z_max: int,
    grid_points: int = _BASIS_POINTS,
) -> BoundStates:
    """Axial levels of the harmonic standing-wave well at ring j.

    Solves -(hbar^2/2M) d^2/dz^2 + kappa_z (z - z_j)^2 / 2 on a symmetric box
    of +/- 7 b_z around z_j in a DVR basis of ``grid_points`` points; returns
    the lowest n_z_max + 1 levels in ascending order.  Only eigenvalues are
    computed here; see ``BoundStates.wavefunctions``.
    """
    if n_z_max < 0:
        raise InvalidInputError("n_z_max must be non-negative")
    geo = ring_minima(beam, species, [j])[0]

    def well(z):
        return 0.5 * geo.kappa_z * (z - geo.z_j) ** 2

    # at +/- 6 b_z the box raised the n = 3 level by 3e-11 of itself, ~1e-5 rotor gaps
    half = 7.0 * geo.b_z
    energies, grid, vectors, drift = _solve_dvr(
        well, geo.z_j - half, geo.z_j + half, grid_points, species.mass, n_z_max + 1,
        rotational_constant(geo.r_l, species),
    )
    return BoundStates(energies, grid, np.ones_like(grid), drift, vectors)


def solve_radial(
    beam: BeamConfig,
    species: AtomSpecies,
    j: int,
    m_ell: int,
    n_r_max: int,
    grid_points: int = _BASIS_POINTS,
    radial_profile: str = "full",
) -> BoundStates:
    """Radial levels eps_r(n_r, m_ell) of the ring profile plus centrifugal term.

    ``radial_profile`` selects the full ring profile V_l(r) or its harmonic
    expansion about r_l (the oracle used to validate the grid machinery).
    The box spans +/- 8 b_r around r_l in a DVR basis of ``grid_points``
    points.
    Eigenfunctions are returned as psi(r) = chi(r)/sqrt(r), orthonormal under
    the cylindrical measure r dr; like the axial ones they are computed only
    when ``wavefunctions`` is first read.
    """
    if n_r_max < 0:
        raise InvalidInputError("n_r_max must be non-negative")
    geo = ring_minima(beam, species, [j])[0]
    if radial_profile == "full":
        v_profile = lambda r: optical_potential(beam, r, geo.z_j)
    elif radial_profile == "harmonic":
        v_profile = lambda r: geo.depth_at_ring + 0.5 * geo.kappa_r * (r - geo.r_l) ** 2
    else:
        raise InvalidInputError("radial_profile must be 'full' or 'harmonic'")

    coeff = (m_ell**2 - 0.25) * HBAR**2 / (2.0 * species.mass)

    def v_eff(r):
        return v_profile(r) + coeff / r**2

    lo = max(geo.r_l - 8.0 * geo.b_r, 1e-4 * geo.r_l)
    hi = geo.r_l + 8.0 * geo.b_r
    energies, grid, vectors, drift = _solve_dvr(
        v_eff, lo, hi, grid_points, species.mass, n_r_max + 1,
        rotational_constant(geo.r_l, species),
    )
    return BoundStates(
        energies, grid, grid.copy(), drift, lambda: vectors() / np.sqrt(grid)[:, None]
    )


def assemble_spectrum(
    beam: BeamConfig, species: AtomSpecies, limits: SpectrumLimits
) -> RotorSpectrum:
    """Combined spectrum eps(n_z, n_r, m_ell) = eps_z(n_z) + eps_r(n_r, m_ell).

    Energies are reported relative to the (0, 0, 0) ground level.  States with
    m_ell = 0 carry the hyperfine multiplicity 2F + 1; states with m_ell != 0
    are doubled by the +/- m_ell orbital degeneracy.  The radial solves run
    one after another: each is a pair of dense eigenvalue solves of at most
    63 x 63, far too small to share across threads.  Each solve keeps at least
    two levels and m_ell runs to at least 1, so the three gaps come from the
    same solves as the listed levels (eigvalsh computes every level anyway).
    """
    axial = solve_axial(beam, species, limits.j, max(limits.n_z_max, 1))
    radial_by_m = {
        m: solve_radial(beam, species, limits.j, m, max(limits.n_r_max, 1))
        for m in range(max(limits.m_ell_max, 1) + 1)
    }

    ground = axial.energies[0] + radial_by_m[0].energies[0]
    deg0 = int(round(2 * species.F_ground + 1))
    levels = []
    for n_z in range(limits.n_z_max + 1):
        for n_r in range(limits.n_r_max + 1):
            for m in range(limits.m_ell_max + 1):
                energy = axial.energies[n_z] + radial_by_m[m].energies[n_r] - ground
                levels.append(
                    EnergyLevel(
                        qn=QuantumNumbers(n_z=n_z, n_r=n_r, m_ell=m),
                        energy=float(energy),
                        degeneracy=deg0 if m == 0 else 2 * deg0,
                    )
                )
    levels.sort(key=lambda lv: (lv.energy, lv.qn.n_z, lv.qn.n_r, lv.qn.m_ell))

    eps_z = float(axial.energies[1] - axial.energies[0])
    eps_r = float(radial_by_m[0].energies[1] - radial_by_m[0].energies[0])
    eps_ell = float(radial_by_m[1].energies[0] - radial_by_m[0].energies[0])

    thr = limits.ratio_threshold
    ok = eps_z >= thr * eps_r and eps_r >= thr * eps_ell and eps_ell > 0
    return RotorSpectrum(
        levels=tuple(levels),
        gaps=(eps_z, eps_r, eps_ell),
        inequalities_ok=bool(ok),
        ratio_threshold=thr,
    )


def rotating_frame_energy(level: EnergyLevel, omega: float) -> float:
    """Level energy in a frame rotating at omega: eps + hbar * omega * m_ell."""
    return level.energy + HBAR * omega * level.qn.m_ell


def spectrum_rows(spectrum: RotorSpectrum):
    """Rows (n_z, n_r, m_ell, energy_J, energy_kB_nK, degeneracy) for export."""
    return [
        (
            lv.qn.n_z,
            lv.qn.n_r,
            lv.qn.m_ell,
            lv.energy,
            lv.energy / K_B * 1e9,
            lv.degeneracy,
        )
        for lv in spectrum.levels
    ]
