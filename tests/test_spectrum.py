from dataclasses import replace

import numpy as np
import pytest

import qrotor.spectrum
from qrotor.exceptions import ConvergenceError, InvalidInputError
from qrotor.optics import ring_minima
from qrotor.spectrum import (
    SpectrumLimits,
    assemble_spectrum,
    rotational_constant,
    solve_axial,
    solve_radial,
    spectrum_rows,
)
from qrotor.units import HBAR, K_B

from oracles import (
    axial_dvr,
    axial_frequency,
    harmonic_ring_profile,
    hermite_functions,
    level_rows,
    radial_dvr,
)


R_L = 15.811388300841896e-6  # w0 sqrt(l/2) for w0 = 10 um, l = 5


def test_rotational_constant_reference(li6):
    c = rotational_constant(R_L, li6)
    assert c / K_B == pytest.approx(0.1613e-9, rel=5e-3, abs=0)
    assert c / HBAR == pytest.approx(21.13, rel=5e-3, abs=0)


def test_rotational_constant_scaling(li6):
    c = rotational_constant(R_L, li6)
    assert rotational_constant(2 * R_L, li6) == pytest.approx(c / 4, rel=1e-12, abs=0)
    with pytest.raises(InvalidInputError):
        rotational_constant(0.0, li6)


def test_axial_levels_match_harmonic_oracle(fig_beam, li6):
    # omega_z from the curvature of optical_potential itself, not ring_minima's
    states = solve_axial(fig_beam, li6, 0, 3)
    exact = HBAR * axial_frequency(fig_beam, li6, 0) * (np.arange(4) + 0.5)
    assert np.allclose(states.energies, exact, rtol=1e-6)
    # reference gap value
    gap = states.energies[1] - states.energies[0]
    assert gap / K_B == pytest.approx(22.36e-6, rel=1e-3, abs=0)


@pytest.mark.parametrize("j", [0, 3, -120])
def test_axial_dvr_matches_harmonic_oracle_to_1e10(fig_beam, li6, j):
    # the axial well is exactly harmonic, so the DVR levels are the closed
    # form hbar w_z (n + 1/2) that solve_axial returns
    energies = axial_dvr(fig_beam, li6, j, 5)[0]
    exact = solve_axial(fig_beam, li6, j, 5).energies
    assert np.max(np.abs(energies / exact - 1.0)) <= 1e-10


def test_axial_energies_converge_with_basis_size(fig_beam, li6):
    # the drift of an n-point solve is its difference from the 3n/2-point
    # solve, in units of the ring's rotor constant C(r_l)
    coarse, _, _, drift = axial_dvr(fig_beam, li6, 0, 3, grid_points=42)
    fine = axial_dvr(fig_beam, li6, 0, 3, grid_points=63)[0]
    assert np.max(np.abs(coarse / fine - 1.0)) <= 1e-10
    c_rl = rotational_constant(ring_minima(fig_beam, li6, 0).r_l, li6)
    diff = np.max(np.abs(coarse - fine)) / c_rl
    assert drift == diff
    # the rounding floor of levels ~1e5 C(r_l) deep
    assert drift <= 1e-8


def test_axial_convergence_error_on_absurd_grid(fig_beam, li6):
    with pytest.raises(ConvergenceError) as err:
        axial_dvr(fig_beam, li6, 0, 3, grid_points=10)
    assert "grid_points" in err.value.diagnostics


@pytest.mark.parametrize("j", [0, 3, -120])
def test_axial_wavefunctions_match_dvr_eigenvectors(fig_beam, li6, j):
    # the DVR's 63-point grid is the interior of a 65-point grid over the same
    # +/- 10 b_z box, which is where solve_axial samples its Hermite functions
    _, grid, vectors, _ = axial_dvr(fig_beam, li6, j, 5)
    states = solve_axial(fig_beam, li6, j, 5, grid_points=65)
    assert np.array_equal(states.grid[1:-1], grid)
    hermite, dvr = states.wavefunctions[1:-1], vectors()
    dvr = dvr * np.sign(np.sum(hermite * dvr, axis=0))
    b_z = ring_minima(fig_beam, li6, j).b_z
    assert np.max(np.abs(hermite - dvr)) * np.sqrt(b_z) <= 1e-6


@pytest.mark.parametrize("grid_points", [42, 2001])
def test_axial_recurrence_matches_the_hermite_series(fig_beam, li6, grid_points):
    # every listed n_z (<= 23) on the +/- 10 b_z box, in units of b_z^-1/2
    states = solve_axial(fig_beam, li6, 0, qrotor.spectrum._N_Z_MAX, grid_points=grid_points)
    geo = ring_minima(fig_beam, li6, 0)
    series = hermite_functions((states.grid - geo.z_j) / geo.b_z, qrotor.spectrum._N_Z_MAX)
    assert np.max(np.abs(states.wavefunctions * np.sqrt(geo.b_z) - series)) <= 1e-13


@pytest.mark.parametrize("m", [0, 5, 10])
def test_radial_convergence_error_on_coarse_basis(fig_beam, li6, m):
    # 24 points put the levels ~8e-2 C(r_l) off: a drift relative to the
    # level energy (~1e5 C(r_l) deep) read 3.5e-7 and let that through
    with pytest.raises(ConvergenceError) as err:
        solve_radial(fig_beam, li6, 0, m, 4, grid_points=24)
    assert err.value.diagnostics["drift_over_C"] > 1e-2


def test_radial_gap_close_to_harmonic(fig_beam, li6):
    states = solve_radial(fig_beam, li6, 0, 0, 1)
    gap = states.energies[1] - states.energies[0]
    assert gap / K_B == pytest.approx(0.4776e-6, rel=5e-2, abs=0)


def test_orbital_gap_is_rotational_constant(fig_beam, li6):
    m0 = solve_radial(fig_beam, li6, 0, 0, 0)
    m1 = solve_radial(fig_beam, li6, 0, 1, 0)
    gap = m1.energies[0] - m0.energies[0]
    c = rotational_constant(R_L, li6)
    assert gap == pytest.approx(c, rel=2e-2, abs=0)


@pytest.mark.parametrize("m", [2, 5, 10, 25, 50])
def test_rigid_rotor_tower(fig_beam, li6, m):
    m0 = solve_radial(fig_beam, li6, 0, 0, 0)
    mm = solve_radial(fig_beam, li6, 0, m, 0)
    gap = mm.energies[0] - m0.energies[0]
    c = rotational_constant(R_L, li6)
    assert gap == pytest.approx(m * m * c, rel=2e-2, abs=0)


def test_radial_solver_symmetric_in_m_sign(fig_beam, li6):
    plus = solve_radial(fig_beam, li6, 0, 3, 1)
    minus = solve_radial(fig_beam, li6, 0, -3, 1)
    assert np.allclose(plus.energies, minus.energies, rtol=1e-14)


def test_harmonic_radial_profile_oracle(fig_beam, li6, monkeypatch):
    # harmonic profile plus centrifugal: gaps n hbar w_r + m^2 C to first order
    omega_r = ring_minima(fig_beam, li6, 0).omega_r
    monkeypatch.setattr(qrotor.spectrum, "optical_potential", harmonic_ring_profile)
    base = solve_radial(fig_beam, li6, 0, 0, 2)
    for n in (1, 2):
        gap = base.energies[n] - base.energies[0]
        assert gap == pytest.approx(n * HBAR * omega_r, rel=1e-3, abs=0)
    # the m = 5 shift is 25 hbar^2 / (2 M r^2) to first order, whose mean over
    # the ground state is C(r_l) (1 + (3/2) (b_r / r_l)^2), 1e-3 above 25 C(r_l)
    psi0, r = base.wavefunctions[:, 0], base.grid
    first_order = 25 * np.trapezoid(psi0**2 * HBAR**2 / (2 * li6.mass * r**2) * base.measure, r)
    m5 = solve_radial(fig_beam, li6, 0, 5, 0)
    assert m5.energies[0] - base.energies[0] == pytest.approx(first_order, rel=1e-4, abs=0)


def test_eigenfunctions_orthonormal(fig_beam, li6):
    ax = solve_axial(fig_beam, li6, 0, 3)
    overlaps = np.trapezoid(
        ax.wavefunctions[:, :, None] * ax.wavefunctions[:, None, :]
        * ax.measure[:, None, None],
        ax.grid, axis=0,
    )
    assert np.allclose(overlaps, np.eye(4), atol=1e-8)

    rad = solve_radial(fig_beam, li6, 0, 1, 3)
    overlaps = np.trapezoid(
        rad.wavefunctions[:, :, None] * rad.wavefunctions[:, None, :]
        * rad.measure[:, None, None],
        rad.grid, axis=0,
    )
    assert np.allclose(overlaps, np.eye(4), atol=1e-8)


@pytest.mark.parametrize("j", [0, 3, -120])
def test_every_listed_wavefunction_has_unit_norm(fig_beam, li6, j):
    # every axial level a spectrum may list, and the radial levels of fig2's
    # trap at the benchmark's largest limits (m_ell 0..30, n_r_max 4): at most
    # 2.7e-10 from 1 (axial n_z 23) and 1.4e-14 (radial).  The +/- 7 b_z axial
    # box cut 2.8e-2 of the n_z 23 state and 2.2e-3 of n_z 20.
    ax = solve_axial(fig_beam, li6, j, qrotor.spectrum._N_Z_MAX)
    norms = np.trapezoid(ax.wavefunctions**2 * ax.measure[:, None], ax.grid, axis=0)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    rad = solve_radial(fig_beam, li6, j, range(31), 4)
    norms = np.trapezoid(rad.wavefunctions**2 * rad.measure[:, None], rad.grid, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


@pytest.fixture(scope="module")
def small_spectrum(fig_beam, li6):
    limits = SpectrumLimits(n_z_max=1, n_r_max=1, m_ell_max=3)
    return assemble_spectrum(fig_beam, li6, limits)


def test_spectrum_scale_hierarchy(small_spectrum):
    eps_z, eps_r, eps_ell = small_spectrum.gaps
    assert eps_z / K_B == pytest.approx(22.36e-6, rel=1e-3, abs=0)
    assert eps_r / K_B == pytest.approx(0.4776e-6, rel=5e-2, abs=0)
    assert eps_ell / K_B == pytest.approx(0.1613e-9, rel=2e-2, abs=0)
    assert small_spectrum.inequalities_ok


def test_spectrum_ground_level_first(small_spectrum):
    s = small_spectrum
    assert (s.n_z[0], s.n_r[0], s.m_ell[0]) == (0, 0, 0)
    assert s.energy[0] == 0.0
    assert all(e >= 0.0 for e in s.energy)
    energies = s.energy.tolist()
    assert energies == sorted(energies)


def test_spectrum_degeneracies(small_spectrum, li6):
    base = int(round(2 * li6.F_ground + 1))
    for m, degeneracy in zip(small_spectrum.m_ell, small_spectrum.degeneracy):
        expected = base if m == 0 else 2 * base
        assert degeneracy == expected


@pytest.mark.parametrize("bad", [{"n_z_max": -1}, {"n_r_max": -1}, {"m_ell_max": -1},
                                 {"ratio_threshold": 0.0}, {"n_r_max": 38},
                                 {"ratio_threshold": float("nan")}])
def test_spectrum_limits_reject_out_of_range(bad):
    fields = {"n_z_max": 1, "n_r_max": 1, "m_ell_max": 1, **bad}
    with pytest.raises(InvalidInputError, match=next(iter(bad))):
        SpectrumLimits(**fields)


def test_spectrum_rows_columns(small_spectrum):
    rows = spectrum_rows(small_spectrum)
    assert len(rows) == len(small_spectrum.energy)
    n_z, n_r, m, e_j, e_nk, deg = rows[0]
    assert (n_z, n_r, m, deg) == (0, 0, 0, 2)
    assert e_nk == pytest.approx(e_j / K_B * 1e9, rel=1e-12, abs=0)


def test_energies_do_not_depend_on_reading_wavefunctions(fig_beam, li6):
    plain = solve_radial(fig_beam, li6, 0, 2, 3)
    read = solve_radial(fig_beam, li6, 0, 2, 3)
    assert read.wavefunctions.shape == (len(read.grid), 4)
    assert np.array_equal(plain.energies, read.energies)


def test_spectrum_energies_are_the_solver_energies(fig_beam, li6, small_spectrum):
    axial = solve_axial(fig_beam, li6, 0, 1)
    radial = {m: solve_radial(fig_beam, li6, 0, m, 1) for m in range(4)}
    ground = axial.energies[0] + radial[0].energies[0]
    s = small_spectrum
    for n_z, n_r, m, energy in zip(s.n_z.tolist(), s.n_r.tolist(), s.m_ell.tolist(),
                                   s.energy.tolist()):
        assert energy == float(axial.energies[n_z] + radial[m].energies[n_r] - ground)


# fig2's limits, the largest spectrum of the benchmark, and limits below the
# two levels and m_ell = 1 that the solves are padded to
@pytest.mark.parametrize("limits", [(1, 2, 10), (3, 4, 30), (0, 0, 0), (23, 0, 0), (0, 4, 0)])
def test_spectrum_rows_match_the_per_level_table(fig_beam, li6, limits):
    limits = SpectrumLimits(*limits)
    rows = spectrum_rows(assemble_spectrum(fig_beam, li6, limits))
    expected = level_rows(fig_beam, li6, limits)
    assert rows == expected
    assert {tuple(map(type, row)) for row in rows} == {(int, int, int, float, float, int)}


def test_spectrum_eigensolves_one_reference_per_basis_and_stretch(fig_beam, li6, monkeypatch):
    calls = []
    linalg = qrotor.spectrum.np.linalg
    for name in ("eigvalsh", "eigh"):
        def recording(a, *args, _name=name, _original=getattr(linalg, name), **kwargs):
            calls.append((_name, a.shape))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(linalg, name, recording)
    solve_axial(fig_beam, li6, 0, 3)
    assert calls == []   # the axial levels are closed-form
    block = qrotor.spectrum._M_BLOCK
    assemble_spectrum(fig_beam, li6, SpectrumLimits(n_z_max=1, n_r_max=1, m_ell_max=block + 3))
    # m_ell 0..block-1 and block..block+3 are two stretches.  Per stretch and
    # basis (n and 3n/2 points): one n x n reference eigh, then one stack of
    # K x K Ritz problems, K = 2 levels + the spare pairs; no n x n solve per m_ell
    size = 2 + qrotor.spectrum._RITZ_SPARE
    assert calls == [
        ("eigh", (42, 42)), ("eigh", (block, size, size)),
        ("eigh", (63, 63)), ("eigh", (block, size, size)),
        ("eigh", (42, 42)), ("eigh", (4, size, size)),
        ("eigh", (63, 63)), ("eigh", (4, size, size)),
    ]


def _ritz_matches_the_full_eigensolve(beam, li6, j, ms, n_r_max, grid_points):
    states = solve_radial(beam, li6, j, ms, n_r_max, grid_points=grid_points)
    energies, grid, vectors, drift = radial_dvr(beam, li6, j, ms, n_r_max, grid_points)
    c_rl = rotational_constant(ring_minima(beam, li6, j).r_l, li6)
    assert np.max(np.abs(states.energies - energies)) <= 1e-9 * c_rl
    assert abs(states.drift - drift) <= 2e-9
    assert 0.0 < states.ritz_bound <= qrotor.spectrum._RITZ_LIMIT
    # the Ritz vectors are the eigenvectors, up to sign
    assert np.array_equal(states.grid, grid)
    psi = vectors() / np.sqrt(grid)[:, None]
    psi *= np.sign(np.sum(psi * states.wavefunctions, axis=1))[:, None, :]
    assert np.max(np.abs(psi - states.wavefunctions)) <= 1e-6 * np.max(np.abs(psi))


@pytest.mark.parametrize("grid_points", [42, 63])
@pytest.mark.parametrize("collimated", [False, True])
@pytest.mark.parametrize("j", [0, 150, -150])
def test_ritz_levels_match_the_full_eigensolve(fig_beam, li6, j, collimated, grid_points):
    # every level of m_ell 0..30 within 1e-9 C(r_l) of eigvalsh on each
    # Hamiltonian, in a 42- and a 63-point basis
    beam = replace(fig_beam, collimated=collimated)
    _ritz_matches_the_full_eigensolve(beam, li6, j, range(31), 4, grid_points)


@pytest.mark.parametrize("grid_points", [42, 63])
def test_ritz_grows_its_subspace_near_the_box_edge(fig_beam, li6, grid_points, monkeypatch):
    # just inside the box edge (m_ell 451 is fig2's first unconverged level)
    # the first K = k + spare Ritz pairs leave bounds above the limit, so
    # those m_ell are solved again on more pairs, and still match eigvalsh
    ritz_sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        if a.ndim == 3:   # a stack of Ritz problems, not a reference
            ritz_sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(qrotor.spectrum.np.linalg, "eigh", recording)
    solve_radial(fig_beam, li6, 0, range(432, 451), 2, grid_points=grid_points)
    assert min(ritz_sizes) == 3 + qrotor.spectrum._RITZ_SPARE < max(ritz_sizes)
    monkeypatch.undo()
    _ritz_matches_the_full_eigensolve(fig_beam, li6, 0, range(432, 451), 2, grid_points)


def test_array_m_ell_matches_scalar_solves_bit_for_bit(fig_beam, li6):
    # two full stacks and a partial third
    ms = range(2 * qrotor.spectrum._M_BLOCK + 4)
    batch = solve_radial(fig_beam, li6, 3, ms, 2)
    single = [solve_radial(fig_beam, li6, 3, m, 2) for m in ms]
    assert batch.energies.shape == (len(ms), 3)
    assert np.array_equal(batch.energies, np.array([s.energies for s in single]))
    assert batch.drift == max(s.drift for s in single)
    assert all(np.array_equal(batch.grid, s.grid) for s in single)

    psi = batch.wavefunctions
    assert psi.shape == (len(ms), len(batch.grid), 3)
    overlaps = np.trapezoid(
        psi[:, :, :, None] * psi[:, :, None, :] * batch.measure[:, None, None],
        batch.grid, axis=1,
    )
    assert np.allclose(overlaps, np.eye(3), atol=1e-8)
    assert np.array_equal(psi[5], single[5].wavefunctions)


def test_unconverged_radial_solve_names_the_first_failing_m_ell(fig_beam, li6):
    # the levels of m_ell beyond ~450 outgrow the fig2 box: the solve stops at
    # the first unconverged stack and names its first failing m_ell
    with pytest.raises(ConvergenceError) as err:
        solve_radial(fig_beam, li6, 0, range(10**6), 1)
    m = err.value.diagnostics["m_ell"]
    drift = err.value.diagnostics["drift_over_C"]
    assert drift > 1e-3
    assert f"m_ell = {m}: drift_over_C {drift:.3e} exceeds the limit 1e-03" in str(err.value)
    assert solve_radial(fig_beam, li6, 0, range(m), 1).drift <= 1e-3
    with pytest.raises(ConvergenceError):
        solve_radial(fig_beam, li6, 0, m, 1)


def test_empty_m_ell_is_refused(fig_beam, li6):
    with pytest.raises(InvalidInputError, match="m_ell"):
        solve_radial(fig_beam, li6, 0, [], 1)


@pytest.mark.parametrize("m_ell", [np.array(3), np.array([[0, 1], [2, 3]]), [1.5]],
                         ids=["0-d-array", "2-d-array", "non-integer"])
def test_m_ell_that_is_not_an_int_or_a_1d_sequence_of_ints_is_refused(fig_beam, li6, m_ell):
    with pytest.raises(InvalidInputError, match="m_ell"):
        solve_radial(fig_beam, li6, 0, m_ell, 1)
