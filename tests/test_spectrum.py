import numpy as np
import pytest

import qrotor.spectrum
from qrotor.exceptions import ConvergenceError, InvalidInputError
from qrotor.optics import ring_minima
from qrotor.spectrum import (
    EnergyLevel,
    QuantumNumbers,
    SpectrumLimits,
    assemble_spectrum,
    rotational_constant,
    rotating_frame_energy,
    solve_axial,
    solve_radial,
    spectrum_rows,
)
from qrotor.units import HBAR, K_B


R_L = 15.811388300841896e-6  # w0 sqrt(l/2) for w0 = 10 um, l = 5


def test_rotational_constant_reference(li6):
    c = rotational_constant(R_L, li6)
    assert c / K_B == pytest.approx(0.1613e-9, rel=5e-3)
    assert c / HBAR == pytest.approx(21.13, rel=5e-3)


def test_rotational_constant_scaling(li6):
    c = rotational_constant(R_L, li6)
    assert rotational_constant(2 * R_L, li6) == pytest.approx(c / 4, rel=1e-12)
    with pytest.raises(InvalidInputError):
        rotational_constant(0.0, li6)


def test_axial_levels_match_harmonic_oracle(fig_beam, li6):
    geo = ring_minima(fig_beam, li6, [0])[0]
    states = solve_axial(fig_beam, li6, 0, 3)
    exact = HBAR * geo.omega_z * (np.arange(4) + 0.5)
    assert np.allclose(states.energies, exact, rtol=1e-6)
    # reference gap value
    gap = states.energies[1] - states.energies[0]
    assert gap / K_B == pytest.approx(22.36e-6, rel=1e-3)


@pytest.mark.parametrize("j", [0, 3, -120])
def test_axial_dvr_matches_harmonic_oracle_to_1e10(fig_beam, li6, j):
    # the axial well is exactly harmonic, so the DVR levels are hbar w_z (n + 1/2)
    geo = ring_minima(fig_beam, li6, [j])[0]
    states = solve_axial(fig_beam, li6, j, 5)
    exact = HBAR * geo.omega_z * (np.arange(6) + 0.5)
    assert np.max(np.abs(states.energies / exact - 1.0)) <= 1e-10


def test_axial_energies_converge_with_basis_size(fig_beam, li6):
    # the drift of an n-point solve is its difference from the 3n/2-point
    # solve, in units of the ring's rotor constant C(r_l)
    coarse = solve_axial(fig_beam, li6, 0, 3, grid_points=42)
    fine = solve_axial(fig_beam, li6, 0, 3, grid_points=63)
    assert np.max(np.abs(coarse.energies / fine.energies - 1.0)) <= 1e-10
    c_rl = rotational_constant(ring_minima(fig_beam, li6, [0])[0].r_l, li6)
    diff = np.max(np.abs(coarse.energies - fine.energies)) / c_rl
    assert coarse.drift == diff
    # the rounding floor of levels ~1e5 C(r_l) deep
    assert coarse.drift <= 1e-8


def test_axial_convergence_error_on_absurd_grid(fig_beam, li6):
    with pytest.raises(ConvergenceError) as err:
        solve_axial(fig_beam, li6, 0, 3, grid_points=10)
    assert "grid_points" in err.value.diagnostics


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
    assert gap / K_B == pytest.approx(0.4776e-6, rel=5e-2)


def test_orbital_gap_is_rotational_constant(fig_beam, li6):
    m0 = solve_radial(fig_beam, li6, 0, 0, 0)
    m1 = solve_radial(fig_beam, li6, 0, 1, 0)
    gap = m1.energies[0] - m0.energies[0]
    c = rotational_constant(R_L, li6)
    assert gap == pytest.approx(c, rel=2e-2)


@pytest.mark.parametrize("m", [2, 5, 10, 25, 50])
def test_rigid_rotor_tower(fig_beam, li6, m):
    m0 = solve_radial(fig_beam, li6, 0, 0, 0)
    mm = solve_radial(fig_beam, li6, 0, m, 0)
    gap = mm.energies[0] - m0.energies[0]
    c = rotational_constant(R_L, li6)
    assert gap == pytest.approx(m * m * c, rel=2e-2)


def test_radial_solver_symmetric_in_m_sign(fig_beam, li6):
    plus = solve_radial(fig_beam, li6, 0, 3, 1)
    minus = solve_radial(fig_beam, li6, 0, -3, 1)
    assert np.allclose(plus.energies, minus.energies, rtol=1e-14)


def test_harmonic_radial_profile_oracle(fig_beam, li6):
    # harmonic profile plus centrifugal: gaps n hbar w_r + m^2 C to first order
    omega_r = ring_minima(fig_beam, li6, [0])[0].omega_r
    c = rotational_constant(R_L, li6)
    base = solve_radial(fig_beam, li6, 0, 0, 2, radial_profile="harmonic")
    for n in (1, 2):
        gap = base.energies[n] - base.energies[0]
        assert gap == pytest.approx(n * HBAR * omega_r, rel=1e-3)
    m5 = solve_radial(fig_beam, li6, 0, 5, 0, radial_profile="harmonic")
    assert m5.energies[0] - base.energies[0] == pytest.approx(25 * c, rel=1e-3)


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


@pytest.fixture(scope="module")
def small_spectrum(fig_beam, li6):
    limits = SpectrumLimits(n_z_max=1, n_r_max=1, m_ell_max=3)
    return assemble_spectrum(fig_beam, li6, limits)


def test_spectrum_scale_hierarchy(small_spectrum):
    eps_z, eps_r, eps_ell = small_spectrum.gaps
    assert eps_z / K_B == pytest.approx(22.36e-6, rel=1e-3)
    assert eps_r / K_B == pytest.approx(0.4776e-6, rel=5e-2)
    assert eps_ell / K_B == pytest.approx(0.1613e-9, rel=2e-2)
    assert small_spectrum.inequalities_ok


def test_spectrum_ground_level_first(small_spectrum):
    ground = small_spectrum.levels[0]
    assert (ground.qn.n_z, ground.qn.n_r, ground.qn.m_ell) == (0, 0, 0)
    assert ground.energy == 0.0
    assert all(lv.energy >= 0.0 for lv in small_spectrum.levels)
    energies = [lv.energy for lv in small_spectrum.levels]
    assert energies == sorted(energies)


def test_spectrum_degeneracies(small_spectrum, li6):
    base = int(round(2 * li6.F_ground + 1))
    for lv in small_spectrum.levels:
        expected = base if lv.qn.m_ell == 0 else 2 * base
        assert lv.degeneracy == expected


@pytest.mark.parametrize("bad", [{"n_z_max": -1}, {"n_r_max": -1}, {"m_ell_max": -1},
                                 {"ratio_threshold": 0.0}])
def test_spectrum_limits_reject_out_of_range(bad):
    fields = {"n_z_max": 1, "n_r_max": 1, "m_ell_max": 1, **bad}
    with pytest.raises(InvalidInputError, match=next(iter(bad))):
        SpectrumLimits(**fields)


def test_rotating_frame_energy_shifts():
    lvl0 = EnergyLevel(QuantumNumbers(0, 0, 0), energy=1e-30, degeneracy=2)
    assert rotating_frame_energy(lvl0, 123.0) == lvl0.energy
    lvl_p = EnergyLevel(QuantumNumbers(0, 0, 4), energy=1e-30, degeneracy=4)
    lvl_m = EnergyLevel(QuantumNumbers(0, 0, -4), energy=1e-30, degeneracy=4)
    assert rotating_frame_energy(lvl_p, 0.0) == lvl_p.energy
    omega = 0.37
    diff = rotating_frame_energy(lvl_m, omega) - rotating_frame_energy(lvl_p, omega)
    assert diff == pytest.approx(-2 * HBAR * omega * 4, rel=1e-12)


def test_spectrum_rows_columns(small_spectrum):
    rows = spectrum_rows(small_spectrum)
    assert len(rows) == len(small_spectrum.levels)
    n_z, n_r, m, e_j, e_nk, deg = rows[0]
    assert (n_z, n_r, m, deg) == (0, 0, 0, 2)
    assert e_nk == pytest.approx(e_j / K_B * 1e9, rel=1e-12)


def test_energies_do_not_depend_on_reading_wavefunctions(fig_beam, li6):
    plain = solve_radial(fig_beam, li6, 0, 2, 3)
    read = solve_radial(fig_beam, li6, 0, 2, 3)
    assert read.wavefunctions.shape == (len(read.grid), 4)
    assert np.array_equal(plain.energies, read.energies)
    assert read.wavefunctions is read.wavefunctions   # computed once


def test_spectrum_energies_are_the_solver_energies(fig_beam, li6, small_spectrum):
    axial = solve_axial(fig_beam, li6, 0, 1)
    radial = {m: solve_radial(fig_beam, li6, 0, m, 1) for m in range(4)}
    ground = axial.energies[0] + radial[0].energies[0]
    for lv in small_spectrum.levels:
        q = lv.qn
        assert lv.energy == float(axial.energies[q.n_z] + radial[q.m_ell].energies[q.n_r] - ground)


def test_spectrum_never_requests_eigenvectors(fig_beam, li6, monkeypatch):
    calls = []
    linalg = qrotor.spectrum.np.linalg
    for name in ("eigvalsh", "eigh"):
        def recording(*args, _name=name, _original=getattr(linalg, name), **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(linalg, name, recording)
    assemble_spectrum(fig_beam, li6, SpectrumLimits(n_z_max=1, n_r_max=1, m_ell_max=3))
    assert calls and set(calls) == {"eigvalsh"}
