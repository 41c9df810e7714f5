import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qrotor.exceptions import InvalidInputError
from qrotor.optics import (
    BeamConfig,
    lg_mode_amplitude,
    optical_potential,
    ring_minima,
    trap_depth_from_power,
)
from qrotor.units import HBAR, K_B


def test_mode_vanishes_on_axis_for_nonzero_oam(fig_beam):
    assert lg_mode_amplitude(fig_beam, 0.0, 0.3, 1e-6) == 0.0


def test_mode_magnitude_independent_of_phi(fig_beam):
    r, z = 12e-6, 3e-6
    phis = np.linspace(0, 2 * np.pi, 17)
    mags = np.abs(lg_mode_amplitude(fig_beam, r, phis, z))
    assert np.allclose(mags, mags[0], rtol=1e-13)


def test_mode_peak_radius_at_waist(fig_beam):
    # dense scan plus local refinement
    r = np.linspace(1e-7, 4e-5, 20001)
    mag = np.abs(lg_mode_amplitude(fig_beam, r, 0.0, 0.0))
    i = int(np.argmax(mag))
    res = minimize_scalar(
        lambda rr: -abs(lg_mode_amplitude(fig_beam, rr, 0.0, 0.0)),
        bounds=(r[i - 2], r[i + 2]),
        method="bounded",
        options={"xatol": 1e-13},
    )
    assert abs(res.x - 15.81e-6) < 0.01e-6


def test_potential_value_on_ring(fig_beam, li6):
    for j in (0, 200):
        z_j = fig_beam.ring_z(j)
        r_l = fig_beam.ring_radius(z_j)
        expected = -fig_beam.trap_depth_V0 * (fig_beam.waist_w0 / fig_beam.width(z_j)) ** 2
        assert optical_potential(fig_beam, r_l, z_j) == pytest.approx(expected, rel=1e-12)


def test_potential_vanishes_at_standing_wave_node(fig_beam):
    z_node = fig_beam.phase_z0 + np.pi / (2 * fig_beam.wavenumber)
    v = optical_potential(fig_beam, fig_beam.ring_radius(z_node), z_node)
    assert abs(v) < 1e-25 * fig_beam.trap_depth_V0


def test_potential_vanishes_on_axis(fig_beam):
    assert optical_potential(fig_beam, 0.0, fig_beam.ring_z(0)) == 0.0


def test_potential_periodicity_when_collimated(fig_beam):
    from dataclasses import replace

    beam = replace(fig_beam, collimated=True)
    rs = np.linspace(5e-6, 25e-6, 7)
    zs = np.linspace(0.0, 2e-6, 5)
    period = np.pi / beam.wavenumber
    v1 = optical_potential(beam, rs[:, None], zs[None, :])
    v2 = optical_potential(beam, rs[:, None], zs[None, :] + period)
    assert np.allclose(v1, v2, rtol=1e-12, atol=1e-40)


def test_ring_minima_reference_values(fig_beam, li6):
    geo = ring_minima(fig_beam, li6, [0])[0]
    assert geo.r_l == pytest.approx(15.811e-6, abs=1e-9)
    assert geo.omega_z * HBAR / K_B == pytest.approx(22.36e-6, rel=1e-3)
    assert geo.b_z > 0
    assert geo.depth_at_ring < 0
    assert geo.z_j == pytest.approx(fig_beam.phase_z0, rel=1e-15)


def test_ring_minima_are_stationary_points(fig_beam, li6):
    for j in (0, 3):
        geo = ring_minima(fig_beam, li6, [j])[0]
        hr = 1e-9
        hz = 1e-10
        dvdr = (
            optical_potential(fig_beam, geo.r_l + hr, geo.z_j)
            - optical_potential(fig_beam, geo.r_l - hr, geo.z_j)
        ) / (2 * hr)
        dvdz = (
            optical_potential(fig_beam, geo.r_l, geo.z_j + hz)
            - optical_potential(fig_beam, geo.r_l, geo.z_j - hz)
        ) / (2 * hz)
        # scale against the curvature force over one step
        force_scale = fig_beam.trap_depth_V0 / geo.r_l
        assert abs(dvdr) < 1e-5 * force_scale
        assert abs(dvdz) < 1e-3 * force_scale  # axial curvature is much stiffer


def test_harmonic_decomposition_values(fig_beam, li6):
    # each axis: omega = sqrt(kappa / M), b = sqrt(hbar / (M omega)), and the
    # depth is the potential on the ring
    for j in (0, 200):
        geo = ring_minima(fig_beam, li6, [j])[0]
        assert geo.depth_at_ring == pytest.approx(
            optical_potential(fig_beam, geo.r_l, geo.z_j), rel=1e-12)
        for kappa, omega, b in ((geo.kappa_z, geo.omega_z, geo.b_z),
                                (geo.kappa_r, geo.omega_r, geo.b_r)):
            assert omega == pytest.approx(np.sqrt(kappa / li6.mass), rel=1e-15)
            assert b == pytest.approx(np.sqrt(HBAR / (li6.mass * omega)), rel=1e-15)
        # the axial curvature is the full potential's, along z at r_l
        h = 1e-10
        v = [optical_potential(fig_beam, geo.r_l, geo.z_j + d) for d in (-h, 0.0, h)]
        assert geo.kappa_z == pytest.approx((v[0] - 2 * v[1] + v[2]) / h**2, rel=1e-5)


def test_radial_curvature_matches_finite_differences(fig_beam, li6):
    geo = ring_minima(fig_beam, li6, [0])[0]
    h = 1e-9
    v = [optical_potential(fig_beam, geo.r_l + d, geo.z_j) for d in (-h, 0.0, h)]
    assert geo.kappa_r == pytest.approx((v[0] - 2 * v[1] + v[2]) / h**2, rel=1e-6)


def test_axial_harmonic_frequency_identity(fig_beam, li6, e0_recoil):
    # closed forms from the recoil energy E0: omega_z = (2 / ww) sqrt(E0 V0) / hbar
    # and b_z = sqrt(ww) / k (E0 / V0)^(1/4), ww = w(z_j) / w0
    v0, k = fig_beam.trap_depth_V0, fig_beam.wavenumber
    for j in (0, 200):
        geo = ring_minima(fig_beam, li6, [j])[0]
        ww = fig_beam.width(geo.z_j) / fig_beam.waist_w0
        assert geo.omega_z == pytest.approx(2 / ww * np.sqrt(e0_recoil * v0) / HBAR, rel=1e-12)
        assert geo.b_z == pytest.approx(np.sqrt(ww) / k * (e0_recoil / v0) ** 0.25, rel=1e-12)


def test_radial_frequency_independent_of_oam(fig_beam, li6):
    # at the waist omega_r = sqrt(8 V0 / (M w0^2)) for any l
    from dataclasses import replace

    waist = replace(fig_beam, collimated=True)
    expected = np.sqrt(8 * waist.trap_depth_V0 / (li6.mass * waist.waist_w0**2))
    for l in (1, 2, 5, 10, 25, 50, -5):
        geo = ring_minima(replace(waist, oam_l=l), li6, [0])[0]
        assert geo.omega_r == pytest.approx(expected, rel=1e-12)


def test_beam_config_validation():
    with pytest.raises(InvalidInputError):
        BeamConfig(wavelength=671e-9, waist_w0=10e-6, power_P0=1.0, oam_l=5,
                   phase_z0=671e-9, trap_depth_V0=1e-28)
    with pytest.raises(InvalidInputError):
        BeamConfig(wavelength=671e-9, waist_w0=-1e-6, power_P0=1.0, oam_l=5,
                   phase_z0=1e-7, trap_depth_V0=1e-28)
    with pytest.raises(InvalidInputError, match="oam_l"):  # an l = 0 beam has no ring
        BeamConfig(wavelength=671e-9, waist_w0=10e-6, power_P0=1.0, oam_l=0,
                   phase_z0=1e-7, trap_depth_V0=1e-28)


def test_potential_bounded_by_ring_depth(fig_beam):
    rng = np.random.default_rng(3)
    r = rng.uniform(0.0, 4e-5, 400)
    z = rng.uniform(-5e-4, 5e-4, 400)
    v = optical_potential(fig_beam, r, z)
    bound = fig_beam.trap_depth_V0 / (fig_beam.width(z) / fig_beam.waist_w0) ** 2
    assert np.all(v <= 0.0)
    assert np.all(v >= -bound * (1 + 1e-12))


def test_trap_depth_from_power_scales_linearly(fig_beam):
    v1 = trap_depth_from_power(1e-39, fig_beam)
    from dataclasses import replace

    v2 = trap_depth_from_power(1e-39, replace(fig_beam, power_P0=2.0))
    assert v2 == pytest.approx(2 * v1, rel=1e-12)
    assert v1 > 0
