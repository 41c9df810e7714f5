import numpy as np
import pytest

from qrotor.exceptions import InvalidInputError
from qrotor.optics import BeamConfig, optical_potential, ring_minima
from qrotor.units import HBAR, K_B


def test_potential_value_on_ring(fig_beam, li6):
    for j in (0, 200):
        z_j = fig_beam.ring_z(j)
        r_l = fig_beam.ring_radius(z_j)
        expected = -fig_beam.trap_depth_V0 * (fig_beam.waist_w0 / fig_beam.width(z_j)) ** 2
        assert optical_potential(fig_beam, r_l, z_j) == pytest.approx(expected, rel=1e-12, abs=0)


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
    geo = ring_minima(fig_beam, li6, 0)
    assert geo.r_l == pytest.approx(15.811e-6, abs=1e-9)
    assert geo.omega_z * HBAR / K_B == pytest.approx(22.36e-6, rel=1e-3, abs=0)
    assert geo.b_z > 0
    assert geo.depth_at_ring < 0
    assert geo.z_j == pytest.approx(fig_beam.phase_z0, rel=1e-15, abs=0)


def test_ring_minima_are_stationary_points(fig_beam, li6):
    for j in (0, 3):
        geo = ring_minima(fig_beam, li6, j)
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
        geo = ring_minima(fig_beam, li6, j)
        assert geo.depth_at_ring == pytest.approx(
            optical_potential(fig_beam, geo.r_l, geo.z_j), rel=1e-12, abs=0)
        for kappa, omega, b in ((geo.kappa_z, geo.omega_z, geo.b_z),
                                (geo.kappa_r, geo.omega_r, geo.b_r)):
            assert omega == pytest.approx(np.sqrt(kappa / li6.mass), rel=1e-15, abs=0)
            assert b == pytest.approx(np.sqrt(HBAR / (li6.mass * omega)), rel=1e-15, abs=0)
        # the axial curvature is the full potential's, along z at r_l
        h = 1e-10
        v = [optical_potential(fig_beam, geo.r_l, geo.z_j + d) for d in (-h, 0.0, h)]
        assert geo.kappa_z == pytest.approx((v[0] - 2 * v[1] + v[2]) / h**2, rel=1e-5, abs=0)


def test_radial_curvature_matches_finite_differences(fig_beam, li6):
    geo = ring_minima(fig_beam, li6, 0)
    h = 1e-9
    v = [optical_potential(fig_beam, geo.r_l + d, geo.z_j) for d in (-h, 0.0, h)]
    assert geo.kappa_r == pytest.approx((v[0] - 2 * v[1] + v[2]) / h**2, rel=1e-6, abs=0)


def test_axial_harmonic_frequency_identity(fig_beam, li6, e0_recoil):
    # closed forms from the recoil energy E0: omega_z = (2 / ww) sqrt(E0 V0) / hbar
    # and b_z = sqrt(ww) / k (E0 / V0)^(1/4), ww = w(z_j) / w0
    v0, k = fig_beam.trap_depth_V0, fig_beam.wavenumber
    for j in (0, 200):
        geo = ring_minima(fig_beam, li6, j)
        ww = fig_beam.width(geo.z_j) / fig_beam.waist_w0
        assert geo.omega_z == pytest.approx(2 / ww * np.sqrt(e0_recoil * v0) / HBAR,
                                            rel=1e-12, abs=0)
        assert geo.b_z == pytest.approx(np.sqrt(ww) / k * (e0_recoil / v0) ** 0.25,
                                        rel=1e-12, abs=0)


def test_radial_frequency_independent_of_oam(fig_beam, li6):
    # at the waist omega_r = sqrt(8 V0 / (M w0^2)) for any l
    from dataclasses import replace

    waist = replace(fig_beam, collimated=True)
    expected = np.sqrt(8 * waist.trap_depth_V0 / (li6.mass * waist.waist_w0**2))
    for l in (1, 2, 5, 10, 25, 50, -5):
        geo = ring_minima(replace(waist, oam_l=l), li6, 0)
        assert geo.omega_r == pytest.approx(expected, rel=1e-12, abs=0)


def test_beam_config_validation():
    with pytest.raises(InvalidInputError):
        BeamConfig(wavelength=671e-9, waist_w0=10e-6, oam_l=5,
                   phase_z0=671e-9, trap_depth_V0=1e-28)
    with pytest.raises(InvalidInputError):
        BeamConfig(wavelength=671e-9, waist_w0=-1e-6, oam_l=5,
                   phase_z0=1e-7, trap_depth_V0=1e-28)
    with pytest.raises(InvalidInputError, match="oam_l"):  # an l = 0 beam has no ring
        BeamConfig(wavelength=671e-9, waist_w0=10e-6, oam_l=0,
                   phase_z0=1e-7, trap_depth_V0=1e-28)


def test_potential_bounded_by_ring_depth(fig_beam):
    rng = np.random.default_rng(3)
    r = rng.uniform(0.0, 4e-5, 400)
    z = rng.uniform(-5e-4, 5e-4, 400)
    v = optical_potential(fig_beam, r, z)
    bound = fig_beam.trap_depth_V0 / (fig_beam.width(z) / fig_beam.waist_w0) ** 2
    assert np.all(v <= 0.0)
    assert np.all(v >= -bound * (1 + 1e-12))

