import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qrotor.exceptions import InvalidInputError, UnsupportedModeError
from qrotor.optics import (
    BeamConfig,
    harmonic_decomposition,
    lg_mode_amplitude,
    optical_potential,
    radial_curvature,
    radial_trap_frequency,
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


def test_mode_amplitude_rejects_higher_radial_modes(fig_beam):
    from dataclasses import replace

    with pytest.raises(UnsupportedModeError, match="radial_p"):
        lg_mode_amplitude(replace(fig_beam, radial_p=1), 1e-5, 0.0, 0.0)


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


def test_potential_rejects_radial_modes(fig_beam):
    from dataclasses import replace

    with pytest.raises(UnsupportedModeError):
        optical_potential(replace(fig_beam, radial_p=1), 1e-5, 1e-6)


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


def test_harmonic_decomposition_values(fig_beam):
    v_l, w_j = harmonic_decomposition(fig_beam, 0)
    z_j = fig_beam.ring_z(0)
    r_l = fig_beam.ring_radius(z_j)
    ww2 = (fig_beam.width(z_j) / fig_beam.waist_w0) ** 2
    assert v_l(r_l) == pytest.approx(-fig_beam.trap_depth_V0 / ww2, rel=1e-12)
    assert w_j(z_j) == 0.0
    dz = 3e-8
    assert w_j(z_j + dz) == pytest.approx(w_j(z_j - dz), rel=1e-12)


def test_radial_curvature_matches_finite_differences(fig_beam):
    v_l, _ = harmonic_decomposition(fig_beam, 0)
    r_l = float(fig_beam.ring_radius(fig_beam.ring_z(0)))
    h = 1e-9
    fd = (v_l(r_l + h) - 2 * v_l(r_l) + v_l(r_l - h)) / h**2
    assert radial_curvature(fig_beam, 0) == pytest.approx(fd, rel=1e-6)


def test_axial_harmonic_frequency_identity(fig_beam, li6):
    # sqrt(W''/M) of the decomposed well equals the ring's omega_z exactly
    geo = ring_minima(fig_beam, li6, [0])[0]
    z_j = geo.z_j
    ww2 = (fig_beam.width(z_j) / fig_beam.waist_w0) ** 2
    curvature = 2.0 * fig_beam.trap_depth_V0 * fig_beam.wavenumber**2 / ww2
    assert np.sqrt(curvature / li6.mass) == pytest.approx(geo.omega_z, rel=1e-12)


def test_radial_frequency_independent_of_oam(fig_beam, li6):
    from dataclasses import replace

    ref = radial_trap_frequency(fig_beam, li6, 0)
    for l in (1, 2, 10, 25, 50):
        beam = replace(fig_beam, oam_l=l)
        assert radial_trap_frequency(beam, li6, 0) == pytest.approx(ref, rel=1e-12)


def test_beam_config_validation():
    with pytest.raises(InvalidInputError):
        BeamConfig(wavelength=671e-9, waist_w0=10e-6, power_P0=1.0, oam_l=5,
                   phase_z0=671e-9, trap_depth_V0=1e-28)
    with pytest.raises(InvalidInputError):
        BeamConfig(wavelength=671e-9, waist_w0=-1e-6, power_P0=1.0, oam_l=5,
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
