import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrotor.exceptions import InvalidInputError
from qrotor.sensor import (
    SensorConfig,
    budget_frequency,
    budget_rabi_fluctuation,
    budget_shot_noise,
    rotation_scan_rows,
    sensor_budget,
    tilt_compensation,
    transition_frequency,
)

OMEGA_0 = 21.13


def reference_sensor(**over):
    base = dict(
        kick_oam_L=25,
        ring_count_N=161,
        omega_0=OMEGA_0,
        Omega_R=3.142,
        freq_uncertainty_pump=2.86e-9,
        freq_uncertainty_stokes=2.86e-9,
        photon_count_pump=1e29,
        photon_count_stokes=1e29,
        Delta_hf=1.26e8,
    )
    base.update(over)
    return SensorConfig(**base)


# --- transition frequencies -------------------------------------------------

def test_ground_band_transition():
    assert transition_frequency(0, +1, 25, OMEGA_0, 0.0) == pytest.approx(
        4 * 25**2 * OMEGA_0, rel=1e-14, abs=0
    )
    assert 4 * 25**2 * OMEGA_0 == pytest.approx(5.2825e4, rel=1e-4, abs=0)


@given(
    m=st.integers(min_value=-6, max_value=6),
    zeta=st.sampled_from([-1, 1]),
    L=st.integers(min_value=1, max_value=60),
    omega0=st.floats(min_value=0.1, max_value=100.0),
    Omega=st.floats(min_value=-50.0, max_value=50.0),
)
def test_closed_form_identity(m, zeta, L, omega0, Omega):
    lhs = transition_frequency(m, zeta, L, omega0, Omega)
    rhs = 4 * L * (L + m) * omega0 + 2 * zeta * L * Omega
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_mirror_degeneracy_at_rest():
    # the mirror of the line starting at +m is the zeta = -1 line with the
    # same m label: its start state is -m and its end state -(m + 2L)
    for m in (0, 1, -1):
        a = transition_frequency(m, +1, 25, OMEGA_0, 0.0)
        b = transition_frequency(m, -1, 25, OMEGA_0, 0.0)
        assert a == pytest.approx(b, rel=1e-14, abs=0)


def test_transition_frequency_validation():
    with pytest.raises(InvalidInputError):
        transition_frequency(0, +1, 0, OMEGA_0, 0.0)
    with pytest.raises(InvalidInputError):
        transition_frequency(0, 2, 25, OMEGA_0, 0.0)


# --- splittings and periodicity ----------------------------------------------

def splitting(m, L, omega):
    """Mirror-line splitting w(m, +1) - w(m, -1)."""
    return (transition_frequency(m, +1, L, OMEGA_0, omega)
            - transition_frequency(m, -1, L, OMEGA_0, omega))


def periodic(m, m_w, L, omega):
    """w(m + m_W, +1) at Omega - 2 m_W w0 equals w(m, +1) at Omega, to 1e-12."""
    lhs = transition_frequency(m + m_w, +1, L, OMEGA_0, omega - 2 * m_w * OMEGA_0)
    rhs = transition_frequency(m, +1, L, OMEGA_0, omega)
    return abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), OMEGA_0)


def test_splitting_is_4_l_omega():
    # "exact" up to the cancellation floor of the ~5e4 rad/s line frequencies
    # the splitting is computed from
    for omega in (0.0, 1e-6, -3.7e-4, 0.21):
        for m in range(-3, 4):
            scale = abs(transition_frequency(m, +1, 25, OMEGA_0, omega))
            assert splitting(m, 25, omega) == pytest.approx(
                4 * 25 * omega, abs=1e-11 * scale
            )


def test_splitting_sign_distinguishes_rotation_sense():
    assert splitting(1, 25, +1e-5) > 0
    assert splitting(1, 25, -1e-5) < 0


def test_periodicity_relation():
    rng = np.random.default_rng(7)
    for m in range(-5, 6):
        for m_w in range(-5, 6):
            omega = float(rng.uniform(-5 * OMEGA_0, 5 * OMEGA_0))
            assert periodic(m, m_w, 25, omega)
    assert periodic(2, 0, 25, 0.33)


def test_periodicity_negative_control():
    # perturbing the compensating rotation by 1% breaks the exact relation
    m, m_w, L, omega = 2, 3, 25, 0.4
    lhs = transition_frequency(m + m_w, +1, L, OMEGA_0, omega - 2 * m_w * OMEGA_0 * 1.01)
    rhs = transition_frequency(m, +1, L, OMEGA_0, omega)
    assert abs(lhs - rhs) > 1e-6 * abs(rhs)


def test_rotation_scan_three_lines_at_rest():
    rows = rotation_scan_rows(OMEGA_0, 25, [0.0])
    assert len(rows) == 6
    freqs = sorted({round(r[3], 9) for r in rows})
    assert len(freqs) == 3


# --- uncertainty budget -------------------------------------------------------

def test_budget_frequency_headline():
    # sum convention: the quoted 2.86e-9 uncertainty is the pump+Stokes total
    cfg = reference_sensor(freq_uncertainty_pump=1.43e-9, freq_uncertainty_stokes=1.43e-9)
    assert budget_frequency(cfg) == pytest.approx(2.25e-12, rel=1e-2, abs=0)


def test_budget_frequency_scalings():
    cfg = reference_sensor()
    base = budget_frequency(cfg)
    halved = budget_frequency(reference_sensor(kick_oam_L=50))
    assert halved == pytest.approx(base / 2, rel=1e-12, abs=0)
    quiet = reference_sensor(freq_uncertainty_pump=0.0, freq_uncertainty_stokes=0.0)
    assert budget_frequency(quiet) == 0.0


@pytest.mark.parametrize("n_scale", [1, 9, 161, 1001])
def test_budget_channels_scale_as_inverse_sqrt_n(n_scale):
    cfg = reference_sensor(ring_count_N=n_scale)
    ref = reference_sensor(ring_count_N=1)
    for fn in (budget_frequency, lambda c: budget_rabi_fluctuation(c)[2],
               lambda c: budget_shot_noise(c)[2]):
        assert fn(cfg) == pytest.approx(fn(ref) / np.sqrt(n_scale), rel=1e-12, abs=0)


def test_budget_rabi_fluctuation_reference_numbers():
    cfg = reference_sensor()  # each drive uncertainty quoted as 2.86e-9
    dphi, deps, domega = budget_rabi_fluctuation(cfg)
    assert dphi / np.pi == pytest.approx(3.21e-17, rel=1e-2, abs=0)
    assert deps / 1.054571817e-34 == pytest.approx(1.267e-15, rel=1e-2, abs=0)
    assert domega == pytest.approx(9.985e-19, rel=1e-2, abs=0)


def test_budget_shot_noise_reference_numbers():
    cfg = reference_sensor()
    dphi, deps, domega = budget_shot_noise(cfg)
    assert dphi == pytest.approx(1.987e-14, rel=1e-2, abs=0)
    assert deps / 1.054571817e-34 == pytest.approx(7.949e-14, rel=1e-2, abs=0)
    assert domega == pytest.approx(6.265e-17, rel=1e-2, abs=0)


def test_budget_channel_ordering_matches_conclusions():
    # dOmega_rabi << dOmega_shot <~ dOmega_freq for the reference parameters
    cfg = reference_sensor(freq_uncertainty_pump=1.43e-9, freq_uncertainty_stokes=1.43e-9)
    b = sensor_budget(cfg)
    assert b.dOmega_rabi < 1e-1 * b.dOmega_shot
    assert b.dOmega_shot < b.dOmega_freq


def test_sensor_config_validation():
    with pytest.raises(InvalidInputError):
        reference_sensor(ring_count_N=160)
    with pytest.raises(InvalidInputError):
        reference_sensor(Omega_R=0.0)


# --- tilt compensation ---------------------------------------------------------

def test_tilt_without_acceleration():
    g = [0.0, 0.0, -9.81]
    geo = tilt_compensation(g, [0.0, 0.0, 0.0], [1e-5, 2e-5, 3e-5])
    assert geo.tilt_angle_theta_a == 0.0
    assert geo.effective_Omega_prime == pytest.approx(3e-5, rel=1e-12, abs=0)


def test_tilt_45_degrees():
    g = np.array([0.0, 0.0, -9.81])
    a = np.array([9.81, 0.0, 0.0])
    omega = np.array([4e-5, 0.0, 3e-5])
    geo = tilt_compensation(g, a, omega)
    assert geo.tilt_angle_theta_a == pytest.approx(np.pi / 4, rel=1e-12, abs=0)
    # e_z' = (1, 0, 1)/sqrt(2): sensed rate mixes the in-plane component
    assert geo.effective_Omega_prime == pytest.approx((4e-5 + 3e-5) / np.sqrt(2), rel=1e-12, abs=0)


def test_tilt_orthogonal_rotation_invisible():
    geo = tilt_compensation([0, 0, -9.81], [9.81, 0, 0], [1e-5, 0.0, -1e-5])
    assert geo.effective_Omega_prime == pytest.approx(0.0, abs=1e-20)


def test_tilt_degenerate_geometry_rejected():
    with pytest.raises(InvalidInputError):
        tilt_compensation([0, 0, -9.81], [0, 0, -9.81], [0, 0, 1e-5])
