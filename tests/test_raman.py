import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from qrotor.optics import ring_peak_factor
from qrotor.raman import RamanConfig, effective_coupling, peak_fwhm, transition_probability
from qrotor.units import LI6

from oracles import evolve_rwa, rwa_hamiltonian


def make_raman(B_p=1e-4, B_s=1e-4, P_e=1.0, **over):
    base = dict(
        B_p0=B_p,
        B_s0=B_s,
        omega_p=1.43e9 + 1.26e8,
        omega_s=1.43e9 + 1.26e8 - 5.28e4,
        Delta_hf=1.26e8,
        kick_power_P_e=P_e,
        kick_waist_w_e=10e-6 * np.sqrt(5.0 / 25.0),
        kick_oam_L=25,
        Delta_e=1.26e10,
        polarizability_at_omega_e=2e-39,
        pulse_duration_tau=1.0,
    )
    base.update(over)
    return RamanConfig(**base)


def tune_kick_power(target_omega_r: float) -> RamanConfig:
    """Solve for the kick power giving the requested Rabi frequency."""
    probe = make_raman(P_e=1.0)
    base = effective_coupling(probe, LI6).Omega_R
    return make_raman(P_e=target_omega_r / base)


def test_no_stokes_no_coupling():
    res = effective_coupling(make_raman(B_s=0.0), LI6)
    assert res.V == 0.0
    assert res.Omega_R == 0.0


def test_coupling_linear_in_power_and_fields():
    r1 = effective_coupling(make_raman(), LI6)
    r2 = effective_coupling(make_raman(P_e=3.0), LI6)
    assert r2.V == pytest.approx(3 * r1.V, rel=1e-12)
    r3 = effective_coupling(make_raman(B_p=2e-4), LI6)
    assert r3.V == pytest.approx(2 * r1.V, rel=1e-12)


def test_tuned_config_gives_one_second_pi_pulse():
    cfg = tune_kick_power(3.142)
    res = effective_coupling(cfg, LI6)
    assert res.Omega_R == pytest.approx(3.142, rel=1e-9)
    assert np.pi / res.Omega_R == pytest.approx(1.0, rel=2e-4)


def test_kick_peak_factor_stirling_regime():
    # L^L e^-L / L! ~ 1/sqrt(2 pi L) for large L
    assert ring_peak_factor(200) == pytest.approx(1 / np.sqrt(2 * np.pi * 200), rel=1e-3)


def test_rwa_hamiltonian_structure():
    om = 3.142
    h = rwa_hamiltonian(0.7, om)
    c = om * np.sqrt(2) / 4
    expected = np.array([[0, c, c], [c, -0.7, 0], [c, 0, -0.7]])
    assert np.allclose(h, expected, rtol=0, atol=1e-15)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(rwa_hamiltonian(0.0, 0.0), np.zeros((3, 3)))


def test_rwa_eigenvalues_on_resonance():
    om = 3.142
    vals = np.linalg.eigvalsh(rwa_hamiltonian(0.0, om))
    assert np.allclose(sorted(vals), [-om / 2, 0.0, om / 2], atol=1e-12)


def test_probability_peak_and_tails():
    om = 3.142
    tau = np.pi / om
    assert transition_probability(0.0, om, tau) == pytest.approx(1.0, abs=1e-12)
    assert transition_probability(0.3, om, 0.0) == 0.0
    assert transition_probability(0.0, 0.0, 1.0) == 0.0


@pytest.mark.parametrize("om", [3.142, 1e-50, 1e50, 0.0, 1e-160])
def test_probability_kernel_keeps_the_formula_bits(om):
    # the in-place kernel takes the formula's operations in the formula's order
    delta = np.random.default_rng(5).normal(0.0, 5.0 * max(om, 1.0), (40, 30))
    for tau in (np.pi / max(om, 1e-300), 0.3, 7.0):
        g2 = om**2 + delta**2
        safe = np.where(g2 > 0.0, g2, 1.0)
        formula = np.where(g2 > 0.0, (om**2 / safe) * np.sin(0.5 * tau * np.sqrt(g2)) ** 2, 0.0)
        assert np.array_equal(transition_probability(delta, om, tau), formula)


def test_fwhm_constant():
    om = 3.142
    assert peak_fwhm(om) / om == pytest.approx(1.597, abs=1e-3)
    # scale invariance
    assert peak_fwhm(10 * om) / (10 * om) == pytest.approx(peak_fwhm(om) / om, rel=1e-9)


def test_evolution_matches_closed_form_on_grid():
    om = 3.142
    worst = 0.0
    for delta in np.linspace(-5 * om, 5 * om, 10):
        for tau in np.linspace(0.013, 2.7, 10):
            diff = abs(evolve_rwa(delta, om, tau) - transition_probability(delta, om, tau))
            worst = max(worst, diff)
    assert worst < 1e-10


def test_evolution_unitary_and_cyclic():
    om = 3.142
    for tau in (0.3, 1.0, 2.4):
        u = expm(-1j * rwa_hamiltonian(0.45, om) * tau)
        assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    # full Rabi cycle returns to the initial state
    assert evolve_rwa(0.0, om, 2 * np.pi / om) < 1e-10


@given(
    delta=st.floats(min_value=-50.0, max_value=50.0),
    om=st.floats(min_value=0.01, max_value=20.0),
    tau=st.floats(min_value=0.0, max_value=10.0),
)
def test_probability_bounded_and_symmetric(delta, om, tau):
    p = float(transition_probability(delta, om, tau))
    assert 0.0 <= p <= 1.0 + 1e-12
    assert p == pytest.approx(float(transition_probability(-delta, om, tau)), rel=1e-12,
                              abs=1e-15)
