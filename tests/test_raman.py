import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import expm

from qrotor.optics import ring_peak_factor
from qrotor.raman import (
    RamanConfig,
    _p0_terms,
    effective_coupling,
    peak_fwhm,
    transition_probability,
)
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
    assert r2.V == pytest.approx(3 * r1.V, rel=1e-12, abs=0)
    r3 = effective_coupling(make_raman(B_p=2e-4), LI6)
    assert r3.V == pytest.approx(2 * r1.V, rel=1e-12, abs=0)


def test_tuned_config_gives_one_second_pi_pulse():
    cfg = tune_kick_power(3.142)
    res = effective_coupling(cfg, LI6)
    assert res.Omega_R == pytest.approx(3.142, rel=1e-9, abs=0)
    assert np.pi / res.Omega_R == pytest.approx(1.0, rel=2e-4, abs=0)


def test_kick_peak_factor_stirling_regime():
    # L^L e^-L / L! ~ 1/sqrt(2 pi L) for large L
    assert ring_peak_factor(200) == pytest.approx(1 / np.sqrt(2 * np.pi * 200), rel=1e-3, abs=0)


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
    # the kernel takes the tan form's operations in this order
    delta = np.random.default_rng(5).normal(0.0, 5.0 * max(om, 1.0), (40, 30))
    for tau in (np.pi / max(om, 1e-300), 0.3, 7.0):
        g2 = delta * delta + om**2
        t = np.tan(np.sqrt(g2) * (0.5 * tau))
        safe = np.where(g2 > 0.0, g2, 1.0)
        formula = np.where(g2 > 0.0, t * t * om**2 / ((t * t + 1.0) * safe), 0.0)
        assert np.array_equal(transition_probability(delta, om, tau), formula)


def _sin_form(x, om, tau):
    """P0, its two delta slopes and their rounding scales, in np.longdouble.

    The sin form of `_p0_terms`' formulas.  A scale is the sum of the
    magnitudes of the kernel's terms, which bounds what its rounding can
    cost where the terms cancel.
    """
    x, om, tau = (np.asarray(v, dtype=np.longdouble) for v in (x, om, tau))
    g2 = om * om + x * x
    g = np.sqrt(g2)
    u = tau * g / 2
    sin2 = np.sin(u) ** 2
    w = om * om / g2
    t1 = tau / 2 * np.sin(2 * u) / g
    t2 = 2 * sin2 / g2
    r2 = x * x / g2
    values = [w * sin2, w * x * (t1 - t2),
              w * (t1 - t2 + r2 * (tau * tau * np.cos(2 * u) / 2 - 5 * t1 + 4 * t2))]
    scales = [w * sin2, w * abs(x) * (abs(t1) + t2),
              w * (abs(t1) + t2 + r2 * (tau * tau * (1 + 2 * sin2) / 2 + 5 * abs(t1) + 4 * t2))]
    return values, scales


def _exact_phase_points(phases):
    """(x, Omega_R, tau) whose phase u = tau g / 2 the kernel computes exactly.

    Pythagorean (Omega_R, x, g) make g^2 and g exact, and tau keeps 46
    mantissa bits so that tau g / 2 is exact too; u lands within 1e-12 of the
    phase asked for.
    """
    points = []
    for a, b, c in ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29)):
        for scale in (2.0**-60, 1.0, 2.0**40):
            for om, x in ((a, b), (b, -a), (a, 0.0)):
                g = c if x else a
                mantissa, exponent = np.frexp(2.0 * np.asarray(phases) / (g * scale))
                tau = np.ldexp(np.round(mantissa * 2.0**46) / 2.0**46, exponent)
                points += [(x * scale, om * scale, t) for t in tau]
    return np.array(points).T


def test_kernel_matches_long_double_sin_form():
    k = np.array([1, 2, 7, 300])
    near = np.concatenate([np.pi * k, np.pi * (k - 0.5)])
    phases = np.concatenate([near - 1e-9, near + 1e-9, [1e-9, 1e-4, 0.3],
                             np.random.default_rng(8).uniform(0.0, 40.0, 60)])
    x, om, tau = _exact_phase_points(phases)
    values, scales = _sin_form(x, om, tau)
    for i in range(len(x)):
        terms = _p0_terms(np.float64(x[i]), om[i], tau[i], 2)
        for got, want, scale in zip(terms, values, scales):
            assert abs(np.longdouble(got) - want[i]) <= 2e-15 * scale[i], (x[i], om[i], tau[i])


def test_probability_of_a_point_does_not_depend_on_its_array():
    # numpy's SIMD tan takes whole vectors and a masked tail
    om, tau = 3.142, np.pi / 3.142
    rng = np.random.default_rng(6)
    for d in rng.normal(0.0, 10.0, 12):
        alone = transition_probability(d, om, tau)
        assert np.ndim(alone) == 0
        for offset in range(18):
            for length in (offset + 1, offset + 9, 40):
                arr = rng.normal(0.0, 10.0, length)
                arr[offset] = d
                assert transition_probability(arr, om, tau)[offset] == alone


def test_fwhm_constant():
    om = 3.142
    assert peak_fwhm(om) / om == pytest.approx(1.597, abs=1e-3)
    # scale invariance
    assert peak_fwhm(10 * om) / (10 * om) == pytest.approx(peak_fwhm(om) / om, rel=1e-9, abs=0)


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
