import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from qrotor.exceptions import InvalidInputError
from qrotor.fivelevel import (
    FiveLevelModel,
    _midpoint_steps,
    _period_propagator,
    _rabi_terms,
    evolve_populations,
    kick_stark_scale,
    oscillation_frequency,
    raman_resonance,
    tuned_model,
)
from qrotor.raman import RamanConfig, effective_coupling
from qrotor.units import HBAR, LI6, MU_B

from oracles import (
    DressingError,
    adiabatic_eliminate,
    perturbative_ratios,
    sequential_period_propagator,
)


def build_cfg(omega_2L0, dhf_ratio, de_ratio, vb, ve_over_w2l, L=2):
    """Ladder test config with prescribed detuning ratios and dressing strengths."""
    d_hf = dhf_ratio * omega_2L0
    d_e = de_ratio * d_hf
    w_target = vb * HBAR * d_hf          # magnetic coupling g muB B / sqrt(3)
    b_field = w_target * np.sqrt(3.0) / (LI6.g_factor * MU_B)
    probe = RamanConfig(
        B_p0=b_field, B_s0=b_field,
        omega_p=100 * d_hf, omega_s=100 * d_hf - omega_2L0,
        Delta_hf=d_hf, kick_power_P_e=1.0, kick_waist_w_e=1e-5,
        kick_oam_L=L, Delta_e=d_e, polarizability_at_omega_e=1e-40,
        pulse_duration_tau=1.0,
    )
    p_e = ve_over_w2l * omega_2L0 * HBAR / kick_stark_scale(probe)
    return dataclasses.replace(probe, kick_power_P_e=p_e)


@pytest.fixture(scope="module")
def ladder_cfg():
    return build_cfg(1.0, 300.0, 300.0, 0.025, 0.02)


def test_hamiltonian_hermitian_at_all_times(ladder_cfg):
    model = FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0)
    for t in (0.0, 0.37, 2.9, 17.3):
        h = model.hamiltonian(t)
        assert np.allclose(h, h.conj().T, atol=1e-40)


def test_hamiltonian_takes_an_array_of_times(ladder_cfg):
    model = FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0)
    times = np.array([0.0, 0.37, 2.9, 17.3])
    batch = model.hamiltonian(times)
    assert batch.shape == (4, 5, 5)
    for t, h in zip(times, batch):
        assert np.array_equal(h, model.hamiltonian(t))


def test_m_f_sign_enters_magnetic_couplings(ladder_cfg):
    up = FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0, m_F=0.5)
    down = FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0, m_F=-0.5)
    assert up.magnetic_couplings[0] == pytest.approx(-down.magnetic_couplings[0], abs=0)
    assert up.electric_couplings == down.electric_couplings


def test_populations_frozen_without_drives(ladder_cfg):
    dark = dataclasses.replace(ladder_cfg, B_p0=0.0, B_s0=0.0, kick_power_P_e=0.0)
    model = FiveLevelModel(dark, LI6, omega_2L0=1.0)
    h = model.hamiltonian(1.23)
    assert np.allclose(h, np.diag(np.diagonal(h)))
    _, pops = evolve_populations(model, 50, 64)
    assert np.allclose(pops[:, 0], 1.0, atol=1e-12)
    assert np.allclose(pops[:, 1:], 0.0, atol=1e-12)


def test_evolution_matches_midpoint_expm_product(ladder_cfg):
    # independent propagator: a product of scipy expm midpoint steps, applied
    # period by period to the initial state
    model = tuned_model(FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0))
    n_periods, steps = 200, 64
    dt = 2 * np.pi / model.drive_frequency / steps
    u = np.eye(5, dtype=complex)
    for k in range(steps):
        u = expm(-1j * model.hamiltonian((k + 0.5) * dt) * dt / HBAR) @ u
    psi = np.eye(5, dtype=complex)[:, 0]
    expected = [np.abs(psi) ** 2]
    for _ in range(n_periods):
        psi = u @ psi
        expected.append(np.abs(psi) ** 2)
    times, pops = evolve_populations(model, n_periods, steps)
    assert np.allclose(times, np.arange(n_periods + 1) * steps * dt, rtol=1e-12)
    assert np.max(np.abs(pops - np.array(expected))) < 1e-9


@pytest.mark.parametrize("m_f", [0.5, -0.5, "dark"])
def test_hamiltonian_mirrors_to_its_conjugate_over_a_period(ladder_cfg, m_f):
    # the premise of the mirrored period product: H(T - t) = H(t)*
    cfg = ladder_cfg
    if m_f == "dark":
        cfg, m_f = dataclasses.replace(ladder_cfg, B_p0=0.0, B_s0=0.0, kick_power_P_e=0.0), 0.5
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0, m_F=m_f))
    period = 2 * np.pi / model.drive_frequency
    times = np.linspace(0.0, period, 97)
    mirrored, conj = model.hamiltonian(period - times), model.hamiltonian(times).conj()
    # only the Stokes tone depends on t; its phase w (T - t) rounds apart from -w t
    w_s = abs(model.magnetic_couplings[1])
    assert np.max(np.abs(mirrored - conj)) <= 1e-14 * w_s
    tone = np.zeros((5, 5), dtype=bool)
    tone[[0, 2, 1, 3], [2, 0, 3, 1]] = True
    assert np.array_equal(mirrored[:, ~tone], conj[:, ~tone])


@pytest.mark.parametrize("m_f", [0.5, -0.5])
@pytest.mark.parametrize("steps", [8, 9, 63, 64, 512])
def test_period_propagator_matches_the_sequential_product(m_f, steps):
    # strong dressing (off-diagonal |U| ~ 0.3) at detunings of 10 and 100
    # omega_2L0: at criterion 9's (Delta_e = 9e4 omega_2L0) a step's phase
    # is up to 7e4 rad, and its rounding alone (~1e-11) separates any two
    # computations of the same step
    cfg = build_cfg(1.0, 10.0, 10.0, 0.1, 0.1)
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0, m_F=m_f))
    expected = sequential_period_propagator(model, steps)
    assert np.max(np.abs(_period_propagator(model, steps) - expected)) <= 1e-12


@pytest.mark.parametrize("m_f", [0.5, -0.5])
def test_real_gauge_steps_match_the_complex_eigen_steps(m_f):
    # the strongly dressed ladder above, at 63 midpoints over the period
    # (the middle one, at T / 2, has |z| = |w_p - w_s| near 0)
    cfg = build_cfg(1.0, 10.0, 10.0, 0.1, 0.1)
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0, m_F=m_f))
    dt = 2 * np.pi / model.drive_frequency / 63
    times = (np.arange(63) + 0.5) * dt
    steps = _midpoint_steps(model, times, dt)
    for t, step in zip(times, steps):
        energies, vecs = np.linalg.eigh(model.hamiltonian(t))
        expected = (vecs * np.exp(-1j * energies * dt / HBAR)) @ vecs.conj().T
        assert np.max(np.abs(step - expected)) <= 1e-12


def test_period_propagator_eigensolves_only_real_matrices(ladder_cfg, monkeypatch):
    model = tuned_model(FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0))
    dtypes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        dtypes.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    _period_propagator(model, 64)
    assert dtypes == [np.dtype(float)]


def test_tan_terms_match_the_sin_form():
    # 1e5 points over eight half-turns, and points within 1e-9 of the poles
    # of tan at pi/2 + k pi (on them too), where t^2 is ~1e32
    poles = np.pi / 2 + np.pi * np.arange(-4, 5)
    near = (poles[:, None] + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9])).ravel()
    half = np.concatenate([np.linspace(-4 * np.pi, 4 * np.pi, 100_000), near])
    sin_sq, sin_cos = _rabi_terms(half.copy(), np.empty_like(half))
    assert np.max(np.abs(sin_sq - np.sin(half) ** 2)) <= 1e-15
    assert np.max(np.abs(sin_cos - np.sin(half) * np.cos(half))) <= 1e-15


@pytest.mark.parametrize("n_periods, steps, field", [
    (2.5, 512, "n_periods"),
    (0, 512, "n_periods"),
    (True, 512, "n_periods"),
    (10, 7, "steps_per_period"),
    (10, 64.0, "steps_per_period"),
])
def test_evolve_populations_refuses_bad_counts_naming_them(ladder_cfg, n_periods, steps, field):
    model = FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0)
    with pytest.raises(InvalidInputError, match=field):
        evolve_populations(model, n_periods, steps)


@pytest.mark.parametrize("n_times, n_population", [(200, 199), (199, 200)])
def test_oscillation_frequency_refuses_traces_of_unequal_length(n_times, n_population):
    times = np.linspace(0.0, 2.0, n_times)
    population = 0.9 * np.sin(1.5 * np.linspace(0.0, 2.0, n_population)) ** 2
    with pytest.raises(InvalidInputError, match="times and population"):
        oscillation_frequency(times, population, 3.0)


def test_oscillation_frequency_refuses_a_2d_trace():
    times = np.linspace(0.0, 2.0, 200).reshape(2, 100)
    with pytest.raises(InvalidInputError, match="times and population"):
        oscillation_frequency(times, 0.9 * np.sin(1.5 * times) ** 2, 3.0)


@pytest.mark.parametrize("times", [np.zeros(5), np.zeros(0), np.tile([0.0, 1.0], 100)],
                         ids=["one_time", "empty", "two_times"])
def test_oscillation_frequency_refuses_fewer_than_three_distinct_times(times):
    # A, c and Omega take three distinct times
    with pytest.raises(InvalidInputError, match="times"):
        oscillation_frequency(times, 0.9 * np.sin(1.5 * times) ** 2, 3.0)


def test_oscillation_frequency_counts_distinct_times_past_a_repeated_start():
    times = np.concatenate([np.zeros(3), np.linspace(0.0, 2.0, 200)])
    omega, amplitude = oscillation_frequency(times, 0.9 * np.sin(1.5 * times) ** 2, 2.8)
    assert omega == pytest.approx(3.0, rel=1e-10, abs=0)
    assert amplitude == pytest.approx(0.9, rel=1e-10, abs=0)


def test_evolution_conserves_probability_over_criterion_9_run():
    cfg = build_cfg(1.0, 300.0, 300.0, 0.025, 0.02)
    omega_r = effective_coupling(cfg, LI6).Omega_R
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0))
    n_periods = int(np.ceil(2.2 * np.pi / omega_r / (2 * np.pi / model.drive_frequency)))
    _, pops = evolve_populations(model, n_periods, 512)
    assert np.max(np.abs(pops.sum(axis=1) - 1.0)) <= 1e-9


@pytest.mark.parametrize("ratio", [150.0, 300.0])
def test_ladder_oscillates_at_effective_rabi_frequency(ratio):
    cfg = build_cfg(1.0, ratio, ratio, 0.025, 0.02)
    omega_r = effective_coupling(cfg, LI6).Omega_R
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0))
    n_periods = int(np.ceil(2.2 * np.pi / omega_r / (2 * np.pi / model.drive_frequency)))
    times, pops = evolve_populations(model, n_periods, 512)
    om_fit, amplitude = oscillation_frequency(times, pops[:, 1], omega_r)
    assert abs(om_fit / omega_r - 1.0) <= 0.05
    assert amplitude > 0.9
    # transferred population comes back: full-cycle minimum near zero
    assert pops[:, 1].min() < 0.01


def test_ladder_population_curve_is_two_level_rabi(ladder_cfg):
    # curve-level check: the transfer trace is a clean sin^2 Rabi oscillation,
    # with residuals at the dressing-correction level, and the intermediate
    # states stay only virtually populated
    omega_r = effective_coupling(ladder_cfg, LI6).Omega_R
    model = tuned_model(FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0))
    n_periods = int(np.ceil(2.2 * np.pi / omega_r / (2 * np.pi / model.drive_frequency)))
    times, pops = evolve_populations(model, n_periods, 512)
    om_fit, amplitude = oscillation_frequency(times, pops[:, 1], omega_r)
    fitted = amplitude * np.sin(0.5 * om_fit * times) ** 2
    rms = np.sqrt(np.mean((pops[:, 1] - fitted) ** 2))
    assert rms < 0.01
    # starting in the bare state, off-resonant admixtures beat up to
    # 4 (coupling/detuning)^2: both rf tones add to 16 v_b^2, the two kick
    # paths to 8 v_e^2
    v_b, v_e = perturbative_ratios(model)
    assert pops[:, 2:4].max() < 21 * v_b**2
    assert pops[:, 4].max() < 12 * v_e**2
    assert np.allclose(pops.sum(axis=1), 1.0, atol=1e-9)


def test_resonance_includes_kick_stark_and_drive_shifts(ladder_cfg):
    model = FiveLevelModel(ladder_cfg, LI6, omega_2L0=1.0)
    res = raman_resonance(model)
    # kick-pulse Stark shifts push |0> down twice as hard as the bright state
    v_e = kick_stark_scale(ladder_cfg) / HBAR
    assert res == pytest.approx(1.0 + v_e, rel=0.1, abs=0)


def test_elimination_cos_amplitude_matches_coupling_chain(ladder_cfg):
    res = adiabatic_eliminate(ladder_cfg, LI6, omega_2L0=1.0)
    v = effective_coupling(ladder_cfg, LI6).V
    assert res.cos_amplitude == pytest.approx(2.0 * v, rel=1e-12, abs=0)
    assert res.epsilon_2L == pytest.approx(HBAR * 1.0, rel=1e-15, abs=0)


def test_kick_stark_scale_is_the_one_optical_factor(ladder_cfg):
    v_e = kick_stark_scale(ladder_cfg)
    assert effective_coupling(ladder_cfg, LI6).V_e == v_e
    h_e = adiabatic_eliminate(ladder_cfg, LI6, omega_2L0=1.0).h_e
    assert h_e**2 == pytest.approx(v_e * HBAR * abs(ladder_cfg.Delta_e) / 2, rel=1e-12, abs=0)


def test_elimination_effective_hamiltonian_structure(ladder_cfg):
    res = adiabatic_eliminate(ladder_cfg, LI6, omega_2L0=1.0)
    h = res.hamiltonian(0.7)
    assert h.shape == (2, 2)
    assert h[0, 1] == h[1, 0]
    # off-diagonal oscillates around the static part with the drive period
    period = 2 * np.pi / res.omega_ps
    assert res.hamiltonian(0.0)[0, 1] == pytest.approx(
        res.static_coupling + res.cos_amplitude, rel=1e-12, abs=0
    )
    assert res.hamiltonian(period / 2)[0, 1] == pytest.approx(
        res.static_coupling - res.cos_amplitude, rel=1e-9, abs=0
    )


def test_elimination_time_dependence_vanishes_without_rf(ladder_cfg):
    quiet = dataclasses.replace(ladder_cfg, B_p0=0.0, B_s0=0.0)
    res = adiabatic_eliminate(quiet, LI6, omega_2L0=1.0)
    assert res.cos_amplitude == 0.0
    assert res.static_coupling != 0.0  # the kick Stark coupling survives


def test_stark_shift_sign_follows_detuning(ladder_cfg):
    blue = adiabatic_eliminate(ladder_cfg, LI6, omega_2L0=1.0)
    assert blue.stark_shift > 0.0
    red = dataclasses.replace(ladder_cfg, Delta_e=-ladder_cfg.Delta_e)
    assert adiabatic_eliminate(red, LI6, omega_2L0=1.0).stark_shift < 0.0


def test_elimination_rejects_strong_dressing():
    strong = build_cfg(1.0, 300.0, 300.0, 0.45, 0.02)
    with pytest.raises(DressingError) as err:
        adiabatic_eliminate(strong, LI6, omega_2L0=1.0)
    assert err.value.ratio == pytest.approx(0.45, rel=1e-9, abs=0)
