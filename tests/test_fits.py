"""The variable-projection solver behind both least-squares fits.

scipy stays here as an independent oracle: `least_squares` (trust-region
reflective, the same box) for the lineshape fit and `curve_fit` for the
ladder's oscillation frequency.
"""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import curve_fit, least_squares

import qrotor._varpro
import qrotor.raman
from qrotor._varpro import varpro
from qrotor.exceptions import ConvergenceError, InvalidInputError
from qrotor.fivelevel import (
    _COARSE_SAMPLES,
    FiveLevelModel,
    _centred_fit,
    _rabi_terms,
    evolve_populations,
    oscillation_frequency,
    tuned_model,
)
from qrotor.raman import (
    FIT_CENTRE_RANGE,
    FIT_SCREEN_TOL,
    FIT_WIDTH_BOUNDS,
    Lineshape,
    calibrate_quadratic_scale,
    effective_coupling,
    fit_lineshape,
    fit_model,
    lineshape_from_rabi,
    ring_shifts,
    transition_probability,
)
from qrotor.units import LI6

OMEGA_R = 3.142
TAU = np.pi / OMEGA_R
GRID = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601)


def _counting_fit_model(monkeypatch):
    calls = []
    original = qrotor.raman.fit_model

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(qrotor.raman, "fit_model", counting)
    return calls


def _calibrated(j_max, target):
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, j_max, target * OMEGA_R)
    return lineshape_from_rabi(OMEGA_R, TAU, ring_shifts("quadratic", j_max, cal.scale_s), GRID)


def _basis(theta):
    profile, d_delta_0, d_omega = fit_model(GRID, 1.0, *theta)
    return profile[None, :], np.stack([d_delta_0, d_omega])[:, None, :]


def _box(y):
    peak = GRID[int(np.argmax(y))]
    w_lo, w_hi = FIT_WIDTH_BOUNDS
    return (peak, [peak - FIT_CENTRE_RANGE * OMEGA_R, w_lo * OMEGA_R],
            [peak + FIT_CENTRE_RANGE * OMEGA_R, w_hi * OMEGA_R])


@pytest.mark.parametrize("amplitude, delta_0, omega_eff", [
    (0.7, -2.1, 4.7), (1.0, 0.0, 3.142), (0.3, 1.0, 0.7)])
def test_fit_model_slopes_match_central_differences(amplitude, delta_0, omega_eff):
    model, d_delta_0, d_omega = fit_model(GRID, amplitude, delta_0, omega_eff)
    p0 = transition_probability(GRID - delta_0, omega_eff, np.pi / omega_eff)
    assert np.allclose(model, amplitude * p0, rtol=0, atol=1e-15)
    h = 1e-6

    def central(d_delta_0, d_omega):
        return (fit_model(GRID, amplitude, delta_0 + d_delta_0, omega_eff + d_omega)[0]
                - fit_model(GRID, amplitude, delta_0 - d_delta_0, omega_eff - d_omega)[0]) / (2 * h)

    fd_delta_0, fd_omega = central(h, 0.0), central(0.0, h)
    assert np.max(np.abs(d_delta_0 - fd_delta_0)) < 1e-8
    assert np.max(np.abs(d_omega - fd_omega)) < 1e-8


@pytest.mark.parametrize("amplitude, delta_0, omega_eff", [
    (0.73, -1.1, 1.37), (0.4, 0.6, 2.9), (0.95, -0.2, 0.8), (0.6, -0.5, 4.2)])
def test_noise_free_curve_is_recovered(monkeypatch, amplitude, delta_0, omega_eff):
    # three starts and the polish took 20-29 evaluations; the exact fit
    # stops each one as soon as its cost reaches rounding
    y = fit_model(GRID, amplitude, delta_0 * OMEGA_R, omega_eff * OMEGA_R)[0]
    calls = _counting_fit_model(monkeypatch)
    fit = fit_lineshape(Lineshape(GRID, y, OMEGA_R))
    assert 0 < len(calls) <= 40
    assert fit.amplitude_A == pytest.approx(amplitude, rel=1e-12, abs=0)
    assert fit.delta_0 == pytest.approx(delta_0 * OMEGA_R, rel=1e-12, abs=0)
    assert fit.Omega_R_eff == pytest.approx(omega_eff * OMEGA_R, rel=1e-12, abs=0)


@pytest.mark.parametrize("ls_args", [(12, -0.5374), (5, None)], ids=["calibrated", "on_face"])
@pytest.mark.parametrize("face", ["centre_up", "centre_down", "width_low", "width_high"])
@pytest.mark.parametrize("tol, most", [(FIT_SCREEN_TOL, 30), (1e-15, 40)])
def test_starts_against_each_face_end_inside_the_box(ls_args, face, tol, most):
    # a coordinate on a face whose descent leaves the box is held there: the
    # j_max 5 stack has its minimum on the 5 Omega_R face (up to 21
    # evaluations seen at the screen tolerance, 26 at 1e-15)
    j_max, target = ls_args
    if target is None:
        shifts = ring_shifts("quadratic", j_max, 12.0 * OMEGA_R / j_max**2)
        y = lineshape_from_rabi(OMEGA_R, TAU, shifts, GRID).probability
    else:
        y = _calibrated(j_max, target).probability
    peak, lower, upper = _box(y)
    start = {"centre_up": (upper[0], 1.5 * OMEGA_R), "centre_down": (lower[0], 1.5 * OMEGA_R),
             "width_low": (peak, lower[1]), "width_high": (peak, upper[1])}[face]
    sol = varpro(_basis, y, start, lower, upper, OMEGA_R, tol, coef_bounds=(1e-9, 1.5))
    assert sol.success
    assert sol.nfev <= most
    assert np.all(np.asarray(lower) <= sol.theta) and np.all(sol.theta <= np.asarray(upper))
    assert 1e-9 <= sol.coef[0] <= 1.5


def test_uphill_step_out_of_a_face_is_damped(monkeypatch):
    # The secant estimate of the residual curvature can make the system
    # indefinite.  Here the first Gauss-Newton step overshoots from 3 to the
    # 0.5 face, the gradient there points into the box, and the estimate
    # (forced negative once) sends the step out of the box, where it clips to
    # nothing.  Without damping that step the fit stopped on the face with a
    # gradient of 6.5.
    t = np.linspace(0.0, 3.0, 200)

    def decay(theta):
        e = np.exp(-theta[0] * t)
        return e[None], (-t * e)[None, None]

    secant, calls = qrotor._varpro._secant, []

    def negative_once(*args):
        calls.append(None)
        return np.array([[-1e3]]) if len(calls) == 1 else secant(*args)

    monkeypatch.setattr(qrotor._varpro, "_secant", negative_once)
    sol = varpro(decay, 0.8 * np.exp(-t), [3.0], [0.5], [4.0], 1.0, 1e-10)
    assert calls and sol.success
    assert sol.theta[0] == pytest.approx(1.0, rel=1e-9, abs=0)
    assert sol.coef[0] == pytest.approx(0.8, rel=1e-9, abs=0)


def trf_fit(ls):
    """The fit as scipy's trust-region reflective least squares runs it.

    A, delta_0 and Omega_eff move together in the same box, three width
    starts are screened to FIT_SCREEN_TOL and the best is polished at 1e-15.
    """
    delta, y, om = ls.delta_grid, ls.probability, ls.Omega_R
    peak = float(delta[int(np.argmax(y))])

    def residual(p):
        return fit_model(delta, *p)[0] - y

    def jacobian(p):
        profile, d_delta_0, d_omega = fit_model(delta, 1.0, p[1], p[2])
        return np.column_stack([profile, p[0] * d_delta_0, p[0] * d_omega])

    lower = [1e-9, peak - FIT_CENTRE_RANGE * om, FIT_WIDTH_BOUNDS[0] * om]
    upper = [1.5, peak + FIT_CENTRE_RANGE * om, FIT_WIDTH_BOUNDS[1] * om]

    def solve(start, tol):
        return least_squares(residual, start, jac=jacobian, method="trf", bounds=(lower, upper),
                             x_scale=[1.0, om, om], xtol=tol, ftol=tol, gtol=tol, max_nfev=2000)

    amplitude = min(max(float(y.max()), lower[0]), upper[0])
    screened = [solve([amplitude, peak, g * om], FIT_SCREEN_TOL) for g in (1.0, 1.5, 2.0)]
    return solve(min(screened, key=lambda res: res.cost).x, 1e-15).x


@pytest.mark.parametrize("j_max, target", [(80, -0.5374), (9, -0.4), (12, -0.3), (15, -0.45)],
                         ids=["fig4", "j9", "j12", "j15"])
def test_fit_matches_trust_region_least_squares(j_max, target):
    # measured: 6.4e-9 relative on fig4, at most 2.2e-9 on the other stacks
    ls = _calibrated(j_max, target)
    fit = fit_lineshape(ls)
    oracle = trf_fit(ls)
    got = [fit.amplitude_A, fit.delta_0, fit.Omega_R_eff]
    assert got == pytest.approx(list(oracle), rel=1e-7, abs=0)


def test_clipped_amplitude_is_held_at_its_bound():
    # data twice a trial profile: the amplitude sits on its 1.5 bound, and
    # the plain Jacobian at that amplitude fits the rest
    y = 2.0 * fit_model(GRID, 1.0, -0.4 * OMEGA_R, 1.3 * OMEGA_R)[0]
    peak, lower, upper = _box(y)
    sol = varpro(_basis, y, [peak, 1.5 * OMEGA_R], lower, upper, OMEGA_R, 1e-15,
                 coef_bounds=(1e-9, 1.5))
    assert sol.success and sol.coef[0] == 1.5
    oracle = least_squares(lambda th: fit_model(GRID, 1.5, *th)[0] - y, [peak, 1.5 * OMEGA_R],
                           bounds=(lower, upper), x_scale=OMEGA_R,
                           xtol=1e-15, ftol=1e-15, gtol=1e-15).x
    assert sol.theta == pytest.approx(oracle, rel=1e-7, abs=0)


def test_oscillation_frequency_recovers_a_synthetic_trace():
    times = np.linspace(0.0, 2.0, 400)
    trace = 0.83 * np.sin(0.5 * 3.7 * times) ** 2 + 0.05
    omega, amplitude = oscillation_frequency(times, trace, 3.5)
    assert omega == pytest.approx(3.7, rel=1e-10, abs=0)
    assert amplitude == pytest.approx(0.83, rel=1e-10, abs=0)


def test_oscillation_frequency_needs_a_nonzero_guess():
    # the search runs in units of the guess; curve_fit returned Omega ~ 1e7 here
    times = np.linspace(0.0, 2.0, 200)
    with pytest.raises(InvalidInputError, match="guess"):
        oscillation_frequency(times, 0.9 * np.sin(1.5 * times) ** 2, 0.0)


@pytest.mark.parametrize("guess", [np.nan, np.inf, -np.inf])
def test_oscillation_frequency_needs_a_finite_guess(guess):
    times = np.linspace(0.0, 2.0, 200)
    with pytest.raises(InvalidInputError, match="guess"):
        oscillation_frequency(times, 0.9 * np.sin(1.5 * times) ** 2, guess)


def test_oscillation_frequency_from_a_vanishing_guess_fails_to_converge():
    # at Omega = 1e-300 every sin^2(Omega t / 2) underflows to 0: the basis
    # row is zero, its Gram matrix singular, and the fit fails at its start
    times = np.linspace(0.0, 2.0, 200)
    with pytest.raises(ConvergenceError, match="oscillation fit"):
        oscillation_frequency(times, 0.9 * np.sin(1.5 * times) ** 2, 1e-300)


@pytest.mark.parametrize("value", [0.0, np.inf], ids=["singular", "non_finite"])
def test_fit_fails_on_a_singular_or_non_finite_gram_matrix(value):
    t = np.linspace(0.0, 3.0, 200)

    def flat(theta):
        return np.full((1, t.size), value), np.zeros((1, 1, t.size))

    sol = varpro(flat, np.exp(-t), [1.0], [0.5], [4.0], 1.0, 1e-10)
    assert not sol.success and sol.nfev == 1


def _ladder_trace(v_b, v_e):
    from test_fivelevel import build_cfg

    cfg = build_cfg(1.0, 300.0, 300.0, v_b, v_e)
    omega_r = effective_coupling(cfg, LI6).Omega_R
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0))
    n_periods = int(np.ceil(2.2 * np.pi / omega_r / (2 * np.pi / model.drive_frequency)))
    times, pops = evolve_populations(model, n_periods, 512)
    return times, pops[:, 1], omega_r


@pytest.mark.parametrize("v_b, v_e", [(0.025, 0.02), (0.02, 0.015)],
                         ids=["criterion_9", "weak_66k_periods"])
def test_centred_rabi_fit_matches_the_constant_as_a_basis_row(v_b, v_e):
    # A sin^2 + c on the basis rows [s, 1] and A (s - mean s) fitted to
    # y - mean y are one least-squares problem, solved by the same varpro.
    # Both polish from the estimate of the centred fit's coarse stage.
    times, trace, omega_r = _ladder_trace(v_b, v_e)
    stride = times.size // _COARSE_SAMPLES
    assert stride >= 2
    start, _ = oscillation_frequency(times[::stride], trace[::stride], omega_r)
    phi = np.ones((2, times.size))
    dphi = np.zeros((1, 2, times.size))

    def with_constant(theta):
        half = np.multiply(times, 0.5 * theta[0], out=dphi[0, 0])
        _rabi_terms(half, phi[0])
        half *= times
        return phi, dphi

    sol = varpro(with_constant, np.ascontiguousarray(trace), [start], [-np.inf], [np.inf],
                 start, 1e-10)
    assert sol.success
    omega, amplitude = oscillation_frequency(times, trace, omega_r)
    assert omega == pytest.approx(abs(sol.theta[0]), rel=1e-12, abs=0)
    assert amplitude == pytest.approx(sol.coef[0], rel=1e-12, abs=0)


def _recorded_fits(monkeypatch):
    """(samples, theta0, Solution) of each varpro call, in call order."""
    calls = []
    original = qrotor._varpro.varpro

    def recording(basis, y, theta0, *args):
        sol = original(basis, y, theta0, *args)
        calls.append((len(y), list(theta0), sol))
        return sol

    monkeypatch.setattr(qrotor._varpro, "varpro", recording)
    return calls


def _rabi_trace(samples, omega=3.7, ripple=0.0):
    # 1.1 Rabi periods, the span of a ladder run, with an optional fast ripple
    times = np.linspace(0.0, 2.2 * np.pi / omega, samples)
    trace = 0.93 * np.sin(0.5 * omega * times) ** 2 + 0.01
    return times, trace + ripple * np.sin(397.0 * omega * times)


def test_trace_below_two_coarse_blocks_is_fitted_once_from_the_guess(monkeypatch):
    times, trace = _rabi_trace(2 * _COARSE_SAMPLES - 1)
    calls = _recorded_fits(monkeypatch)
    omega, amplitude = oscillation_frequency(times, trace, 3.1)
    [(samples, theta0, sol)] = calls
    assert (samples, theta0) == (times.size, [3.1])
    single = _centred_fit(times, trace, 3.1)
    assert (omega, amplitude) == (abs(single.theta[0]), single.coef[0])
    assert (omega, amplitude) == (abs(sol.theta[0]), sol.coef[0])


def test_long_trace_is_polished_from_the_strided_fit(monkeypatch):
    times, trace = _rabi_trace(2 * _COARSE_SAMPLES)
    calls = _recorded_fits(monkeypatch)
    omega, _ = oscillation_frequency(times, trace, 3.1)
    (coarse, from_guess, first), (full, from_coarse, polish) = calls
    assert (coarse, from_guess, full) == (_COARSE_SAMPLES, [3.1], times.size)
    assert from_coarse == [abs(first.theta[0])]
    assert polish.nfev <= 2 and omega == pytest.approx(3.7, rel=1e-10, abs=0)


@pytest.mark.parametrize("off", [0.7, 1.3])
def test_two_stage_fit_lands_on_the_single_stage_fit(off):
    # 60K samples, a 1e-3 ripple 397 times faster than the Rabi frequency
    # (the drive's micromotion on a ladder trace) and a guess 30% off
    times, trace = _rabi_trace(60_000, ripple=1e-3)
    omega, amplitude = oscillation_frequency(times, trace, off * 3.7)
    single = _centred_fit(times, trace, off * 3.7)
    assert single.success
    assert omega == pytest.approx(abs(single.theta[0]), rel=1e-10, abs=0)
    assert amplitude == pytest.approx(single.coef[0], rel=1e-10, abs=0)
    assert omega == pytest.approx(3.7, rel=1e-4, abs=0)


def test_failed_coarse_fit_leaves_the_polish_to_start_from_the_guess(monkeypatch):
    times, trace = _rabi_trace(2 * _COARSE_SAMPLES)
    calls = []
    original = qrotor._varpro.varpro

    def first_fails(basis, y, theta0, *args):
        sol = original(basis, y, theta0, *args)
        calls.append(list(theta0))
        return sol if len(calls) > 1 else dataclasses.replace(sol, success=False)

    monkeypatch.setattr(qrotor._varpro, "varpro", first_fails)
    omega, _ = oscillation_frequency(times, trace, 3.1)
    assert calls == [[3.1], [3.1]]
    assert omega == pytest.approx(3.7, rel=1e-10, abs=0)


def test_long_trace_with_a_degenerate_subsample_is_fitted_from_the_guess(monkeypatch):
    # every second sample sits at t = 0: the stride-2 subsample holds one
    # time, so the whole trace is fitted from the guess
    times, trace = _rabi_trace(10_000)
    times[::2], trace[::2] = 0.0, trace[0]
    calls = _recorded_fits(monkeypatch)
    omega, amplitude = oscillation_frequency(times, trace, 3.1)
    assert [(samples, theta0) for samples, theta0, _ in calls] == [(times.size, [3.1])]
    assert omega == pytest.approx(3.7, rel=1e-10, abs=0)
    assert amplitude == pytest.approx(0.93, rel=1e-10, abs=0)


def test_oscillation_frequency_matches_curve_fit_on_criterion_9():
    from test_fivelevel import build_cfg

    cfg = build_cfg(1.0, 300.0, 300.0, 0.025, 0.02)
    omega_r = effective_coupling(cfg, LI6).Omega_R
    model = tuned_model(FiveLevelModel(cfg, LI6, omega_2L0=1.0))
    n_periods = int(np.ceil(2.2 * np.pi / omega_r / (2 * np.pi / model.drive_frequency)))
    times, pops = evolve_populations(model, n_periods, 512)
    omega, amplitude = oscillation_frequency(times, pops[:, 1], omega_r)
    popt, _ = curve_fit(lambda t, a, om, c: a * np.sin(0.5 * om * t) ** 2 + c,
                        times, pops[:, 1], p0=[1.0, omega_r, 0.0])
    assert omega == pytest.approx(abs(popt[1]), rel=1e-7, abs=0)
    assert amplitude == pytest.approx(popt[0], rel=1e-7, abs=0)
