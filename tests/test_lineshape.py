import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import qrotor.raman
from qrotor.exceptions import CalibrationTargetError, ConvergenceError, InvalidInputError
from qrotor.raman import (
    Lineshape,
    NoShift,
    PhysicalShift,
    QuadraticShift,
    calibrate_quadratic_scale,
    fit_lineshape,
    fit_model,
    lineshape_from_rabi,
    lineshape_peak,
    stack_average,
    transition_probability,
)
from qrotor.units import LI6

OMEGA_R = 3.142
TAU = np.pi / OMEGA_R
GRID = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 801)


def test_single_ring_reduces_to_single_qr():
    ls = lineshape_from_rabi(OMEGA_R, TAU, 0, QuadraticShift(1.0), GRID)
    assert np.allclose(ls.probability, transition_probability(GRID, OMEGA_R, TAU),
                       rtol=1e-14)


def test_zero_shift_model_reduces_to_single_qr():
    ls = lineshape_from_rabi(OMEGA_R, TAU, 80, NoShift(), GRID)
    assert np.allclose(ls.probability, transition_probability(GRID, OMEGA_R, TAU),
                       rtol=1e-14)


def test_ensemble_is_mean_of_rings():
    s = 1.0e-3
    ls = lineshape_from_rabi(OMEGA_R, TAU, 10, QuadraticShift(s), GRID)
    j = np.arange(-10, 11)
    manual = np.mean(
        [transition_probability(GRID + s * jj**2, OMEGA_R, TAU) for jj in j], axis=0
    )
    assert np.allclose(ls.probability, manual, rtol=1e-13)
    assert np.all(ls.probability >= 0.0)
    assert np.all(ls.probability <= 1.0)


def naive_stack_average(delta, omega_r, tau, shifts):
    d = np.asarray(delta, dtype=float)[..., None] + np.asarray(shifts, dtype=float)
    return transition_probability(d, omega_r, tau).mean(axis=-1)


RING_SHIFTS = {
    "quadratic": 1e-3 * np.arange(-80, 81) ** 2.0,         # every shift twice but 0
    "distinct": np.random.default_rng(3).uniform(-2.0, 0.5, 97),
    "repeated": np.repeat([0.0, -0.3, 1.1], [5, 1, 7]),
    "beyond_one_chunk": 2e-5 * np.arange(-700, 701) ** 2.0,  # 701 distinct shifts
    "distinct_beyond_one_chunk": np.random.default_rng(4).normal(0.0, 1.0, 600),
}


@pytest.mark.parametrize("name", sorted(RING_SHIFTS))
def test_stack_average_matches_naive_ring_mean(name):
    shifts = RING_SHIFTS[name]
    grid = np.linspace(-6 * OMEGA_R, 2 * OMEGA_R, 301)
    expected = naive_stack_average(grid, OMEGA_R, TAU, shifts)
    assert np.allclose(stack_average(grid, OMEGA_R, TAU, shifts), expected,
                       rtol=0.0, atol=1e-13)
    square = stack_average(grid.reshape(7, 43), OMEGA_R, TAU, shifts)
    assert np.allclose(square, expected.reshape(7, 43), rtol=0.0, atol=1e-13)
    for d in (-0.7, grid[150]):
        got = stack_average(d, OMEGA_R, TAU, shifts)
        assert np.ndim(got) == 0
        assert abs(float(got) - float(naive_stack_average(d, OMEGA_R, TAU, shifts))) < 1e-13


@pytest.mark.parametrize("name", sorted(RING_SHIFTS))
def test_stack_average_independent_of_grid_split(name):
    shifts = RING_SHIFTS[name]
    grid = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 4501)  # more than one grid block
    whole = stack_average(grid, OMEGA_R, TAU, shifts)
    for pieces in (2, 4):
        parts = [stack_average(g, OMEGA_R, TAU, shifts) for g in np.array_split(grid, pieces)]
        assert np.array_equal(np.concatenate(parts), whole)


def test_stack_average_rejects_empty_stack():
    with pytest.raises(InvalidInputError, match="empty"):
        stack_average(GRID, OMEGA_R, TAU, np.array([]))
    with pytest.raises(InvalidInputError):
        lineshape_from_rabi(OMEGA_R, TAU, -1, QuadraticShift(1e-3), GRID)


def dense_peak(omega_r, tau, shifts):
    """The peak from a 4001-point scan of [-5, 1] Omega_R and the same refinement."""
    xs = np.linspace(-5.0 * omega_r, omega_r, 4001)
    i = int(np.argmax(naive_stack_average(xs, omega_r, tau, shifts)))
    res = minimize_scalar(
        lambda d: -float(naive_stack_average(d, omega_r, tau, shifts)),
        bounds=(xs[max(i - 2, 0)], xs[min(i + 2, len(xs) - 1)]),
        method="bounded", options={"xatol": 1e-12 * omega_r},
    )
    return float(res.x), float(-res.fun)


@pytest.mark.parametrize("tau", [TAU, 20 * np.pi / OMEGA_R])
@pytest.mark.parametrize("s", [2e-4, 1.05e-3, 3e-3])
def test_peak_scan_agrees_with_dense_scan(tau, s):
    # the peak is flat: round-off pins delta_max to about sqrt(eps) only.
    # (s = 0 with a long pulse has two equal peaks at +/- delta: no unique answer.)
    d_max, p_max = lineshape_peak(OMEGA_R, tau, 80, QuadraticShift(s))
    d_ref, p_ref = dense_peak(OMEGA_R, tau, s * np.arange(-80, 81) ** 2.0)
    assert d_max == pytest.approx(d_ref, abs=1e-6 * OMEGA_R)
    assert p_max == pytest.approx(p_ref, abs=1e-12)


def test_skew_matches_shift_sign():
    # positive quadratic shifts push ring resonances to negative detuning:
    # the left flank of the ensemble peak carries the extra weight
    s = 1.0e-3
    d_max, _ = lineshape_peak(OMEGA_R, TAU, 80, QuadraticShift(s))
    assert d_max < 0.0
    j = np.arange(-80, 81)
    shifts = s * j**2

    def p(d):
        return float(np.mean(transition_probability(d + shifts, OMEGA_R, TAU)))

    off = 1.5 * OMEGA_R
    assert p(d_max - off) > p(d_max + off)


def test_broadening_monotone_in_scale():
    widths = []
    for s in (4e-4, 7e-4, 1.0e-3, 1.3e-3):
        ls = lineshape_from_rabi(OMEGA_R, TAU, 80, QuadraticShift(s),
                                 np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
        widths.append(fit_lineshape(ls).Omega_R_eff)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_self_fit_recovers_exact_parameters():
    ls = lineshape_from_rabi(OMEGA_R, TAU, 0, NoShift(), GRID)
    fit = fit_lineshape(ls)
    assert fit.amplitude_A == pytest.approx(1.0, abs=1e-6)
    assert fit.delta_0 == pytest.approx(0.0, abs=1e-6 * OMEGA_R)
    assert fit.Omega_R_eff == pytest.approx(OMEGA_R, rel=1e-6)
    assert fit.rms_residual < 1e-8


@pytest.mark.parametrize("omega_r", [1e-50, 1e-30, 1e50])
def test_fit_constants_do_not_depend_on_the_unit_of_omega_r(omega_r):
    # the curve is the same in units of Omega_R at every scale; with unscaled
    # parameters the fit stopped after one step below ~1e-25 (A 0.696, not 0.667)
    def fit_in_units(om):
        ls = lineshape_from_rabi(om, np.pi / om, 12, QuadraticShift(0.0144 * om),
                                 np.linspace(-8 * om, 8 * om, 1601))
        fit = fit_lineshape(ls)
        return fit.amplitude_A, fit.delta_0 / om, fit.Omega_R_eff / om

    assert fit_in_units(omega_r) == pytest.approx(fit_in_units(1.0), rel=1e-7)


@pytest.mark.parametrize("j_max, edge, amplitude, width", [
    (5, 12.0, 0.191528, 5.0),       # width on the fit's upper bound
    (5, 20.0, 0.204908, 2.46625),
    (10, 40.0, 0.112741, 4.82874),
])
def test_fit_finds_the_lowest_basin_of_a_broadened_stack(j_max, edge, amplitude, width):
    # strongly broadened stacks: the three width starts land in different
    # minima (cost 2.81 vs 4.66 at j_max 5, edge 12); the 1.0 Omega_R start
    # alone ends in the other basin (A 0.318, 0.285 and 0.189)
    ls = lineshape_from_rabi(OMEGA_R, TAU, j_max, QuadraticShift(edge * OMEGA_R / j_max**2),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    fit = fit_lineshape(ls)
    assert fit.amplitude_A == pytest.approx(amplitude, rel=1e-4)
    assert fit.Omega_R_eff / OMEGA_R == pytest.approx(width, rel=1e-4)


def _counting(monkeypatch, name):
    calls = []
    original = getattr(qrotor.raman, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(qrotor.raman, name, counting)
    return calls


def test_fig4_fit_stops_at_the_printed_digits(monkeypatch):
    # three starts screened to 1e-6, the best one polished at 1e-15: 81
    # evaluations of the model (109 with every start run at 1e-15); 95 leaves
    # 17% headroom
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 80, -0.5374 * OMEGA_R)
    ls = lineshape_from_rabi(OMEGA_R, TAU, 80, QuadraticShift(cal.scale_s),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    calls = _counting(monkeypatch, "fit_model")
    fit_lineshape(ls)
    assert len(calls) <= 95


def test_saturated_calibration_searches_each_scale_once(monkeypatch):
    # the extremum is located to 1e-5 s_max and each scale's peak is kept:
    # 16 peak searches at j_max 12 (28 at xatol 1e-10 s_max); 20 leaves 25%
    # headroom
    calls = _counting(monkeypatch, "lineshape_peak")
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 12, -0.6 * OMEGA_R)
    assert not cal.on_target
    assert len(calls) <= 20
    assert (cal.delta_max, cal.P_max) == lineshape_peak(OMEGA_R, TAU, 12,
                                                        QuadraticShift(cal.scale_s))


def test_calibration_target_passed_at_the_smallest_scale_is_refused():
    # delta_max at s = 1e-9 s_max is already below the target: no root to bracket
    with pytest.raises(CalibrationTargetError, match="smallest scale"):
        calibrate_quadratic_scale(OMEGA_R, TAU, 12, -1e-300 * OMEGA_R)


@pytest.mark.parametrize("tau", [1e-300, 1e-150, 1e-6])
def test_flat_lineshape_has_no_peak_to_place(tau):
    # tau Omega_R below ~1e-4 leaves P0 flat to rounding over the window
    with pytest.raises(ConvergenceError, match="tau"):
        lineshape_peak(OMEGA_R, tau, 12, QuadraticShift(1e-3))


def test_fit_requires_wide_grid():
    narrow = np.linspace(-2 * OMEGA_R, 2 * OMEGA_R, 401)
    ls = lineshape_from_rabi(OMEGA_R, TAU, 0, NoShift(), narrow)
    with pytest.raises(InvalidInputError):
        fit_lineshape(ls)


def test_fit_model_peaks_at_amplitude():
    # pi-pulse convention: the trial profile's own resonance value equals A
    assert fit_model(0.5, 0.7, 0.5, 1.3 * OMEGA_R) == pytest.approx(0.7, abs=1e-12)


def test_calibration_reaches_moderate_targets():
    target = -0.30 * OMEGA_R
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 80, target)
    assert cal.on_target
    assert cal.delta_max == pytest.approx(target, rel=1e-6)
    d_check, _ = lineshape_peak(OMEGA_R, TAU, 80, QuadraticShift(cal.scale_s))
    assert d_check == pytest.approx(target, rel=1e-6)


def test_calibration_root_asks_only_for_resolved_digits(monkeypatch):
    # delta_max(s) is resolved to ~sqrt(eps) Omega_R; a root finder asked for
    # more bisects through rounding noise (about 25 peak searches per root)
    calls = _counting(monkeypatch, "lineshape_peak")
    j_max = 12
    calibrate_quadratic_scale(OMEGA_R, TAU, j_max, -0.6 * OMEGA_R)   # saturated
    extremum_calls = len(calls)
    root_calls = []
    for fraction in (-0.30, -0.35, -0.40, -0.45, -0.50):
        calls.clear()
        cal = calibrate_quadratic_scale(OMEGA_R, TAU, j_max, fraction * OMEGA_R)
        assert cal.on_target
        assert abs(cal.delta_max - cal.target_delta_max) <= 1e-7 * OMEGA_R
        root_calls.append(len(calls) - extremum_calls)
    assert np.mean(root_calls) <= 16


@pytest.mark.parametrize("tau", [1e-4, 1e-3, TAU])
def test_on_target_calibration_lands_within_the_stated_bound(tau):
    # the peak is flat over P0's width, pi / tau for a pulse shorter than
    # pi / Omega_R, so rounding places delta_max to sqrt(eps) of that width
    width = max(min(OMEGA_R, 2 * np.pi / tau), np.pi / tau)
    cal = calibrate_quadratic_scale(OMEGA_R, tau, 12, -0.5 * OMEGA_R)
    assert cal.on_target
    assert abs(cal.delta_max - cal.target_delta_max) <= 4 * np.sqrt(np.finfo(float).eps) * width


def test_calibration_saturates_at_family_extremum():
    # the peak location cannot be pushed past about -0.532 Omega_R; the
    # -0.5374 reference target lands on the closest-approach branch
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 80, -0.5374 * OMEGA_R)
    assert not cal.on_target
    assert cal.delta_max / OMEGA_R == pytest.approx(-0.5319, abs=2e-3)


def test_fig4_calibration_stays_on_the_saturated_branch():
    # a local peak search can lock onto a neighbouring branch at -1.6699
    cal = calibrate_quadratic_scale(3.142, np.pi / 3.142, 80, -0.5374 * 3.142)
    assert not cal.on_target
    assert cal.delta_max == pytest.approx(-1.67111, abs=1e-4)


def test_shift_models_need_geometry_only_when_physical(fig_beam):
    j = np.arange(-5, 6)
    quad = QuadraticShift(1e-3).shifts(j)
    assert quad[0] == quad[-1] == 1e-3 * 25

    phys = PhysicalShift().shifts(j, fig_beam, LI6, 25)
    assert phys[len(j) // 2] == 0.0  # ring 0 defines the reference
    # rings sit at z = (j + 1/2) lambda/2 for z0 = lambda/4, so to leading
    # order shift_j ~ (j + 1/2)^2 - 1/4: the j=5 to j=1 ratio is 15
    eta = 2 * fig_beam.phase_z0 / fig_beam.wavelength
    expected = ((5 + eta) ** 2 - eta**2) / ((1 + eta) ** 2 - eta**2)
    assert phys[-1] / phys[len(j) // 2 + 1] == pytest.approx(expected, rel=1e-3)


def test_broadened_fit_center_differs_from_peak():
    # the broadened curve is asymmetric: the least-squares center d0 sits
    # measurably deeper than the true maximum
    s = 1.05e-3
    d_max, _ = lineshape_peak(OMEGA_R, TAU, 80, QuadraticShift(s))
    ls = lineshape_from_rabi(OMEGA_R, TAU, 80, QuadraticShift(s),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    fit = fit_lineshape(ls)
    assert abs(fit.delta_0 - d_max) > 0.05 * OMEGA_R
    assert fit.delta_0 < d_max < 0.0


def test_ensemble_wrapper_enforces_matching_and_derives_rabi(fig_beam):
    from test_raman import make_raman
    from qrotor.raman import effective_coupling, ensemble_lineshape

    cfg = make_raman()  # w_e = w0 sqrt(l/L): matched to the trap ring
    grid = np.linspace(-8 * 3.142, 8 * 3.142, 201)
    ls = ensemble_lineshape(fig_beam, LI6, cfg, 5, NoShift(), grid)
    omega_r = effective_coupling(cfg, LI6).Omega_R
    direct = lineshape_from_rabi(omega_r, cfg.pulse_duration_tau, 5, NoShift(), grid)
    assert np.allclose(ls.probability, direct.probability, rtol=1e-14)
    assert ls.Omega_R == pytest.approx(omega_r, rel=1e-14)

    import dataclasses

    mismatched = dataclasses.replace(cfg, kick_waist_w_e=cfg.kick_waist_w_e * 1.01)
    with pytest.raises(InvalidInputError):
        ensemble_lineshape(fig_beam, LI6, mismatched, 5, NoShift(), grid)


def test_lineshape_grid_validation():
    with pytest.raises(InvalidInputError):
        Lineshape(delta_grid=np.array([1.0, 0.5]), probability=np.array([0.1, 0.2]),
                  Omega_R=1.0, j_max=0, tau=1.0)
    with pytest.raises(InvalidInputError):
        Lineshape(delta_grid=np.array([0.0, 1.0]), probability=np.array([0.1, 1.7]),
                  Omega_R=1.0, j_max=0, tau=1.0)
