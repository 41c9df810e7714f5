import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import qrotor._varpro
import qrotor.raman
from qrotor.config import parse_config
from qrotor.exceptions import CalibrationTargetError, ConvergenceError, InvalidInputError
from qrotor.raman import (
    LOBE_TIE_RTOL,
    PEAK_WINDOW,
    Lineshape,
    calibrate_quadratic_scale,
    fit_lineshape,
    fit_model,
    lineshape_from_rabi,
    lineshape_peak,
    ring_shifts,
    stack_average,
    transition_probability,
)
from qrotor.units import LI6

from oracles import nested_calibration

OMEGA_R = 3.142
TAU = np.pi / OMEGA_R
GRID = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 801)


def quadratic(j_max, s):
    """Shifts s j^2 of the rings |j| <= j_max."""
    return ring_shifts("quadratic", j_max, s)


def test_single_ring_reduces_to_single_qr():
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(0, 1.0), GRID)
    assert np.allclose(ls.probability, transition_probability(GRID, OMEGA_R, TAU),
                       rtol=1e-14)


def test_zero_shift_model_reduces_to_single_qr():
    ls = lineshape_from_rabi(OMEGA_R, TAU, ring_shifts("none", 80), GRID)
    assert np.allclose(ls.probability, transition_probability(GRID, OMEGA_R, TAU),
                       rtol=1e-14)


def test_ensemble_is_mean_of_rings():
    s = 1.0e-3
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(10, s), GRID)
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
    # 10 panels of Chebyshev nodes at tau Omega_R = pi: 320 nodes, two ring blocks
    "nodes_beyond_one_chunk": np.random.default_rng(5).uniform(-40 * OMEGA_R, 0.0, 3000),
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


def grid_beyond_one_block(shifts, tau=None):
    """A grid of more than one block of the stack average, not a whole number of them.

    The blocks are those of the shifts `_fold` averages over: the distinct
    ones, or with ``tau`` its Chebyshev nodes where it compresses the stack.
    """
    width = min(qrotor.raman._fold(shifts, tau)[0].size, qrotor.raman._RING_CHUNK)
    rows = qrotor.raman._BLOCK_CELLS // width
    return np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 2 * rows + 37)


def assert_split_invariant(shifts, splits):
    grid = grid_beyond_one_block(shifts, TAU)
    whole = stack_average(grid, OMEGA_R, TAU, shifts)
    for pieces in splits:
        parts = [stack_average(g, OMEGA_R, TAU, shifts) for g in np.array_split(grid, pieces)]
        assert np.array_equal(np.concatenate(parts), whole), pieces


@pytest.mark.parametrize("name", sorted(RING_SHIFTS))
def test_stack_average_independent_of_grid_split(name):
    assert_split_invariant(RING_SHIFTS[name], (2, 4))


@pytest.mark.parametrize("rings", [1, 255, 256, 257, 2001])
def test_stack_average_bit_identical_across_block_boundaries(rings):
    # distinct shifts: one ring block less, exactly, or one more than full
    shifts = np.random.default_rng(rings).uniform(-3.0 * OMEGA_R, OMEGA_R, rings)
    assert np.unique(shifts).size == rings
    assert_split_invariant(shifts, (1, 2, 3, 7))


@pytest.mark.parametrize("rings", [1, 255, 256, 257, 2001])
def test_stack_slopes_match_the_count_weighted_ring_mean(rings):
    # distinct shifts, each but the first on two rings; the one-einsum block
    # sums agree with a ring-by-ring sum of `_p0_terms` to within 1e-14 of
    # each term's largest value (measured: 1.8e-15 up to 257 distinct shifts,
    # 4.0e-15 at 2001, most of it the 4001-term running sum's own rounding),
    # and stay bit-identical under every grid split at orders 1 and 2 as at
    # order 0
    distinct = np.random.default_rng(rings).uniform(-3.0 * OMEGA_R, OMEGA_R, rings)
    shifts = np.concatenate([distinct, distinct[1:]])
    folded = qrotor.raman._fold(shifts)
    assert folded[0].size == rings
    grid = grid_beyond_one_block(shifts)
    naive = np.zeros((3, grid.size))
    for shift in shifts:
        naive += qrotor.raman._p0_terms(grid + shift, OMEGA_R, TAU, 2)
    naive /= shifts.size
    means = qrotor.raman._folded_average(grid, OMEGA_R, TAU, *folded, order=2)
    for got, want in zip(means, naive):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    for order in (1, 2):
        whole = qrotor.raman._folded_average(grid, OMEGA_R, TAU, *folded, order=order)
        assert np.array_equal(whole, means[:order + 1])
        for pieces in (2, 3, 7):
            parts = [qrotor.raman._folded_average(g, OMEGA_R, TAU, *folded, order=order)
                     for g in np.array_split(grid, pieces)]
            assert np.array_equal(np.concatenate(parts, axis=1), whole), (order, pieces)


def shift_sets(span, rings=2001):
    """Shift profiles spanning ``span``: quadratic, negative, saturating, one-sided, random."""
    u = np.linspace(-1.0, 1.0, rings)
    return {"quadratic": span * u**2, "negative": -span * u**2,
            "saturating": span * np.tanh(3.0 * u**2), "one-sided": span * np.abs(u),
            "random": np.random.default_rng(rings).uniform(-0.5 * span, 0.5 * span, rings)}


def largest_terms(grid, tau, shifts):
    """The largest |d^k P0 / d delta^k| any ring contributes on ``grid``, k = 0..2.

    The scale of the rounding in a ring sum: a broad stack's mean can cancel
    far below it (the mean curvature of a one-sided stack 10 Omega_R wide
    under a 20 pi pulse is 1/500 of a ring's).
    """
    xs = np.linspace(grid[0] + shifts.min(), grid[-1] + shifts.max(), 100_001)
    return np.abs(qrotor.raman._p0_terms(xs, OMEGA_R, tau, 2)).max(axis=1)


@pytest.mark.parametrize("tau_omega", [0.1 * np.pi, np.pi, 5 * np.pi, 20 * np.pi],
                         ids=["0.1pi", "pi", "5pi", "20pi"])
def test_chebyshev_nodes_match_the_exact_fold(tau_omega):
    # the compressed mean of P0, its slope and its curvature stay within 1e-13
    # of the largest term (measured over the 60 stacks, 55 of them
    # compressed: 1.2e-15 for P0, 2.9e-15 for the slope, 9.6e-15 for the
    # curvature, the last at tau Omega_R = 0.1 pi, where both folds carry the
    # slopes' eps / u^2 rounding)
    tau = tau_omega / OMEGA_R
    grid = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 401)
    compressed = 0
    for span in (0.1, 3.0, 30.0):
        for name, shifts in shift_sets(span * OMEGA_R).items():
            exact, nodes = qrotor.raman._fold(shifts), qrotor.raman._fold(shifts, tau)
            compressed += nodes[0].size < exact[0].size
            want = qrotor.raman._folded_average(grid, OMEGA_R, tau, *exact, order=2)
            got = qrotor.raman._folded_average(grid, OMEGA_R, tau, *nodes, order=2)
            errors = np.max(np.abs(got - want), axis=1) / largest_terms(grid, tau, shifts)
            assert np.all(errors <= 1e-13), (span, name, errors)
    assert compressed >= 10


def test_a_shift_on_a_chebyshev_node_gets_finite_weights():
    # shifts spanning [-1, 1] make one panel whose nodes are the Chebyshev
    # points themselves, so the shift added on the sixth one hits it exactly
    # (measured error: 3.7e-16 of the largest term)
    nodes = -np.cos((np.arange(32) + 0.5) * np.pi / 32)
    shifts = np.concatenate([[-1.0, 1.0, nodes[5], nodes[5]],
                             np.random.default_rng(6).uniform(-1.0, 1.0, 60)])
    sigma, weights = qrotor.raman._fold(shifts, TAU)
    assert np.array_equal(sigma, nodes)
    assert np.all(np.isfinite(weights))
    grid = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 401)
    want = qrotor.raman._folded_average(grid, OMEGA_R, TAU, *qrotor.raman._fold(shifts),
                                        order=2)
    got = qrotor.raman._folded_average(grid, OMEGA_R, TAU, sigma, weights, order=2)
    errors = np.max(np.abs(got - want), axis=1) / largest_terms(grid, TAU, shifts)
    assert np.all(errors <= 1e-13), errors


@pytest.mark.parametrize("tau_omega", [1e-3, np.pi, 20 * np.pi, 1e6],
                         ids=["1e-3", "pi", "20pi", "1e6"])
@pytest.mark.parametrize("j_max", [0, 9, 15, 30])
def test_stacks_of_few_distinct_shifts_stay_uncompressed(tau_omega, j_max):
    # up to 31 distinct shifts (the benchmark's calibrated stacks, j_max <= 30)
    # are fewer than one panel's 32 nodes
    shifts = quadratic(j_max, 0.7 * OMEGA_R / max(j_max, 1) ** 2)
    exact = qrotor.raman._fold(shifts)
    for got, want in zip(qrotor.raman._fold(shifts, tau_omega / OMEGA_R), exact):
        assert np.array_equal(got, want)


def test_the_shipped_stack_averages_over_one_panel_of_nodes(config_dir):
    job = parse_config(config_dir / "fig4_lineshape.json").lineshape
    tau = job.tau
    cal = calibrate_quadratic_scale(job.Omega_R, tau, job.j_max,
                                    job.calibrate_delta_max_over_OmegaR * job.Omega_R)
    shifts = ring_shifts("quadratic", job.j_max, cal.scale_s)
    assert qrotor.raman._fold(shifts)[0].size == 81
    assert qrotor.raman._fold(shifts, tau)[0].size == qrotor.raman._CHEB_NODES


def test_node_weights_sum_to_the_ring_count():
    shifts = quadratic(2000, 1.5e-6)
    sigma, weights = qrotor.raman._fold(shifts, TAU)
    assert sigma.size == qrotor.raman._CHEB_NODES
    assert weights.sum() == pytest.approx(shifts.size, rel=1e-14, abs=0)
    grid = np.linspace(-6 * OMEGA_R, 2 * OMEGA_R, 301)
    # the plain ring mean, dividing by 4,001 rings
    assert np.allclose(stack_average(grid, OMEGA_R, TAU, shifts),
                       naive_stack_average(grid, OMEGA_R, TAU, shifts), rtol=0.0, atol=1e-14)


def test_non_finite_shifts_are_refused():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="ring shifts must be finite"):
            stack_average(GRID, OMEGA_R, TAU, np.r_[quadratic(40, 1e-3), bad])
    # a finite span whose panels overflow keeps the exact fold
    shifts = quadratic(2000, 1e300)
    for got, want in zip(qrotor.raman._fold(shifts, TAU), qrotor.raman._fold(shifts)):
        assert np.array_equal(got, want)


def test_lineshape_bit_identical_at_every_worker_count():
    # 20,001 points x 64 Chebyshev nodes: 1.3M cells, split over real threads
    shifts = quadratic(2000, 2e-6 * OMEGA_R)
    grid = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 20_001)
    assert grid.size * qrotor.raman._fold(shifts, TAU)[0].size >= (
        3 * qrotor.raman._PARALLEL_CHUNK_CELLS)
    one, *more = (lineshape_from_rabi(OMEGA_R, TAU, shifts, grid, workers).probability
                  for workers in (1, 2, 3))
    for curve in more:
        assert np.array_equal(curve, one)


@pytest.mark.parametrize("j_max, points, workers, chunks", [
    pytest.param(2000, 33_001, 100_000, 24, id="2000-100000-24"),
    pytest.param(2000, 33_001, 2, 2, id="2000-2-2"),
    pytest.param(80, 1601, 100_000, 1, id="80-100000-1"),
    pytest.param(10, 1601, 2, 1, id="10-2-1"),
    pytest.param(2000, 1601, 2, 1, id="2000-1601-points-2-1")])
def test_grid_splits_only_into_chunks_that_pay_for_a_thread(monkeypatch, j_max, points,
                                                            workers, chunks):
    # cells are grid points x the shifts `_fold` averages over: the j_max
    # 2000 stack's 2,001 distinct shifts compress to 96 Chebyshev nodes (three
    # panels), so 33,001 points make 24 chunks of at least
    # _PARALLEL_CHUNK_CELLS however many workers are asked for, and the
    # shipped 1,601-point grid makes one (51K cells at 32 nodes per panel);
    # 81 shifts (32 nodes) or 11 distinct ones (the 21-ring stack) make one,
    # and parallel_map is asked for one worker per chunk, the threads it
    # starts.  The recorder maps on this thread, so no pool is started.
    handed = []

    def recording(fn, items, workers=1):
        handed.append((len(items), workers))
        return [fn(item) for item in items]

    monkeypatch.setattr(qrotor.raman, "parallel_map", recording)
    shifts = quadratic(j_max, 2.5e-6 * OMEGA_R)
    grid = np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, points)
    curve = lineshape_from_rabi(OMEGA_R, TAU, shifts, grid, workers).probability
    averaged = qrotor.raman._fold(shifts, TAU)[0].size
    assert handed == [(chunks, chunks)]
    assert chunks == min(workers, max(1, grid.size * averaged
                                      // qrotor.raman._PARALLEL_CHUNK_CELLS))
    assert np.array_equal(curve, stack_average(grid, OMEGA_R, TAU, shifts))


def test_stack_average_rejects_empty_stack():
    with pytest.raises(InvalidInputError, match="empty"):
        stack_average(GRID, OMEGA_R, TAU, np.array([]))
    with pytest.raises(InvalidInputError):
        lineshape_from_rabi(OMEGA_R, TAU, quadratic(-1, 1e-3), GRID)


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
    d_max, p_max = lineshape_peak(OMEGA_R, tau, quadratic(80, s))
    d_ref, p_ref = dense_peak(OMEGA_R, tau, s * np.arange(-80, 81) ** 2.0)
    assert d_max == pytest.approx(d_ref, abs=1e-6 * OMEGA_R)
    assert p_max == pytest.approx(p_ref, abs=1e-12)


def dense_oracle_peak(omega_r, tau, shifts, points=200_001):
    """The window's highest lobe from a dense naive scan of [-5, 1] Omega_R.

    Every sampled local maximum within 1e-6 of the best sample is a lobe
    (the samples miss a lobe's top by far less at these pulse areas).  An
    interior one is polished by a bounded scalar minimiser on the naive
    mean; a window edge keeps its sampled value.  The highest lobe wins, and
    lobes whose heights agree to LOBE_TIE_RTOL go to the lowest delta.
    """
    xs = np.linspace(-5.0 * omega_r, omega_r, points)
    ys = np.concatenate([naive_stack_average(part, omega_r, tau, shifts)
                         for part in np.array_split(xs, 50)])
    padded = np.r_[-np.inf, ys, -np.inf]
    local = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] > padded[2:])
    lobes = []
    for i in np.flatnonzero(local & (ys >= ys.max() - 1e-6)):
        if i in (0, points - 1):
            lobes.append((float(xs[i]), float(ys[i])))
            continue
        res = minimize_scalar(lambda d: -float(naive_stack_average(d, omega_r, tau, shifts)),
                              bounds=(xs[i - 1], xs[i + 1]), method="bounded",
                              options={"xatol": 1e-12 * omega_r})
        lobes.append((float(res.x), float(-res.fun)))
    top = max(p for _, p in lobes)
    return min((d, p) for d, p in lobes if p >= top * (1.0 - LOBE_TIE_RTOL))


def _s_max(j_max):
    return 3.0 * OMEGA_R / j_max**2


# shifts -s j^2 push the line to positive detuning
MIRRORED = -quadratic(12, 0.03 * _s_max(12))


@pytest.mark.parametrize("tau_omega, shifts", [
    (np.pi, quadratic(12, 0.1 * _s_max(12))),
    (np.pi, quadratic(12, 0.7 * _s_max(12))),
    (0.3, quadratic(12, 0.3 * _s_max(12))),
    (0.3, quadratic(12, _s_max(12))),
    (2 * np.pi, quadratic(12, 0.1 * _s_max(12))),
    (2 * np.pi, quadratic(12, 0.5 * _s_max(12))),    # the best lobe sits at +0.81
    (20.0, quadratic(12, 0.01 * _s_max(12))),
    (20.0, quadratic(12, 0.7 * _s_max(12))),
    # two lobes at -/+0.4348 and +0.4346 Omega_R that differ by 2e-11 in P
    (20.0, quadratic(80, 1e-4 * _s_max(80))),
    # the best lobe's top lies beyond the window: the peak is its +1 Omega_R edge
    (6.45, MIRRORED),
], ids=["pi-0.1", "pi-0.7", "0.3-0.3", "0.3-1", "2pi-0.1", "2pi-0.5", "20-0.01", "20-0.7",
        "20-jmax80-1e-4", "6.45-mirrored-edge"])
def test_peak_matches_a_dense_scan_oracle(tau_omega, shifts):
    tau = tau_omega / OMEGA_R
    d_max, p_max = lineshape_peak(OMEGA_R, tau, shifts)
    d_ref, p_ref = dense_oracle_peak(OMEGA_R, tau, shifts)
    assert d_max == pytest.approx(d_ref, abs=1e-6 * OMEGA_R)
    assert p_max == pytest.approx(p_ref, abs=1e-12)


def test_the_edge_case_is_a_cut_lobe():
    # guards the last oracle case: the window's best value is its right edge
    d_max, _ = lineshape_peak(OMEGA_R, 6.45 / OMEGA_R, MIRRORED)
    assert d_max == PEAK_WINDOW[1] * OMEGA_R


@pytest.mark.parametrize("shifts", [ring_shifts("none", 80), quadratic(80, 1e-6 * _s_max(80))],
                         ids=["unshifted", "1e-6 s_max"])
def test_tied_lobes_go_to_the_lowest_detuning(shifts):
    # a long pulse gives two lobes at +/- 0.4347 Omega_R; without shifts, or
    # with shifts too small to tell them apart, their heights agree to rounding
    tau = 20.0 / OMEGA_R
    d_max, p_max = lineshape_peak(OMEGA_R, tau, shifts)
    mirror = minimize_scalar(lambda d: -float(stack_average(d, OMEGA_R, tau, shifts)),
                             bounds=(-d_max - 1e-3 * OMEGA_R, -d_max + 1e-3 * OMEGA_R),
                             method="bounded", options={"xatol": 1e-12 * OMEGA_R})
    assert d_max / OMEGA_R == pytest.approx(-0.43474, abs=1e-5)
    assert abs(-float(mirror.fun) - p_max) <= LOBE_TIE_RTOL * p_max


def test_skew_matches_shift_sign():
    # positive quadratic shifts push ring resonances to negative detuning:
    # the left flank of the ensemble peak carries the extra weight
    s = 1.0e-3
    d_max, _ = lineshape_peak(OMEGA_R, TAU, quadratic(80, s))
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
        ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(80, s),
                                 np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
        widths.append(fit_lineshape(ls).Omega_R_eff)
    assert all(b >= a for a, b in zip(widths, widths[1:]))


def test_self_fit_recovers_exact_parameters():
    ls = lineshape_from_rabi(OMEGA_R, TAU, ring_shifts("none", 0), GRID)
    fit = fit_lineshape(ls)
    assert fit.amplitude_A == pytest.approx(1.0, abs=1e-6)
    assert fit.delta_0 == pytest.approx(0.0, abs=1e-6 * OMEGA_R)
    assert fit.Omega_R_eff == pytest.approx(OMEGA_R, rel=1e-6, abs=0)
    assert fit.rms_residual < 1e-8


@pytest.mark.parametrize("omega_r", [1e-50, 1e-30, 1e50])
def test_fit_constants_do_not_depend_on_the_unit_of_omega_r(omega_r):
    # the curve is the same in units of Omega_R at every scale; with unscaled
    # parameters the fit stopped after one step below ~1e-25 (A 0.696, not 0.667)
    def fit_in_units(om):
        ls = lineshape_from_rabi(om, np.pi / om, quadratic(12, 0.0144 * om),
                                 np.linspace(-8 * om, 8 * om, 1601))
        fit = fit_lineshape(ls)
        return fit.amplitude_A, fit.delta_0 / om, fit.Omega_R_eff / om

    assert fit_in_units(omega_r) == pytest.approx(fit_in_units(1.0), rel=1e-7, abs=0)


@pytest.mark.parametrize("j_max, edge, amplitude, width", [
    (5, 12.0, 0.191528, 5.0),       # width on the fit's upper bound
    (5, 20.0, 0.204908, 2.46625),
    (10, 40.0, 0.112741, 4.82874),
])
def test_fit_finds_the_lowest_basin_of_a_broadened_stack(j_max, edge, amplitude, width):
    # strongly broadened stacks: the three width starts land in different
    # minima (cost 2.81 vs 4.66 at j_max 5, edge 12); the 1.0 Omega_R start
    # alone ends in the other basin (A 0.318, 0.285 and 0.189), and so does
    # the half-width start alone at edge 20 (A 0.2852, cost 4.35 against
    # 3.25).  Each curve has three runs of points above half its maximum, so
    # the fit screens every start.
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(j_max, edge * OMEGA_R / j_max**2),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    fit = fit_lineshape(ls)
    assert fit.amplitude_A == pytest.approx(amplitude, rel=1e-4, abs=0)
    assert fit.Omega_R_eff / OMEGA_R == pytest.approx(width, rel=1e-4, abs=0)


def _counting(monkeypatch, name, module=qrotor.raman):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_fig4_fit_stops_at_the_printed_digits(monkeypatch):
    # one start read off the curve's half width, solved at 1e-15: 8
    # evaluations of the model and its slopes by the variable-projection
    # solver, which stops once a step predicts less than the cost's
    # rounding.  Scales within 2e-8 of the calibrated one take 8 each, and
    # scales within 10% of it 6 to 9, so 12 leaves a third of headroom.
    # Every solver evaluation goes through fit_model, so the count is never 0.
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 80, -0.5374 * OMEGA_R)
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(80, cal.scale_s),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    calls = _counting(monkeypatch, "fit_model")
    fit_lineshape(ls)
    assert 0 < len(calls) <= 12


def test_single_lobed_curve_is_fitted_from_its_half_width_alone(monkeypatch):
    # the calibrated j_max 12 stack's points above half its maximum form one
    # run: one solve from the half-width start, no screen
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 12, -0.3 * OMEGA_R)
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(12, cal.scale_s),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    calls = _counting(monkeypatch, "varpro", qrotor._varpro)
    fit_lineshape(ls)
    assert len(calls) == 1


def test_multi_lobed_curve_screens_every_start(monkeypatch):
    # j_max 5, edge 20 Omega_R: three runs above half maximum, so the
    # half-width start and the three width starts are screened, and the best
    # is polished
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(5, 20.0 * OMEGA_R / 25),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    calls = _counting(monkeypatch, "varpro", qrotor._varpro)
    fit_lineshape(ls)
    assert len(calls) == 5


def _calibration_counts(monkeypatch):
    """Whole `lineshape_peak` searches, and Newton steps: `_p0_terms` calls outside them.

    Each search takes one more `_p0_terms` call, for the slope at its peak,
    which the step count leaves out.
    """
    counts = {"searches": 0, "steps": 0}
    searching = []
    search, terms = qrotor.raman.lineshape_peak, qrotor.raman._p0_terms

    def counting_search(*args):
        counts["searches"] += 1
        counts["steps"] -= 1
        searching.append(None)
        try:
            return search(*args)
        finally:
            searching.pop()

    def counting_terms(*args):
        counts["steps"] += not searching
        return terms(*args)

    monkeypatch.setattr(qrotor.raman, "lineshape_peak", counting_search)
    monkeypatch.setattr(qrotor.raman, "_p0_terms", counting_terms)
    return counts


def test_saturated_calibration_searches_each_scale_once(monkeypatch):
    # three golden-section scales until the slope of delta_max turns, then
    # four joint Newton steps on the peak conditions and one search that
    # certifies their peak: 4 searches at j_max 12 (8 when every secant step
    # on the slope ran a search of its own, 16 with a bounded minimiser on
    # delta_max)
    counts = _calibration_counts(monkeypatch)
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 12, -0.6 * OMEGA_R)
    assert not cal.on_target
    assert counts == {"searches": 4, "steps": 4}
    assert (cal.delta_max, cal.P_max) == lineshape_peak(OMEGA_R, TAU, quadratic(12, cal.scale_s))


def test_calibration_target_passed_at_the_smallest_scale_is_refused():
    # delta_max at s = 1e-9 s_max is already below the target: no root to bracket
    with pytest.raises(CalibrationTargetError, match="smallest scale"):
        calibrate_quadratic_scale(OMEGA_R, TAU, 12, -1e-300 * OMEGA_R)


def test_one_ring_calibration_is_refused_before_any_peak_search(monkeypatch):
    # a single ring sits at j = 0, unshifted at every s: delta_max(s) is flat
    calls = _counting(monkeypatch, "lineshape_peak")
    with pytest.raises(CalibrationTargetError, match="does not move with s"):
        calibrate_quadratic_scale(OMEGA_R, TAU, 0, -0.5 * OMEGA_R)
    assert calls == []


@pytest.mark.parametrize("tau", [1e-300, 1e-150, 1e-6])
def test_flat_lineshape_has_no_peak_to_place(tau):
    # tau Omega_R below ~1e-4 leaves P0 flat to rounding over the window
    with pytest.raises(ConvergenceError, match="tau"):
        lineshape_peak(OMEGA_R, tau, quadratic(12, 1e-3))


def test_fit_requires_wide_grid():
    narrow = np.linspace(-2 * OMEGA_R, 2 * OMEGA_R, 401)
    ls = lineshape_from_rabi(OMEGA_R, TAU, ring_shifts("none", 0), narrow)
    with pytest.raises(InvalidInputError):
        fit_lineshape(ls)


def test_fit_model_peaks_at_amplitude():
    # pi-pulse convention: the trial profile's own resonance value equals A
    assert fit_model(0.5, 0.7, 0.5, 1.3 * OMEGA_R)[0] == pytest.approx(0.7, abs=1e-12)


def test_calibration_reaches_moderate_targets():
    target = -0.30 * OMEGA_R
    cal = calibrate_quadratic_scale(OMEGA_R, TAU, 80, target)
    assert cal.on_target
    assert cal.delta_max == pytest.approx(target, rel=1e-6, abs=0)
    d_check, _ = lineshape_peak(OMEGA_R, TAU, quadratic(80, cal.scale_s))
    assert d_check == pytest.approx(target, rel=1e-6, abs=0)


def test_calibration_root_asks_only_for_resolved_digits(monkeypatch):
    # delta_max(s) is resolved to ~sqrt(eps) Omega_R; a root finder asked for
    # more bisects through rounding noise.  Measured at j_max 12: a
    # root-found target takes 1 or 2 golden-section searches until one
    # passes it, 6 to 8 Newton steps on <P0'> at the target (two of them the
    # bracket's ends) and the certifying search; the saturated one 4 searches
    # and 4 steps.  Before, every step was a whole search: 8 saturated, 14.3
    # root-found on average.  Each count is bounded for every calibration.
    counts = _calibration_counts(monkeypatch)
    for fraction in (-0.30, -0.35, -0.40, -0.45, -0.50, -0.60):
        counts.update(searches=0, steps=0)
        cal = calibrate_quadratic_scale(OMEGA_R, TAU, 12, fraction * OMEGA_R)
        assert cal.on_target == (fraction > -0.53)
        if cal.on_target:
            assert abs(cal.delta_max - cal.target_delta_max) <= 1e-7 * OMEGA_R
        assert 2 <= counts["searches"] <= 4
        assert 4 <= counts["steps"] <= 9


@pytest.mark.parametrize("tau", [1e-4, 1e-3, TAU])
def test_on_target_calibration_lands_within_the_stated_bound(tau):
    # the peak is flat over P0's width, pi / tau for a pulse shorter than
    # pi / Omega_R, so rounding places delta_max to sqrt(eps) of that width
    width = max(min(OMEGA_R, 2 * np.pi / tau), np.pi / tau)
    cal = calibrate_quadratic_scale(OMEGA_R, tau, 12, -0.5 * OMEGA_R)
    assert cal.on_target
    assert abs(cal.delta_max - cal.target_delta_max) <= 4 * np.sqrt(np.finfo(float).eps) * width


def _resolution(tau):
    """sqrt(eps) of P0's width, to which rounding places a flat peak."""
    return np.sqrt(np.finfo(float).eps) * max(min(OMEGA_R, 2 * np.pi / tau), np.pi / tau)


def _xtol(j_max, tau):
    """The calibration's tolerance in s: its resolution over <j^2>."""
    return _resolution(tau) / (j_max * (j_max + 1) / 3)


# the stacks and pulses of the agreement test; at tau Omega_R = 3 pi a stack
# of 3 or 5 rings moves its peak by jumps (test_lobe_hopping_...), so those
# are left to their own test
AGREEMENT_CASES = [(j_max, area * np.pi / OMEGA_R, (-0.30, -0.40, -0.50, -0.55, -0.60, -0.70))
                   for area in (0.5, 1.0, 3.0)
                   for j_max in (1, 2, *range(9, 31), 80, 161)
                   if not (area == 3.0 and j_max <= 2)]
AGREEMENT_CASES += [(12, tau, (-0.5,)) for tau in (1e-4, 1e-3)]


@pytest.mark.parametrize("j_max, tau, targets", AGREEMENT_CASES,
                         ids=[f"{j}-{t * OMEGA_R:.3g}" for j, t, _ in AGREEMENT_CASES])
def test_calibration_agrees_with_nested_peak_searches(j_max, tau, targets):
    # the Newton steps between whole searches land where a whole search at
    # every step does: the same branch, s within 2 xtol (1.0 measured), and
    # the reported peak is the whole search at the returned scale
    for fraction in targets:
        target = fraction * OMEGA_R
        cal = calibrate_quadratic_scale(OMEGA_R, tau, j_max, target)
        nested = nested_calibration(OMEGA_R, tau, j_max, target)
        assert cal.on_target == nested.on_target, fraction
        assert abs(cal.scale_s - nested.scale_s) <= 2 * _xtol(j_max, tau), fraction
        searched = lineshape_peak(OMEGA_R, tau, quadratic(j_max, cal.scale_s))
        assert (cal.delta_max, cal.P_max) == searched, fraction
        if cal.on_target:
            assert abs(cal.delta_max - target) <= 4 * _resolution(tau), fraction


@pytest.mark.parametrize("j_max", [1, 2])
def test_lobe_hopping_calibration_is_on_target_or_refused(j_max):
    # at tau Omega_R = 3 pi the peak of 3 or 5 rings jumps from lobe to lobe
    # as s grows, and delta_max(s) has gaps that no Newton step crosses.
    # Every peak reported is on target; a target in a gap, or an extremum at
    # a jump, exits as ConvergenceError.  The nested searches reported j_max
    # 1 at -0.6 Omega_R as on target with its peak at -1.134, and j_max 2 at
    # -0.3 as saturated at -0.204, though s = 0.19 s_max places it.
    tau = 3 * np.pi / OMEGA_R
    outcomes = []
    for fraction in (-0.30, -0.40, -0.50, -0.60, -0.70):
        try:
            cal = calibrate_quadratic_scale(OMEGA_R, tau, j_max, fraction * OMEGA_R)
        except ConvergenceError as err:
            assert "quadratic-scale calibration did not converge" in str(err)
            outcomes.append(None)
            continue
        assert cal.on_target
        assert abs(cal.delta_max - fraction * OMEGA_R) <= 4 * _resolution(tau)
        searched = lineshape_peak(OMEGA_R, tau, quadratic(j_max, cal.scale_s))
        assert (cal.delta_max, cal.P_max) == searched
        outcomes.append(fraction)
    assert outcomes == {1: [-0.30, -0.40, -0.50, None, None],
                        2: [-0.30, -0.40, -0.50, -0.60, None]}[j_max]


@pytest.mark.parametrize("target", [-0.4, -0.6], ids=["root-found", "saturated"])
def test_calibration_refuses_a_certifying_search_off_the_newton_peak(monkeypatch, target):
    # the whole search at the final scale certifies the Newton peak: one that
    # lands 1e-3 Omega_R away from it is a convergence failure, not a result
    final = quadratic(12, calibrate_quadratic_scale(OMEGA_R, TAU, 12, target * OMEGA_R).scale_s)
    search = qrotor.raman.lineshape_peak

    def displaced(omega_r, tau, shifts):
        d_max, p_max = search(omega_r, tau, shifts)
        return d_max + (1e-3 * omega_r if np.array_equal(shifts, final) else 0.0), p_max

    monkeypatch.setattr(qrotor.raman, "lineshape_peak", displaced)
    with pytest.raises(ConvergenceError, match="searched peak"):
        calibrate_quadratic_scale(OMEGA_R, TAU, 12, target * OMEGA_R)


def test_saturated_newton_that_does_not_converge_is_refused(monkeypatch):
    # the j_max 12 extremum takes 4 joint Newton steps; capped at 2 they do
    # not converge, which is a convergence failure, not the last iterate
    monkeypatch.setattr(qrotor.raman, "_EXTREMUM_NEWTON_STEPS", 2)
    with pytest.raises(ConvergenceError, match="2 Newton steps"):
        calibrate_quadratic_scale(OMEGA_R, TAU, 12, -0.6 * OMEGA_R)


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
    quad = quadratic(5, 1e-3)
    assert quad[0] == quad[-1] == 1e-3 * 25

    phys = ring_shifts("physical", 5, None, fig_beam, LI6, 25)
    assert phys[5] == 0.0  # ring 0 defines the reference
    # rings sit at z = (j + 1/2) lambda/2 for z0 = lambda/4, so to leading
    # order shift_j ~ (j + 1/2)^2 - 1/4: the j=5 to j=1 ratio is 15
    eta = 2 * fig_beam.phase_z0 / fig_beam.wavelength
    expected = ((5 + eta) ** 2 - eta**2) / ((1 + eta) ** 2 - eta**2)
    assert phys[-1] / phys[6] == pytest.approx(expected, rel=1e-3, abs=0)


def test_broadened_fit_center_differs_from_peak():
    # the broadened curve is asymmetric: the least-squares center d0 sits
    # measurably deeper than the true maximum
    s = 1.05e-3
    d_max, _ = lineshape_peak(OMEGA_R, TAU, quadratic(80, s))
    ls = lineshape_from_rabi(OMEGA_R, TAU, quadratic(80, s),
                             np.linspace(-8 * OMEGA_R, 8 * OMEGA_R, 1601))
    fit = fit_lineshape(ls)
    assert abs(fit.delta_0 - d_max) > 0.05 * OMEGA_R
    assert fit.delta_0 < d_max < 0.0


def test_lineshape_grid_validation():
    with pytest.raises(InvalidInputError):
        Lineshape(delta_grid=np.array([1.0, 0.5]), probability=np.array([0.1, 0.2]),
                  Omega_R=1.0)
    with pytest.raises(InvalidInputError):
        Lineshape(delta_grid=np.array([0.0, 1.0]), probability=np.array([0.1, 1.7]),
                  Omega_R=1.0)
