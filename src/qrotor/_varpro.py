"""Separable nonlinear least squares by variable projection, on one basis function.

Minimises 0.5 ||c Phi(theta) - y||^2 over a box on theta, where the model is
linear in its one coefficient c (Golub & Pereyra, SIAM J. Numer. Anal. 10,
413 (1973)).  At each theta, c = <Phi, y> / <Phi, Phi>, optionally clipped to
a box.  The residual then depends on theta alone; its Kaufman Jacobian P
(dPhi/dtheta) c, P the projector off Phi, gives the exact gradient (Kaufman,
BIT 15, 49 (1975)).  When c is clipped, c is held and the plain Jacobian
(dPhi/dtheta) c is used instead.

theta moves by damped Newton steps in units of ``scale`` (Levenberg-Marquardt
with Nielsen's damping update).  The Hessian is the Gauss-Newton J^T J plus a
structured secant estimate of the residual-curvature term sum_i r_i Hess(r_i)
(Dennis, Gay & Welsch, ACM Trans. Math. Softw. 7, 348 (1981)): the lineshape
family does not contain the broadened line, so its residual is large, and
Gauss-Newton alone converges only linearly there (about 0.6 per step on
fig4, 68 evaluations against 31 with the secant term).  A coordinate on a
face of the box whose descent direction leaves the box is held there; the
step of the others is clipped to the box, and a clipped step that is not
downhill is damped further before it is tried.  A step that the model does
not predict to lower the cost is damped without being evaluated.

A fit ends at the cost's rounding floor: an unclipped trial step that
predicts a reduction of at most 4 eps of the cost stops it, before the step
is evaluated, since the cost's rounding cannot show so small a change (the
"no further reduction in the sum of squares is possible" of MINPACK; J. J.
More, Lecture Notes in Math. 630 (1978)).  On the lineshape fits this ends a
third of the evaluations early, once the cost has stopped moving, and leaves
the parameters where the cost no longer tells them apart (~1e-8 relative).
A clipped step is always evaluated: the box, not the minimum, made its
prediction small, and the coordinates left free may still have far to go.

Each evaluation's block holds k + 2 rows: Phi, its k derivative rows dPhi,
which the basis writes in place, and a row that holds y and then the
residual r = c Phi - y.  Every sum over the samples comes from that block in
two passes: [Phi; dPhi; y] against [Phi; dPhi] (<Phi, Phi> and <Phi, y> give
c, the rest J J^T), then [Phi; dPhi; r] against r (the cost and J r).  The
Jacobian is never formed: its rows, J_i = c dPhi_i - b_i Phi with Kaufman's
b_i = c <Phi, dPhi_i> / <Phi, Phi> (0 when c is clipped), are coefficients
over the block, so J r and J J^T are small products of those sums, and the
old Jacobian at the new residual, which gives the secant its change of the
Jacobian, is one more pass of the old block against the new r.  A fit keeps
two blocks, the evaluation at the current theta and the trial.  The passes
are BLAS products over blocks of _SAMPLE_BLOCK samples, which OpenBLAS keeps
on the calling thread (CPU/wall 1.00 on Rabi traces of 31,784 and 65,848
samples; an unblocked 5 x 4 product of 65,848 samples took 4x as long); a
4 x 3 block of sums over 1,601 samples takes 3.7 us so, against 11.4 us as
an einsum.  The k x k damped Newton system and the secant update (k <= 2 in
both fits) run on Python floats.  A zero or non-finite <Phi, Phi> leaves c
NaN, and so the cost: the fit fails when that happens at its start, and a
trial step that meets it is rejected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Evaluations of the basis after which a fit gives up.
MAX_NFEV = 2000
# Sums over the samples run as BLAS products over blocks of this many
# samples, each small enough for OpenBLAS to keep on the calling thread.
_SAMPLE_BLOCK = 2**13


@dataclass(frozen=True)
class Solution:
    theta: np.ndarray
    coef: float
    residual: np.ndarray   # c Phi - y
    cost: float            # 0.5 |residual|^2
    nfev: int
    success: bool


def _sums(a, b) -> np.ndarray:
    """a b^T: every inner product of a row of ``a`` with a row of ``b``."""
    total = a[:, :_SAMPLE_BLOCK] @ b[:, :_SAMPLE_BLOCK].T
    for start in range(_SAMPLE_BLOCK, a.shape[1], _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        total += a[:, block] @ b[:, block].T
    return total


def _vdot(a, b) -> float:
    return sum(map(operator.mul, a, b))


def _quad(v, a) -> float:
    """v^T a v for a small matrix ``a``, given as rows."""
    return _vdot([_vdot(v, col) for col in zip(*a)], v)


def _solve(a, b):
    """x with a x = b for a small matrix ``a`` (rows of floats).

    Gaussian elimination with partial pivoting; None when ``a`` is singular or
    a pivot is not finite.
    """
    rows = [[*row, rhs] for row, rhs in zip(a, b)]
    n = len(rows)
    for col in range(n):
        best = max(range(col, n), key=lambda r: abs(rows[r][col]))
        rows[col], rows[best] = rows[best], rows[col]
        top = rows[col]
        pivot = top[col]
        if pivot == 0.0 or not math.isfinite(pivot):
            return None
        for r in range(col + 1, n):
            f = rows[r][col] / pivot
            rows[r] = [x - f * p for x, p in zip(rows[r], top)]
    x = [0.0] * n
    for r in reversed(range(n)):
        x[r] = (rows[r][n] - _vdot(rows[r][r + 1 : n], x[r + 1 :])) / rows[r][r]
    return x


@dataclass
class _Evaluation:
    rows: np.ndarray    # the basis row Phi, its k derivative rows dPhi, r
    coef: float         # clipped to the coefficient box
    unclipped: bool
    gram: list          # [Phi; dPhi] [Phi; dPhi]^T
    dots: list          # [Phi; dPhi; r] r
    cost: float


@np.errstate(invalid="ignore", over="ignore")
def _project(basis, theta, y, rows, coef_bounds) -> _Evaluation:
    """Evaluate ``basis`` at ``theta`` against ``y`` in the block ``rows``.

    The basis writes Phi and dPhi into ``rows[:-1]``, and the last row is
    filled with the residual r = c Phi - y.  A non-finite basis leaves NaN
    sums without a warning: `varpro` fails or rejects the step on them.
    """
    basis(theta, rows[:-1])
    rows[-1] = y   # until the residual is written: y [Phi; dPhi]^T with the Gram matrix
    *gram, y_sums = _sums(rows, rows[:-1]).tolist()
    phi_phi = gram[0][0]
    coef = y_sums[0] / phi_phi if phi_phi != 0.0 and math.isfinite(phi_phi) else math.nan
    held = min(max(coef, coef_bounds[0]), coef_bounds[1])
    residual = rows[-1]
    np.multiply(rows[0], held, out=residual)
    residual -= y
    dots = _sums(rows, rows[-1:])[:, 0].tolist()
    return _Evaluation(rows, held, held == coef, gram, dots, 0.5 * dots[-1])


def _jacobian(ev: _Evaluation, k: int) -> list:
    """Kaufman's Jacobian (the plain one when c is clipped) as coefficients.

    Row i holds the coefficients of J_i over the rows [Phi; dPhi]: c on
    dPhi_i and -b_i on Phi, b_i = c <Phi, dPhi_i> / <Phi, Phi> (b_i = 0 when
    c is clipped).
    """
    c, gram = ev.coef, ev.gram
    jac = []
    for i in range(k):
        row = [0.0] * (k + 1)
        row[1 + i] = c
        if ev.unclipped:
            row[0] = -c * gram[1 + i][0] / gram[0][0]
        jac.append(row)
    return jac


def _secant(second, step, dgrad, dgrad_jac):
    """Update of the estimate `second` of sum_i r_i Hess(r_i) after `step`.

    `dgrad` is the change of the gradient over the step and `dgrad_jac` the
    part of it that the change of the Jacobian makes at the new residual.
    The estimate is first shrunk where it overstates the curvature seen.
    """
    curvature = _quad(step, second)
    if curvature != 0.0:
        shrink = min(1.0, abs(_vdot(step, dgrad_jac)) / abs(curvature))
        second = [[shrink * x for x in row] for row in second]
    ys = _vdot(dgrad, step)
    if ys <= 0.0:
        return second
    v = [g - _vdot(row, step) for g, row in zip(dgrad_jac, second)]
    vs = _vdot(v, step)
    return [[s + (vi * gj + gi * vj) / ys - vs * (gi * gj) / ys**2
             for s, vj, gj in zip(row, v, dgrad)]
            for row, vi, gi in zip(second, v, dgrad)]


def varpro(basis, y, theta0, lower, upper, scale, tol,
           coef_bounds=(-np.inf, np.inf)) -> Solution:
    """Fit ``c Phi(theta)`` to ``y`` from ``theta0``.

    ``basis(theta, out)`` writes Phi, sampled at y's points, into ``out[0]``
    and its derivative in the i-th of the k coordinates of theta into
    ``out[1 + i]``; ``out`` is a (k + 1, len(y)) view of the evaluation's
    block.  Stops, successfully, when the cost is at rounding level (an
    exact fit), when every free gradient component is below ``tol``, when a
    step is below ``tol`` relative to the scaled theta, when an accepted
    step lowers the cost by less than ``tol`` of it, or when an unclipped
    trial step predicts a reduction of at most 4 eps of the cost (the
    rounding floor).  It fails after MAX_NFEV evaluations of ``basis``,
    on a non-finite cost or Jacobian, or on a singular damped Newton system.
    """
    k = len(theta0)
    scale = np.asarray(scale, dtype=float) * np.ones(k)
    lo, hi = np.asarray(lower) / scale, np.asarray(upper) / scale
    u = np.clip(np.asarray(theta0, dtype=float) / scale, lo, hi).tolist()
    scale, lo, hi = scale.tolist(), lo.tolist(), hi.tolist()

    def at(v):
        return np.array([vi * s for vi, s in zip(v, scale)])

    # two blocks of rows: the evaluation at u and the trial
    rows, spare = np.empty((2, k + 2, len(y)))
    ev = _project(basis, at(u), y, rows, coef_bounds)
    cost, nfev, mu, nu = ev.cost, 1, None, 2.0
    second = [[0.0] * k for _ in range(k)]
    eps = np.finfo(float).eps
    floor = (4.0 * eps) ** 2 * float(np.dot(y, y))

    def done(success):
        return Solution(at(u), ev.coef, ev.rows[-1], cost, nfev, success)

    while math.isfinite(cost):
        jac = _jacobian(ev, k)
        # J r in the units of u (a row of jac stops before the r r of dots)
        grad = [s * _vdot(row, ev.dots) for s, row in zip(scale, jac)]
        if not all(map(math.isfinite, grad)):
            # with a finite residual, J^T r is finite only if J is
            return done(False)
        free = [not ((ui <= l and g > 0) or (ui >= h and g < 0))
                for ui, l, h, g in zip(u, lo, hi, grad)]
        if cost <= floor or not any(f and abs(g) > tol for f, g in zip(free, grad)):
            return done(True)
        if mu is not None:
            second = _secant(second, step, [g - lg for g, lg in zip(grad, last_grad)],
                             [g - lg for g, lg in zip(grad, last_jac_r)])
        # J J^T from the Gram matrix of [Phi; dPhi], plus the secant term
        gram_jac = [[_vdot(row, g) for g in ev.gram] for row in jac]
        hessian = [[si * sj * _vdot(row, gj) + s for sj, gj, s in zip(scale, gram_jac, srow)]
                   for si, row, srow in zip(scale, jac, second)]
        if mu is None:   # `second` is still 0
            mu = 1e-3 * max(hessian[i][i] for i in range(k))
        # held coordinates get a zero step: only the free ones are solved for
        idx = [i for i in range(k) if free[i]]
        while True:
            x = _solve([[hessian[i][j] + (mu if i == j else 0.0) for j in idx] for i in idx],
                       [-grad[i] for i in idx])
            if x is None:
                return done(False)
            step = [0.0] * k
            for i, xi in zip(idx, x):
                step[i] = xi
            moved = [ui + si for ui, si in zip(u, step)]
            trial = [min(max(v, l), h) for v, l, h in zip(moved, lo, hi)]
            step = [t - ui for t, ui in zip(trial, u)]
            if trial != moved and _vdot(step, grad) >= 0:
                # `second` can make the system indefinite, and a step out of a
                # face then clips to nothing: damp until the step is downhill
                mu, nu = mu * nu, 2.0 * nu
                continue
            if math.sqrt(_vdot(step, step)) <= tol * (tol + math.sqrt(_vdot(u, u))):
                return done(True)
            predicted = -(_vdot(step, grad) + 0.5 * _quad(step, hessian))
            if predicted > 0.0:
                if trial == moved and predicted <= 4.0 * eps * cost:
                    # the cost cannot show a reduction this small over its rounding
                    return done(True)
                if nfev >= MAX_NFEV:
                    return done(False)
                new = _project(basis, at(trial), y, spare, coef_bounds)
                nfev += 1
                gain = (cost - new.cost) / predicted
                if gain > 0:
                    break
            # a step the model does not predict to go down is damped unevaluated
            mu, nu = mu * nu, 2.0 * nu
        # the secant's old Jacobian at the new residual
        old_dots = _sums(ev.rows[:-1], new.rows[-1:])[:, 0].tolist()
        last_jac_r = [s * _vdot(row, old_dots) for s, row in zip(scale, jac)]
        reduction, old_cost = cost - new.cost, cost
        last_grad, u, cost = grad, trial, new.cost
        spare, ev = ev.rows, new
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        if reduction <= tol * old_cost and gain > 0.25:
            return done(True)
    return done(False)
