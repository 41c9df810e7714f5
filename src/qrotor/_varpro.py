"""Separable nonlinear least squares by variable projection.

Minimises 0.5 ||c Phi(theta) - y||^2 over a box on theta, where the model is
linear in its coefficients c (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)).  At each theta, c solves the small linear least-squares problem
through its normal equations (the bases here have one or two well-conditioned
functions), optionally clipped to a box.  The residual then depends on theta
alone; its Kaufman Jacobian P (dPhi/dtheta) c, P the projector off the basis
functions, gives the exact gradient.  When c is clipped, c is held and the
plain Jacobian (dPhi/dtheta) c is used instead.

theta moves by damped Newton steps in units of ``scale`` (Levenberg-Marquardt
with Nielsen's damping update).  The Hessian is the Gauss-Newton J^T J plus a
structured secant estimate of the residual-curvature term sum_i r_i Hess(r_i)
(Dennis, Gay & Welsch, ACM Trans. Math. Softw. 7, 348 (1981)): the lineshape
family does not contain the broadened line, so its residual is large, and
Gauss-Newton alone converges only linearly there (about 0.6 per step on
fig4, 68 evaluations against 31 with the secant term).  A coordinate on a
face of the box whose descent direction leaves the box is held there; the
step of the others is clipped to the box, and a clipped step that is not
downhill is damped further before it is tried.

An evaluation makes only the passes over the samples that its algebra needs,
and no temporary as long as the samples (bar one per extra basis function):
the residual c Phi - y is written into a buffer, and the rows of the Jacobian
into buffers of their own, once per accepted step.  Every sum over the
samples (the Gram matrix Phi Phi^T, Phi y, the cost, J Phi^T, J r, J J^T,
and the old Jacobian at the new residual, which gives the secant its change
of the Jacobian) is an einsum over these rows: one pass per inner product,
on the calling thread, with one call for all rows of J.  As BLAS products,
OpenBLAS threads them from about 10,000 points, and a fit of a 31,000-sample
trace then ran at CPU/wall 1.87 and no faster than on one thread.  The n x n
normal equations, the k x k damped Newton system and the secant update
(n, k <= 2 in both fits) run on Python floats.  A singular or non-finite
Gram matrix leaves c NaN, and so the cost: the fit fails when that happens
at its start, and a trial step that meets it is rejected.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Evaluations of the basis after which a fit gives up.
MAX_NFEV = 2000


@dataclass(frozen=True)
class Solution:
    theta: np.ndarray
    coef: np.ndarray
    residual: np.ndarray   # c Phi - y
    cost: float            # 0.5 |residual|^2
    nfev: int
    success: bool


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
    coef: list          # clipped to the coefficient box
    unclipped: bool
    gram: list
    phi: np.ndarray
    dphi: np.ndarray
    cost: float


def _project(basis, y, theta, coef_bounds, residual) -> _Evaluation:
    """Evaluate at ``theta``; ``residual`` is filled with c Phi - y."""
    phi, dphi = basis(theta)   # (n, m), one basis function per row, and (k, n, m)
    n = len(phi)
    gram = np.einsum("im,jm->ij", phi, phi).tolist()
    coef = _solve(gram, np.einsum("im,m->i", phi, y).tolist()) or [math.nan] * n
    held = [min(max(c, coef_bounds[0]), coef_bounds[1]) for c in coef]
    np.multiply(phi[0], held[0], out=residual)
    for c, row in zip(held[1:], phi[1:]):
        residual += c * row
    residual -= y
    cost = 0.5 * float(np.einsum("m,m", residual, residual))
    return _Evaluation(held, held == coef, gram, phi, dphi, cost)


def _jacobian(ev: _Evaluation, jac, scratch):
    """Kaufman's Jacobian (the plain one when c is clipped) into the rows of ``jac``."""
    for row, drows in zip(jac, ev.dphi):
        np.multiply(drows[0], ev.coef[0], out=row)
        for c, d in zip(ev.coef[1:], drows[1:]):
            row += np.multiply(d, c, out=scratch)
    if ev.unclipped:
        for row, along in zip(jac, np.einsum("km,im->ki", jac, ev.phi).tolist()):
            for b, p in zip(_solve(ev.gram, along), ev.phi):
                row -= np.multiply(p, b, out=scratch)


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
    """Fit ``c basis(theta)[0]`` to ``y`` from ``theta0``.

    ``basis(theta)`` returns the basis functions sampled at y's points,
    shape (n, m), and their derivatives in each of the k coordinates of
    theta, shape (k, n, m).  Stops, successfully, when the cost is at
    rounding level (an exact fit), when every free gradient component is
    below ``tol``, when a step is below ``tol`` relative to the scaled theta,
    or when an accepted step lowers the cost by less than ``tol`` of it.  It
    fails after MAX_NFEV evaluations of ``basis``, on a non-finite cost or
    Jacobian, or on a singular damped Newton system.
    """
    k = len(theta0)
    scale = np.asarray(scale, dtype=float) * np.ones(k)
    lo, hi = np.asarray(lower) / scale, np.asarray(upper) / scale
    u = np.clip(np.asarray(theta0, dtype=float) / scale, lo, hi).tolist()
    scale, lo, hi = scale.tolist(), lo.tolist(), hi.tolist()
    residual, spare, jac = np.empty(len(y)), np.empty(len(y)), np.empty((k, len(y)))

    def at(v):
        return np.array([vi * s for vi, s in zip(v, scale)])

    def jac_dot(r):   # J r, in the units of u
        return [s * g for s, g in zip(scale, np.einsum("km,m->k", jac, r).tolist())]

    ev = _project(basis, y, at(u), coef_bounds, residual)
    cost, nfev, mu, nu = ev.cost, 1, None, 2.0
    second = [[0.0] * k for _ in range(k)]
    floor = (4.0 * np.finfo(float).eps) ** 2 * float(np.einsum("m,m", y, y))

    def done(success):
        return Solution(at(u), np.array(ev.coef), residual, cost, nfev, success)

    while math.isfinite(cost):
        # spare holds a residual no longer needed: it is the scratch row
        _jacobian(ev, jac, spare)
        grad = jac_dot(residual)
        if not all(map(math.isfinite, grad)):
            # with a finite residual, J^T r is finite only if J is
            return done(False)
        free = [not ((ui <= l and g > 0) or (ui >= h and g < 0))
                for ui, l, h, g in zip(u, lo, hi, grad)]
        if cost <= floor or not any(f and abs(g) > tol for f, g in zip(free, grad)):
            return done(True)
        hessian = [[si * sj * h for sj, h in zip(scale, row)]
                   for si, row in zip(scale, np.einsum("km,jm->kj", jac, jac).tolist())]
        if mu is None:
            mu = 1e-3 * max(hessian[i][i] for i in range(k))
        else:
            second = _secant(second, step, [g - lg for g, lg in zip(grad, last_grad)],
                             [g - lg for g, lg in zip(grad, last_jac_r)])
        hessian = [[h + s for h, s in zip(row, srow)] for row, srow in zip(hessian, second)]
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
            if nfev >= MAX_NFEV:
                return done(False)
            predicted = -(_vdot(step, grad) + 0.5 * _quad(step, hessian))
            new = _project(basis, y, at(trial), coef_bounds, spare)
            nfev += 1
            gain = (cost - new.cost) / predicted if predicted > 0 else -1.0
            if gain > 0:
                break
            mu, nu = mu * nu, 2.0 * nu
        # the secant's old Jacobian at the new residual, before jac is rewritten
        last_jac_r = jac_dot(spare)
        reduction, old_cost = cost - new.cost, cost
        last_grad, u, ev, cost = grad, trial, new, new.cost
        residual, spare = spare, residual
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        if reduction <= tol * old_cost and gain > 0.25:
            return done(True)
    return done(False)
