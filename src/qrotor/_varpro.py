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

The sums over the sample points in the iteration (the cost, the gradient,
the Gauss-Newton Hessian and the secant's change of the Jacobian) run in
einsum, on the calling thread.  As BLAS products, OpenBLAS threads them from
about 10,000 points, and a fit of a 31,000-sample trace then ran at CPU/wall
1.87 and no faster than on one thread.
"""

from __future__ import annotations

import math
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


def _project(basis, y, theta, coef_bounds):
    phi, dphi = basis(theta)   # (n, m), one basis function per row, and (k, n, m)
    gram_inv = np.linalg.inv(phi @ phi.T)
    coef = gram_inv @ (phi @ y)
    held = np.clip(coef, *coef_bounds)
    jac = held @ dphi          # (k, m)
    if np.array_equal(held, coef):
        jac -= ((jac @ phi.T) @ gram_inv) @ phi
    residual = held @ phi - y
    return held, residual, 0.5 * float(np.einsum("m,m", residual, residual)), jac


def _secant(second, step, dgrad, dgrad_jac):
    """Update of the estimate `second` of sum_i r_i Hess(r_i) after `step`.

    `dgrad` is the change of the gradient over the step and `dgrad_jac` the
    part of it that the change of the Jacobian makes at the new residual.
    The estimate is first shrunk where it overstates the curvature seen.
    """
    curvature = step @ second @ step
    if curvature != 0.0:
        second = second * min(1.0, abs(step @ dgrad_jac) / abs(curvature))
    ys = dgrad @ step
    if ys <= 0.0:
        return second
    v = dgrad_jac - second @ step
    return (second + (np.outer(v, dgrad) + np.outer(dgrad, v)) / ys
            - (v @ step) * np.outer(dgrad, dgrad) / ys**2)


def varpro(basis, y, theta0, lower, upper, scale, tol,
           coef_bounds=(-np.inf, np.inf)) -> Solution:
    """Fit ``c basis(theta)[0]`` to ``y`` from ``theta0``.

    ``basis(theta)`` returns the basis functions sampled at y's points,
    shape (n, m), and their derivatives in each of the k coordinates of
    theta, shape (k, n, m).  Stops, successfully, when the cost is at
    rounding level (an exact fit), when every free gradient component is
    below ``tol``, when a step is below ``tol`` relative to the scaled theta,
    or when an accepted step lowers the cost by less than ``tol`` of it.  It
    fails after MAX_NFEV evaluations of ``basis`` or on a non-finite
    cost or Jacobian.
    """
    scale = np.asarray(scale, dtype=float) * np.ones(len(theta0))
    lo, hi = np.asarray(lower) / scale, np.asarray(upper) / scale
    u = np.clip(np.asarray(theta0, dtype=float) / scale, lo, hi)
    coef, residual, cost, jac = _project(basis, y, u * scale, coef_bounds)
    nfev, mu, nu = 1, None, 2.0
    second = np.zeros((u.size, u.size))
    floor = (4.0 * np.finfo(float).eps) ** 2 * float(np.einsum("m,m", y, y))

    def done(success):
        return Solution(u * scale, coef, residual, cost, nfev, success)

    while math.isfinite(cost) and np.isfinite(jac).all():
        jac_u = jac * scale[:, None]
        grad = np.einsum("km,m->k", jac_u, residual)
        free = ~(((u <= lo) & (grad > 0)) | ((u >= hi) & (grad < 0)))
        if cost <= floor or not (np.abs(grad[free]) > tol).any():
            return done(True)
        hessian = np.einsum("km,jm->kj", jac_u, jac_u)
        if mu is None:
            mu = 1e-3 * hessian.diagonal().max()
        else:
            second = _secant(second, step, grad - last_grad,
                             np.einsum("km,m->k", jac_u - last_jac_u, residual))
        hessian += second
        # held coordinates get a zero step: their rows and columns drop out
        reduced = hessian * np.outer(free, free)
        while True:
            step = np.linalg.solve(reduced + np.diag(np.where(free, mu, 1.0)), -grad * free)
            trial = np.clip(u + step, lo, hi)
            clipped = not np.array_equal(trial, u + step)
            step = trial - u
            if clipped and step @ grad >= 0:
                # `second` can make the system indefinite, and a step out of a
                # face then clips to nothing: damp until the step is downhill
                mu, nu = mu * nu, 2.0 * nu
                continue
            if math.sqrt(step @ step) <= tol * (tol + math.sqrt(u @ u)):
                return done(True)
            if nfev >= MAX_NFEV:
                return done(False)
            predicted = -(step @ grad + 0.5 * step @ hessian @ step)
            new = _project(basis, y, trial * scale, coef_bounds)
            nfev += 1
            gain = (cost - new[2]) / predicted if predicted > 0 else -1.0
            if gain > 0:
                break
            mu, nu = mu * nu, 2.0 * nu
        reduction, old_cost = cost - new[2], cost
        last_grad, last_jac_u = grad, jac_u
        u = trial
        coef, residual, cost, jac = new
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3), 2.0
        if reduction <= tol * old_cost and gain > 0.25:
            return done(True)
    return done(False)
