"""Five-level Raman ladder and its reduction to the effective two-level drive.

Basis (all rotor states share n_z = n_r = 0):

    |0>  lower hyperfine manifold, m_ell = 0
    |1>  lower hyperfine manifold, symmetric (|+2L> + |-2L>)/sqrt(2)
    |2>  upper hyperfine manifold, m_ell = 0          (frame rotating at w_p)
    |3>  upper hyperfine manifold, symmetric kicked   (frame rotating at w_p)
    |4>  electronically excited, symmetric (|+L> + |-L>)/sqrt(2)
                                                      (frame rotating at w_e)

In this frame the diagonal is (0, eps_2L, hbar Dhf, hbar Dhf + eps_2L,
hbar De); the pump magnetic coupling is static, the Stokes coupling rotates at
w_ps = w_p - w_s, and the kick-pulse dipole couplings are static.  Eliminating
the far-detuned |2>, |3> (magnetic dressing) and |4> (optical dressing) leaves
a two-level system whose off-diagonal carries a static Stark part plus a
cos(w_ps t) Raman drive.

Coupling normalisation: the electric elements are (g0, g1) = (sqrt(2) g, g)
with g = sqrt(V_e hbar |De|) so that the kick-pulse Stark scale is V_e and the
sqrt(2) reflects the two OAM paths feeding the m_ell = 0 state; the magnetic
elements carry the explicit 2 m_F factor, normalised so |m_F| = 1/2 matches
the effective 1/3 spin factor of the coupling chain.  With these choices the
ladder's fourth-order Raman amplitude closes exactly onto
Omega_R = 2 sqrt(2) V / hbar, which the time integration verifies.

Numerics: `evolve_populations` builds one drive period's propagator from
exact eigen-steps at ceil(N / 2) midpoints (time reversal gives the rest).
Each midpoint Hamiltonian is real symmetric up to a diagonal phase on |2> and
|3>, so its eigensolve is real (`_midpoint_steps`).  `oscillation_frequency`
fits the transfer trace, a long one first on a strided subsample and then on
every sample from that estimate.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import ConvergenceError, InvalidInputError
from .raman import RamanConfig, kick_stark_scale
from .units import HBAR, MU_B, AtomSpecies


@dataclass(frozen=True)
class FiveLevelModel:
    """Time-dependent 5x5 ladder Hamiltonian description."""

    cfg: RamanConfig
    species: AtomSpecies
    omega_2L0: float       # rotor transition frequency eps_2L / hbar (rad/s)
    m_F: float = 0.5
    omega_ps: float | None = None   # drive frequency; defaults to cfg.omega_ps

    @property
    def drive_frequency(self) -> float:
        return self.cfg.omega_ps if self.omega_ps is None else self.omega_ps

    @property
    def magnetic_couplings(self) -> tuple[float, float]:
        """(w_p, w_s) in joules, carrying the explicit 2 m_F spin factor."""
        scale = 2.0 * self.m_F * self.species.g_factor * MU_B / math.sqrt(3.0)
        return scale * self.cfg.B_p0, scale * self.cfg.B_s0

    @property
    def electric_couplings(self) -> tuple[float, float]:
        """(g0, g1) in joules; g0/g1 = sqrt(2) from the two OAM paths."""
        g1 = math.sqrt(abs(kick_stark_scale(self.cfg)) * HBAR * abs(self.cfg.Delta_e))
        return math.sqrt(2.0) * g1, g1

    def static_hamiltonian(self) -> np.ndarray:
        """All time-independent terms (diagonal, pump, kick couplings), in J."""
        w_p, _ = self.magnetic_couplings
        g0, g1 = self.electric_couplings
        h = np.zeros((5, 5), dtype=complex)
        h[1, 1] = HBAR * self.omega_2L0
        h[2, 2] = HBAR * self.cfg.Delta_hf
        h[3, 3] = HBAR * (self.cfg.Delta_hf + self.omega_2L0)
        h[4, 4] = HBAR * self.cfg.Delta_e
        for i, j, v in ((0, 2, w_p), (1, 3, w_p), (0, 4, g0), (1, 4, g1)):
            h[i, j] += v
            h[j, i] += np.conj(v)
        return h

    def hamiltonian(self, t) -> np.ndarray:
        """Instantaneous Hamiltonian (J): static part plus the Stokes tone.

        ``t`` may be an array of times; the result then has shape
        ``t.shape + (5, 5)``.
        """
        _, w_s = self.magnetic_couplings
        tone = w_s * np.exp(-1j * self.drive_frequency * np.asarray(t, dtype=float))
        h = np.broadcast_to(self.static_hamiltonian(), tone.shape + (5, 5)).copy()
        for i, j in ((0, 2), (1, 3)):
            h[..., i, j] += tone
            h[..., j, i] += np.conj(tone)
        return h


def raman_resonance(model: FiveLevelModel) -> float:
    """Drive frequency matching the dressed |0> -> |1> splitting.

    Diagonalises the static Hamiltonian (pump and kick dressing included
    exactly), then iterates, four times, the Stokes-tone differential light shift
    w_s^2 [1/(E2'-E0'-w) - 1/(E3'-E1'-w)], which is first order in the drive
    intensity and does not cancel between the two legs because the kick-pulse
    Stark shifts detune them differently.
    """
    vals, vecs = np.linalg.eigh(model.static_hamiltonian())
    idx = [int(np.argmax(np.abs(vecs[i, :]))) for i in range(4)]
    e0, e1, e2, e3 = (vals[idx[i]] for i in range(4))
    _, w_s = model.magnetic_couplings
    omega = (e1 - e0) / HBAR
    for _ in range(4):
        d02 = e2 - e0 - HBAR * omega
        d13 = e3 - e1 - HBAR * omega
        omega = (e1 - e0) / HBAR + w_s**2 * (1.0 / d02 - 1.0 / d13) / HBAR
    return float(omega)


# m n k of each real matrix product of the population contraction.
_GEMM_CELLS = 2**18


def _count(name: str, value, least: int) -> int:
    """``value`` as an int of at least ``least``, or InvalidInputError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise InvalidInputError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _time_ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] @ ... @ steps[0], multiplied pairwise in batches (later @ earlier)."""
    while len(steps) > 1:
        pairs = steps[1::2] @ steps[: len(steps) - 1 : 2]
        steps = np.concatenate([pairs, steps[-1:]]) if len(steps) % 2 else pairs
    return steps[0]


def _midpoint_steps(model: FiveLevelModel, times: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H(t) dt / hbar) at each of ``times``, from real eigensolves.

    Only the (0, 2) and (1, 3) couplings are complex, and both are
    z = w_p + w_s exp(-i w t) = |z| exp(i phi).  So H = D H_r D^+ with
    D = diag(1, 1, e^(-i phi), e^(-i phi), 1) and H_r real symmetric, |z| on
    (0, 2) and (1, 3) (phi = 0 where z = 0).  H_r = Q diag(E) Q^T takes a
    real eigensolve, and the step is (D Q) exp(-i E dt / hbar) (D Q)^+.
    """
    h = model.hamiltonian(times)
    z = h[:, 0, 2]
    h_r = np.ascontiguousarray(h.real)
    h_r[:, [0, 2, 1, 3], [2, 0, 3, 1]] = np.abs(z)[:, None]
    energies, vecs = np.linalg.eigh(h_r)
    gauge = np.divide(z.conj(), np.abs(z), out=np.ones_like(z), where=z != 0)   # e^(-i phi)
    dq = vecs.astype(complex)
    dq[:, 2:4] *= gauge[:, None, None]
    phases = np.exp(-1j * energies * (dt / HBAR))
    return (dq * phases[:, None, :]) @ dq.conj().transpose(0, 2, 1)


def _period_propagator(model: FiveLevelModel, steps_per_period: int) -> np.ndarray:
    """One drive period's propagator from ceil(N / 2) real midpoint eigensolves.

    With A = S_(N//2 - 1) ... S_0 the product of the first half's steps
    (`_midpoint_steps`), the period is U = A^T A for even N and
    A^T S_(N//2) A for odd N (see `evolve_populations`).
    """
    n = _count("steps_per_period", steps_per_period, 8)
    dt = 2.0 * np.pi / model.drive_frequency / n
    steps = _midpoint_steps(model, (np.arange((n + 1) // 2) + 0.5) * dt, dt)
    half = _time_ordered_product(steps[: n // 2])
    return half.T @ (steps[-1] @ half if n % 2 else half)


def evolve_populations(
    model: FiveLevelModel, n_periods: int, steps_per_period: int = 512
):
    """Populations of all five states sampled once per drive period.

    The Hamiltonian is periodic at the drive frequency, so one period's
    propagator is a product of N = ``steps_per_period`` midpoint steps
    S_k = exp(-i H(t_k) dt / hbar), which is exact for the static part at any
    detuning scale; the step only has to resolve the slow drive phase.  Each
    step is V exp(-i E dt / hbar) V^+ from the eigendecomposition
    H = V diag(E) V^+: exact and unitary to round-off however large
    |H| dt / hbar is.  A diagonal phase D turns H into a real symmetric
    H_r = D^+ H D, so V = D Q from a real eigensolve of H_r = Q diag(E) Q^T
    (`_midpoint_steps`).

    The static Hamiltonian is real and the Stokes tone is w_s exp(-i w t)
    with w T = 2 pi, so H(T - t) = H(t)*: the step at midpoint N - 1 - k is
    the transpose of the step at k.  With A = S_(N//2 - 1) ... S_0, the
    period is U = A^T A, or A^T S_(N//2) A for odd N, and only the first
    ceil(N / 2) midpoints are eigendecomposed, in one batch.  A is multiplied
    pairwise in batched products that keep time order (later @ earlier),
    about log2(N) numpy calls in place of one per step.  U is then powered
    through its Floquet phases, exp(i k arg(lambda)).  Returns ``(times,
    populations)`` with populations of shape (n_periods + 1, 5).
    """
    n_periods = _count("n_periods", n_periods, 1)
    u = _period_propagator(model, steps_per_period)
    lam, w = np.linalg.eig(u)
    amp = w * np.linalg.solve(w, np.eye(5, dtype=complex)[:, 0])   # (state, Floquet mode)
    theta = np.angle(lam)
    # lam^(b q + r) = lam^(b q) lam^r: two short tables of exponentials in
    # place of one per period and state.  Period b q + r of state s is
    # sum_j coarse[q, j] fine[j, (r, s)], taken in real arithmetic as the
    # (re, im) pairs of [Re, Im] coarse @ [[Re, Im], [-Im, Re]] fine, a block
    # of periods at a time; each block is squared into the populations, so
    # no complex (n_periods, 5) array is made.  A block's product has
    # m n k <= _GEMM_CELLS, which OpenBLAS keeps on the calling thread (it
    # threads a product only beyond m n k = 4 x 65536); one product of all
    # periods would wake its worker threads.
    b = math.isqrt(n_periods) + 1
    coarse = np.exp(1j * np.outer(np.arange(0, n_periods + 1, b), theta))
    fine = (np.exp(1j * np.outer(np.arange(b), theta))[:, None, :] * amp).reshape(-1, 5).T
    lhs = np.hstack([coarse.real, coarse.imag])
    rhs = np.stack([np.vstack([fine.real, -fine.imag]),
                    np.vstack([fine.imag, fine.real])], axis=-1).reshape(10, -1)
    pops = np.empty((len(lhs), fine.shape[1]))
    rows = max(_GEMM_CELLS // rhs.size, 1)
    buf = np.empty((rows, rhs.shape[1]))
    for q in range(0, len(lhs), rows):
        block = np.matmul(lhs[q : q + rows], rhs, out=buf[: len(pops[q : q + rows])])
        np.square(block, out=block)
        np.add(block[:, 0::2], block[:, 1::2], out=pops[q : q + rows])
    times = np.arange(n_periods + 1) * (2.0 * np.pi / model.drive_frequency)
    return times, pops.reshape(-1, 5)[: n_periods + 1]


def _rabi_terms(half: np.ndarray, sin_sq: np.ndarray):
    """sin^2 h into ``sin_sq`` and sin h cos h into ``half``, from one tan h.

    With t = tan h, cos^2 h = 1 / (1 + t^2), sin h cos h = t cos^2 h and
    sin^2 h = 1 - cos^2 h, the tan identities of `raman._p0_terms`: one tan
    costs about a tenth of a sin and a cos.  Near h = pi/2 + k pi, t is large
    but t^2 stays finite.  cos^2 h passes through ``sin_sq``, so no temporary
    is made; sin^2 h is then accurate to rounding in absolute, not relative,
    terms, which is all the fit resolves once it centres the row.
    """
    t = np.tan(half, out=half)
    cos_sq = np.square(t, out=sin_sq)
    cos_sq += 1.0
    np.reciprocal(cos_sq, out=cos_sq)
    t *= cos_sq
    np.subtract(1.0, cos_sq, out=sin_sq)
    return sin_sq, t


# A trace of at least twice this many samples is first fitted on every
# (len // _COARSE_SAMPLES)-th sample.
_COARSE_SAMPLES = 4096


def _three_distinct(t: np.ndarray) -> bool:
    # A, c and Omega need three distinct times; a trace's first three are
    # distinct, so the sort runs only on a short or repeating one
    return len(set(t[:3].tolist())) == 3 or np.unique(t).size >= 3


def _centred_fit(times, population, guess: float):
    """`_varpro` fit of the centred model to one trace, from ``guess``."""
    from ._varpro import varpro

    t = np.ascontiguousarray(times, dtype=float)
    # centred into a contiguous copy: a strided column of the populations is read slower
    y = population - population.mean()

    def basis(theta, out):
        row, deriv = out
        np.multiply(t, 0.5 * theta[0], out=deriv)
        _rabi_terms(deriv, row)
        np.multiply(deriv, t, out=deriv)
        np.subtract(deriv, deriv.mean(), out=deriv)
        np.subtract(row, row.mean(), out=row)

    return varpro(basis, y, [guess], [-np.inf], [np.inf], abs(guess), 1e-10)


def oscillation_frequency(times, population, guess: float) -> tuple[float, float]:
    """Fit A sin^2(Omega t / 2) + c to a population trace.

    A and c enter linearly.  c is eliminated in closed form by centring: A
    (s - mean s), s = sin^2(Omega t / 2), fitted to y - mean y is the same
    least-squares problem, so variable projection (`_varpro`) sees one basis
    row and leaves a 1-D search in Omega.  The row and its Omega-derivative,
    t sin cos less its mean (the derivative of the centred row), come from
    one tan(Omega t / 2) per sample (`_rabi_terms`), written straight into
    the solver's rows.

    A trace of at least 2 _COARSE_SAMPLES = 8,192 samples is fitted in two
    stages.  The same fit first runs from ``guess`` on every
    (len // _COARSE_SAMPLES)-th sample, 4,096 to 8,191 of them; the fit of
    the whole trace then starts from that estimate, to the same 1e-10
    tolerance, and takes one or two evaluations over every sample in place
    of about four.  It starts from ``guess`` when the subsample holds fewer
    than three distinct times or its fit does not converge; a shorter trace
    is fitted once, from ``guess``.  Returns ``(Omega, A)``; feed roughly
    one to two Rabi periods of data, at three or more distinct times.  A
    constant trace holds no oscillation and raises `InvalidInputError`.
    """
    if not guess or not math.isfinite(guess):
        raise InvalidInputError("guess must be a finite, nonzero frequency: "
                                "Omega is searched in its units")
    t = np.ascontiguousarray(times, dtype=float)
    y = np.asarray(population, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise InvalidInputError(f"times and population must be 1-D of one length, "
                                f"got shapes {t.shape} and {y.shape}")
    if not _three_distinct(t):
        raise InvalidInputError("times must hold at least three distinct values")
    if np.ptp(y) == 0:
        # the centred trace is exactly 0, so the fit would stop at its start
        raise InvalidInputError("population is constant: it holds no oscillation to fit")
    start, stride = guess, t.size // _COARSE_SAMPLES
    if stride >= 2 and _three_distinct(t[::stride]):
        coarse = _centred_fit(t[::stride], y[::stride], guess)
        if coarse.success:
            start = abs(float(coarse.theta[0]))
    sol = _centred_fit(t, y, start)
    if not sol.success:
        raise ConvergenceError("oscillation fit did not converge",
                               diagnostics={"Omega": sol.theta[0]})
    return float(abs(sol.theta[0])), float(sol.coef)


def tuned_model(model: FiveLevelModel) -> FiveLevelModel:
    """Copy of the model with the drive set to the computed Raman resonance."""
    return replace(model, omega_ps=raman_resonance(model))
