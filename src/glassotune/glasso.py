"""Weighted graphical lasso solver by proximal gradient descent.

Minimizes, over SPD matrices theta,

    -logdet(theta) + <S, theta> + sum_kl T_kl |theta_kl|

where S is an empirical covariance and T is either a constant level lam or
an entrywise nonnegative symmetric weight matrix.  Each iteration takes a
gradient step on the smooth part, whose gradient is S - theta^{-1}, and
applies entrywise soft-thresholding.  The step gamma follows G-ISTA (Rolfs,
Rajaratnam, Guillot, Wong & Chaudhary, NeurIPS 2012): after each accepted
prox step a Barzilai-Borwein quotient proposes the next one, so the step
grows back after backtracking, and backtracking halves it until the
candidate is SPD and passes a sufficient-decrease test.  A converged
iterate satisfies the fixed-point equation

    theta = soft_threshold(theta - gamma * (S - theta^{-1}), gamma * T)

for any gamma > 0, and the solver's residual is the sup-norm defect of that
equation at the step in effect when it stopped.

The prox iteration converges only linearly.  So after every accepted prox
step the solver tries one inexact Newton step on the problem with theta's
sign pattern held (Oztoprak, Nocedal, Rennie & Olsen, NeurIPS 2012),
projected onto theta's orthant face as in OWL-QN (Andrew & Gao, ICML 2007),
where the objective is smooth and exact, and takes either the full
projected step or the prox step; the Notes of :func:`solve` give the
details.  Only prox steps change the support, and only the prox map
certifies convergence.

Every iterate is exactly symmetric without being re-symmetrized: the start,
S, T and the mirrored inverse are exactly symmetric, and the prox and the
Newton direction treat entries (i, j) and (j, i) alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import NotConverged, NotPositiveDefinite, SingularSystem
from .linalg import (
    SupportSet,
    cholesky,
    kron_restricted,
    logdet,
    solve_symmetric,
    spd_inverse,
    symmetrize,
)

# Accepted steps, proximal or Newton, before solve gives up with NotConverged.
MAX_ITER = 10000

# Backtracking shrinks the step by BACKTRACK_FACTOR after each rejected
# candidate and gives up after MAX_BACKTRACKS candidates; the step has then
# shrunk by 2**59, so a failure signals pathological input.
MAX_BACKTRACKS = 60
BACKTRACK_FACTOR = 0.5

# Relative slack on the sufficient-decrease test, needed once the candidate
# step is so small that the two objective values agree to round-off.
DECREASE_SLACK = 1e-12

# Newton steps, tried after every accepted prox step: conjugate gradients
# stop at the forcing term min(NEWTON_FORCING, sqrt|g|) of the sign-fixed
# gradient g, and the solver takes the full projected step if it passes the
# Armijo test with constant NEWTON_ARMIJO, and the slack of the prox test,
# or the prox step if not.
NEWTON_FORCING = 0.1
NEWTON_ARMIJO = 1e-4


@dataclass(frozen=True)
class Regularization:
    """Penalty weights: one level for every entry, or a full weight matrix.

    The matrix form keeps only the symmetric part of what is passed in,
    since the penalty over symmetric theta cannot see the antisymmetric
    part, as a read-only array.  All entries must be nonnegative.  A zero
    diagonal leaves the diagonal unpenalized.
    """

    lam: Optional[float] = None
    weights: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if (self.lam is None) == (self.weights is None):
            raise ValueError("exactly one of lam and weights must be given")
        if self.lam is not None:
            lam = float(self.lam)
            if not np.isfinite(lam) or lam < 0.0:
                raise ValueError("scalar regularization must be finite and >= 0")
            object.__setattr__(self, "lam", lam)
        else:
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 2 or w.shape[0] != w.shape[1]:
                raise ValueError("weights must be a square matrix")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
            if np.any(w < 0.0):
                raise ValueError("weights must be entrywise >= 0")
            w = symmetrize(w)
            w.flags.writeable = False
            object.__setattr__(self, "weights", w)

    @classmethod
    def scalar(cls, lam: float) -> "Regularization":
        return cls(lam=lam)

    @classmethod
    def matrix(cls, weights: np.ndarray) -> "Regularization":
        return cls(weights=weights)

    @property
    def is_scalar(self) -> bool:
        return self.lam is not None

    def thresholds(self, p: int) -> float | np.ndarray:
        """The thresholds of a p x p problem, for callers to broadcast.

        A scalar level comes back as the float.  A weight matrix comes back
        as the stored read-only array, not a copy; ValueError unless it is
        p x p, since a 1 x 1 matrix would otherwise broadcast too.
        """
        if self.is_scalar:
            return self.lam
        if self.weights.shape[0] != p:
            raise ValueError(
                f"weights are {self.weights.shape[0]} x {self.weights.shape[0]}, need {p} x {p}"
            )
        return self.weights


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances for :func:`solve`.

    ``tol`` bounds the sup-norm fixed-point residual at termination and
    must be finite and positive.  ``support_tol``, a class constant, is the
    magnitude below which an entry of the solution counts as zero.
    """

    tol: float = 1e-8
    support_tol = 1e-10  # unannotated: a constant, not a field

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and > 0")


@dataclass(frozen=True)
class PrecisionEstimate:
    """Solver output: the SPD estimate plus everything needed to audit it.

    ``gamma`` is the prox step in effect when the solver stopped, and
    ``fixed_point_residual`` was measured with exactly that step.
    ``support`` holds the entries with ``|theta| > support_tol``, diagonal
    included.  ``iterations`` counts accepted steps, proximal or Newton;
    ``newton_steps`` counts the Newton ones among them, and
    ``newton_trials`` the Newton steps tried, accepted or not.
    """

    theta: np.ndarray = field(repr=False)
    reg: Regularization
    gamma: float
    support: SupportSet
    fixed_point_residual: float
    iterations: int
    newton_steps: int = 0
    newton_trials: int = 0

    @property
    def dim(self) -> int:
        return self.theta.shape[0]

    @cached_property
    def theta_inv(self) -> np.ndarray:
        """``theta^{-1}``, kept with the estimate.

        :func:`solve` hands back the inverse it already holds; an estimate
        built otherwise factorizes theta on first use.  Read-only, since
        every caller is handed the same array.
        """
        inv = spd_inverse(cholesky(self.theta))
        inv.flags.writeable = False
        return inv

    @cached_property
    def logdet(self) -> float:
        """``log det theta``, kept with the estimate like ``theta_inv``."""
        return logdet(cholesky(self.theta))


def soft_threshold(z: np.ndarray, thresholds: float | np.ndarray) -> np.ndarray:
    """Entrywise sign(z) * max(|z| - t, 0).  Thresholds must be >= 0.

    ``thresholds`` is an array or one level for every entry.  Computed as
    z minus z clipped to [-t, t], which gives the same values (a zero may
    carry the other sign) in three passes instead of five.
    """
    return z - np.minimum(np.maximum(z, -thresholds), thresholds)


def _default_gamma(cov: np.ndarray) -> float:
    # First prox step: 1 over the largest row 2-norm of S, an upper proxy
    # for 1/||S||_2.  Later steps are Barzilai-Borwein proposals corrected
    # by backtracking.
    largest_row = float(np.max(np.sum(cov * cov, axis=1)))
    if largest_row <= 0.0:
        return 1.0
    return 1.0 / np.sqrt(largest_row)


def _initial_iterate(cov: np.ndarray, thr: float | np.ndarray) -> np.ndarray:
    # Stationary point of the decoupled diagonal problem; exact whenever the
    # penalty is large enough to zero out every off-diagonal entry.
    d = np.diagonal(cov) + np.diagonal(np.broadcast_to(thr, cov.shape))
    if np.all(d > 0.0):
        return np.diag(1.0 / d)
    return np.eye(cov.shape[0])


def solve(
    cov: np.ndarray,
    reg: Regularization,
    config: Optional[SolverConfig] = None,
    warm_start: Optional[np.ndarray] = None,
) -> PrecisionEstimate:
    """Solve the weighted graphical lasso for one covariance and penalty.

    Parameters
    ----------
    cov : ndarray
        Symmetric PSD empirical covariance S.
    reg : Regularization
        Penalty level or weight matrix.
    config : SolverConfig, optional
        Tolerances; defaults are suitable for p up to a few hundred.
    warm_start : ndarray, optional
        SPD starting point, e.g. the solution at a nearby penalty.  When
        omitted the diagonal stationary point 1 / (S_ii + T_ii) is used.

    Returns
    -------
    PrecisionEstimate

    Raises
    ------
    ValueError
        If cov is not square or not finite, or if the penalty is a weight
        matrix of another size.
    NotConverged
        After MAX_ITER accepted steps, proximal or Newton, with the residual
        still above tol.
        Carries the iteration count and last residual.
    NotPositiveDefinite
        If the penalty is identically zero and cov is singular (the
        unpenalized problem has no minimizer), if the warm start is not
        SPD, or if MAX_BACKTRACKS candidates at a halving step include no
        SPD sufficient-decrease step.

    Notes
    -----
    The residual scales roughly linearly in gamma near the solution, so
    termination requires ``residual <= tol * min(1, gamma)``; this keeps the
    stationarity violation of the result on the order of tol even after
    heavy backtracking.  The step grows back after backtracking: each
    accepted prox step proposes the next by a Barzilai-Borwein quotient,
    kept only under positive curvature.

    After every accepted prox step that does not end the solve, the solver
    first tries a Newton step.  With W = theta^{-1},
    g = S - W + T * sign(theta) and S the support of theta, it solves
    (W kron W)_SS d = -g_S by conjugate gradients preconditioned with
    (theta kron theta)_SS, to the relative residual
    min(NEWTON_FORCING, sqrt|g_S|); projects theta + d onto theta's
    orthant face (entries that cross zero become 0); and accepts
    that full step if it is SPD and passes an Armijo test with constant
    NEWTON_ARMIJO.  Otherwise the prox step is taken as usual.  Newton
    steps count towards MAX_ITER, ``iterations`` and ``newton_steps`` and
    leave gamma as it was; ``newton_trials`` counts the rejected ones too.
    The step needs no test of the next prox map's sign pattern: on theta's
    face the penalty is linear, so the Armijo test there is on the exact
    objective, and the prox step that follows can still grow or shrink the
    support.

    The returned theta is exactly symmetric, ``array_equal(theta,
    theta.T)``, with no re-symmetrizing in the loop: cov and the warm start
    are symmetrized once, the inverse is mirrored, the prox treats entries
    (i, j) and (j, i) alike, and every matrix conjugate gradients form from
    the Kronecker products is exactly symmetric and zero off the support,
    so the Newton direction is too.  Its inverse comes back with it as
    ``theta_inv``.
    """
    if config is None:
        config = SolverConfig()
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov must be a square matrix")
    if not np.isfinite(cov).all():
        raise ValueError("cov must be finite")
    cov = symmetrize(cov)
    thr = reg.thresholds(cov.shape[0])

    if not np.any(thr > 0.0):
        try:
            cholesky(cov)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                "unpenalized problem with a singular covariance has no minimizer"
            ) from exc

    if warm_start is not None:
        theta = symmetrize(np.asarray(warm_start, dtype=float))
    else:
        theta = _initial_iterate(cov, thr)
    lower = cholesky(theta)
    theta_inv = spd_inverse(lower)
    f_theta = -logdet(lower) + float(np.vdot(cov, theta))

    gamma = _default_gamma(cov)
    after_prox = False
    newton_steps = newton_trials = 0

    for it in range(MAX_ITER + 1):
        grad = cov - theta_inv
        # The prox at the proposed step is both the residual's target and
        # the first candidate of the backtracking search.
        cand = soft_threshold(theta - gamma * grad, gamma * thr)
        delta = cand - theta
        residual = float(np.max(np.abs(delta)))
        if residual <= config.tol * min(1.0, gamma):
            est = PrecisionEstimate(
                theta=theta,
                reg=reg,
                gamma=gamma,
                support=SupportSet.from_matrix_mask(np.abs(theta) > config.support_tol),
                fixed_point_residual=residual,
                iterations=it,
                newton_steps=newton_steps,
                newton_trials=newton_trials,
            )
            # lower is cholesky(theta) and theta_inv is spd_inverse(lower),
            # the values the cached properties would compute, so seeding
            # their caches saves a factorization.
            theta_inv.flags.writeable = False
            object.__setattr__(est, "theta_inv", theta_inv)
            object.__setattr__(est, "logdet", logdet(lower))
            return est
        if it == MAX_ITER:
            raise NotConverged(
                f"no fixed point after {it} iterations, residual {residual:.3e}",
                iterations=it,
                residual=residual,
            )

        if after_prox:
            newton_trials += 1
            newton = _newton_step(cov, thr, theta, theta_inv, grad, f_theta)
            if newton is not None:
                theta, lower, f_theta = newton
                theta_inv = spd_inverse(lower)
                after_prox = False
                newton_steps += 1
                continue
        after_prox = True

        for attempt in range(MAX_BACKTRACKS):
            if attempt:
                gamma *= BACKTRACK_FACTOR
                cand = soft_threshold(theta - gamma * grad, gamma * thr)
                delta = cand - theta
            try:
                lower = cholesky(cand)
            except NotPositiveDefinite:
                continue
            f_cand = -logdet(lower) + float(np.vdot(cov, cand))
            quad = (
                f_theta
                + float(np.vdot(grad, delta))
                + float(np.vdot(delta, delta)) / (2.0 * gamma)
            )
            if f_cand <= quad + DECREASE_SLACK * max(1.0, abs(f_theta)):
                break
        else:
            raise NotPositiveDefinite(
                f"no positive definite sufficient-decrease step after "
                f"{MAX_BACKTRACKS} tries at a shrinking gamma"
            )
        cand_inv = spd_inverse(lower)
        # Short Barzilai-Borwein step <d_theta, d_grad> / <d_grad, d_grad>
        # (S cancels from d_grad); on p=100 sweeps it needed fewer backtracks
        # and less time than the long <d_theta, d_theta> / <d_theta, d_grad>.
        d_grad = theta_inv - cand_inv
        curvature = float(np.vdot(delta, d_grad))
        if curvature > 0.0:
            gamma = curvature / float(np.vdot(d_grad, d_grad))
        theta = cand
        f_theta = f_cand
        theta_inv = cand_inv

    raise AssertionError("unreachable")


def _newton_step(
    cov: np.ndarray,
    thr: float | np.ndarray,
    theta: np.ndarray,
    theta_inv: np.ndarray,
    grad: np.ndarray,
    f_theta: float,
) -> Optional[tuple]:
    """One inexact Newton step with theta's signs held (see :func:`solve`).

    Returns the accepted ``(theta, lower, f_theta)`` of the full projected
    step, or None if it fails, so that the prox step runs instead.
    With the signs held the penalty is the linear <T * sign(theta), theta>,
    so on the support the objective is smooth with gradient ``grad + T *
    sign(theta)`` and Hessian (W kron W)_SS; its preconditioner
    (theta kron theta)_SS is the same block of the Hessian's exact inverse.
    The gradient, the direction d and every conjugate-gradient iterate are
    p x p matrices, zero off the support, so the trial is ``theta + d``.
    """
    support = SupportSet.from_matrix_mask(theta != 0.0)
    sign_thr = thr * np.sign(theta)
    g_mat = grad + sign_thr
    g = np.where(support.mask, g_mat, 0.0)
    try:
        d = solve_symmetric(
            kron_restricted(theta_inv, support),
            -g,
            precondition=kron_restricted(theta, support),
            rtol=min(NEWTON_FORCING, np.sqrt(float(np.linalg.norm(g)))),
            dim=len(support),
        )
    except SingularSystem:
        return None
    trial = theta + d
    # Project onto theta's orthant face: entries that cross zero stop at it.
    trial[trial * theta < 0.0] = 0.0
    try:
        lower = cholesky(trial)
    except NotPositiveDefinite:
        return None
    f_trial = -logdet(lower) + float(np.vdot(cov, trial))
    # On the face the full objective is f + <T * sign(theta), theta>.
    step = trial - theta
    slack = DECREASE_SLACK * max(1.0, abs(f_theta))
    if (f_trial + float(np.vdot(sign_thr, step))
            <= f_theta + NEWTON_ARMIJO * float(np.vdot(g_mat, step)) + slack):
        return trial, lower, f_trial
    return None


def check_optimality(est: PrecisionEstimate, cov: np.ndarray) -> float:
    """Largest violation of the stationarity conditions of the solved problem.

    With R = theta^{-1} - S and thresholds T, a minimizer satisfies
    R_ij = T_ij * sign(theta_ij) wherever theta_ij is nonzero and
    |R_ij| <= T_ij elsewhere.  Returns the max over entries of the distance
    to those conditions; near zero certifies the estimate independently of
    how it was computed.  Raises ValueError unless cov has the shape of
    theta.
    """
    if np.shape(cov) != est.theta.shape:
        raise ValueError("covariance shape does not match the estimate")
    r = est.theta_inv - symmetrize(cov)
    thr = est.reg.thresholds(est.dim)
    on = est.support.mask
    violation = np.where(
        on,
        np.abs(r - thr * np.sign(est.theta)),
        np.maximum(np.abs(r) - thr, 0.0),
    )
    return float(np.max(violation))

