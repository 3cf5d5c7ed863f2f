"""Weighted graphical lasso solver by proximal gradient descent.

Minimizes, over SPD matrices theta,

    -logdet(theta) + <S, theta> + sum_kl T_kl |theta_kl|

where S is an empirical covariance and T is either a constant level lam or
an entrywise nonnegative symmetric weight matrix.  Each iteration takes a
gradient step on the smooth part, whose gradient is S - theta^{-1}, and
applies entrywise soft-thresholding.  A converged iterate satisfies the
fixed-point equation

    theta = soft_threshold(theta - gamma * (S - theta^{-1}), gamma * T)

for any gamma > 0, and the solver's residual is the sup-norm defect of that
equation at the step in effect when it stopped.  The prox iteration
converges only linearly, so the solver also takes inexact Newton steps on
QUIC's free set.  The Notes of :func:`solve` state the step-size, Newton
and stop rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import NotConverged, NotPositiveDefinite, SingularSystem
from .linalg import (
    SupportSet,
    _as_matrix,
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

# Newton steps, by the Notes of solve: the cap on the forcing term, the
# constant of Kelley's safeguard (his 0.5) and the Armijo constant.
NEWTON_FORCING = 0.1
NEWTON_SAFEGUARD = 0.5
NEWTON_ARMIJO = 1e-4


@dataclass(frozen=True, eq=False)
class Regularization:
    """Penalty weights: one level for every entry, or a full weight matrix.

    The matrix form keeps only the symmetric part of what is passed in,
    since the penalty over symmetric theta cannot see the antisymmetric
    part, as a read-only array.  A zero diagonal leaves the diagonal
    unpenalized.  Raises ValueError unless exactly one form is given, a
    level is finite and >= 0, and weights are finite, square and >= 0.

    Two instances compare, and hash, by identity; compare ``lam`` or
    ``weights`` to compare penalties.
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
            w = _as_matrix(self.weights, "weights")
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


@dataclass(frozen=True, eq=False)
class PrecisionEstimate:
    """Solver output: the SPD estimate plus everything needed to audit it.

    ``gamma`` is the prox step in effect when the solver stopped, and
    ``fixed_point_residual`` was measured with exactly that step.
    ``support`` holds the entries with ``|theta| > support_tol``, diagonal
    included.  ``iterations`` counts accepted steps, proximal or Newton;
    ``newton_steps`` counts the Newton ones among them, and
    ``newton_trials`` the Newton steps tried, accepted or not.  ``tol`` is
    the tolerance the solver certified, which the adjoint solve of
    :mod:`~glassotune.implicit` matches; 0 for an estimate built otherwise.
    """

    theta: np.ndarray = field(repr=False)
    reg: Regularization
    gamma: float
    support: SupportSet
    fixed_point_residual: float
    iterations: int
    newton_steps: int = 0
    newton_trials: int = 0
    tol: float = 0.0

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
    config: SolverConfig = SolverConfig(),
    warm_start: Optional[PrecisionEstimate] = None,
) -> PrecisionEstimate:
    """Solve the weighted graphical lasso for one covariance and penalty.

    Parameters
    ----------
    cov : ndarray
        Symmetric PSD empirical covariance S.
    reg : Regularization
        Penalty level or weight matrix.
    config : SolverConfig, default ``SolverConfig()``
        Tolerances.  At the default tol of 1e-8 the CLI's ``compare`` and
        ``matrix`` runs converge at p=1000.
    warm_start : PrecisionEstimate, optional
        Estimate to start from, e.g. the solution at a nearby penalty.  The
        solve starts from its ``theta`` and reuses its ``theta_inv`` and
        ``logdet``, so the start is not factorized again.  When omitted
        the diagonal stationary point 1 / (S_ii + T_ii) is used.

    Returns
    -------
    PrecisionEstimate

    Raises
    ------
    TypeError
        If warm_start is neither a PrecisionEstimate nor None.
    ValueError
        If cov or the warm start's theta is not a finite square matrix, or
        for a warm start of another size or a penalty weight matrix of
        another size.
    NotConverged
        After MAX_ITER accepted steps, proximal or Newton, with the residual
        still above tol.
        Carries the iteration count and last residual.
    NotPositiveDefinite
        If the penalty is identically zero and cov is singular (the
        unpenalized problem has no minimizer), if the warm start's theta
        is not SPD, or if MAX_BACKTRACKS candidates at a halving step
        include no SPD sufficient-decrease step.

    Notes
    -----
    The step gamma follows G-ISTA (Rolfs, Rajaratnam, Guillot, Wong &
    Chaudhary, NeurIPS 2012): backtracking halves it until the candidate is
    SPD and passes a sufficient-decrease test, and each accepted prox step
    proposes the next by a Barzilai-Borwein quotient, kept only under
    positive curvature, so the step grows back after backtracking.  The
    residual scales roughly linearly in gamma near the solution, so
    termination requires ``residual <= tol * min(1, gamma)``; this keeps the
    stationarity violation of the result on the order of tol even after
    heavy backtracking.  Only this prox residual certifies convergence.

    After every accepted prox step that does not end the solve, the solver
    first tries a Newton step on the free set of QUIC (Hsieh, Sustik,
    Dhillon & Ravikumar, JMLR 2014).  After an accepted Newton step it
    tries Newton again if and only if that step lowered the residual.
    Otherwise, and always after a rejected Newton trial, the prox step
    runs.  So Newton steps follow one another while each cuts the
    residual, which near the solution is far more than a prox step does,
    and a Newton step that stalls hands over to the prox step.

    A Newton step, with W = theta^{-1} and G = S - W, first picks the
    orthant xi: sign(theta) on theta's support and, on the zero entries,
    the sign of the prox candidate soft_threshold(theta - gamma * G,
    gamma * T) that the residual check has just formed.  That candidate
    is nonzero at a zero entry exactly where gamma|G| > gamma T, with sign
    -sign(G), so xi is -sign(G) on the zero entries with |G| > T strictly,
    short of exact ties after the scaling by gamma, and 0 elsewhere: the
    sign along which the objective falls, as OWL-QN's pseudo-gradient
    picks it (Andrew & Gao, ICML 2007).  So Newton steps add entries as
    well as drop them.  The free set F is {xi != 0}.  On the orthant the
    penalty is the linear <T * xi, theta>, so with g = G + T * xi the step
    solves (W kron W)_FF d = -g_F by conjugate gradients preconditioned
    with (theta kron theta)_FF, to the relative residual
    min(NEWTON_FORCING, max(sqrt|g_F|, NEWTON_SAFEGUARD * tau / |g_F|)).
    Here tau = tol * min(1, 1/gamma) is the |g_F| below which the prox
    residual, about gamma |g_F|, passes the stop test; the safeguard
    (Kelley, Iterative Methods for Linear and Nonlinear Equations, SIAM
    1995, section 6.3) keeps the last solves from driving the linear
    residual far below what that test can see.  The step then projects
    theta + d onto the orthant (entries with the other sign than xi
    become 0) and is taken at full length if that trial is SPD and passes
    an Armijo test with constant NEWTON_ARMIJO and the prox test's slack.
    Otherwise the prox step is taken as usual.  Newton steps count
    towards MAX_ITER, ``iterations`` and ``newton_steps`` and leave gamma
    as it was; ``newton_trials`` counts the rejected ones too.  The Armijo
    test compares true objective values: theta and the projected trial
    both lie on the orthant, where the penalty is linear.

    The Newton solve runs in float32 end to end, its two Kronecker
    products, iterates and vector updates alike (see
    :func:`~glassotune.linalg.solve_symmetric`): its right-hand side is
    -g_F rounded to float32, since the direction only has to meet the
    forcing term, and the trial theta + d, the Armijo test, the prox step
    and the stop are float64.  The float32 solve leaves a true residual
    near 1e-7 relative, far below the smallest forcing terms seen, 1.4e-3
    to 1.7e-3 on the 100-point grid sweeps at p=100 (seeds 0-4) and p=300
    (seeds 0-1), so no floor for float32 round-off is needed.

    The returned theta is exactly symmetric, ``array_equal(theta,
    theta.T)``, as is every iterate: cov is symmetrized once, the start is
    the diagonal one or an estimate's theta, which :func:`solve` returns
    exactly symmetric, the inverse is mirrored, the prox treats entries
    (i, j) and (j, i) alike, the orthant is symmetric as the gradient is,
    and each Newton direction is symmetrized once (see
    :func:`~glassotune.linalg.kron_restricted`).  Its inverse comes back
    with it as ``theta_inv``.
    """
    if not (warm_start is None or isinstance(warm_start, PrecisionEstimate)):
        raise TypeError("warm_start must be a PrecisionEstimate or None")
    cov = symmetrize(_as_matrix(cov, "cov"))
    thr = reg.thresholds(cov.shape[0])

    if not np.any(thr > 0.0):
        try:
            cholesky(cov)
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                "unpenalized problem with a singular covariance has no minimizer"
            ) from exc

    if warm_start is None:
        theta = _initial_iterate(cov, thr)
        lower = cholesky(theta)
        theta_inv, ld = spd_inverse(lower), logdet(lower)
    else:
        theta = _as_matrix(warm_start.theta, "warm_start", like=cov)
        theta_inv, ld = warm_start.theta_inv, warm_start.logdet
    f_theta = -ld + float(np.vdot(cov, theta))

    gamma = _default_gamma(cov)
    # The residual before the last step if it was an accepted Newton step.
    before_newton = None
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
                support=SupportSet(np.abs(theta) > config.support_tol),
                fixed_point_residual=residual,
                iterations=it,
                newton_steps=newton_steps,
                newton_trials=newton_trials,
                tol=config.tol,
            )
            # theta_inv and ld came from cholesky(theta), the values the
            # cached properties would compute, so seeding their caches saves
            # a factorization.
            theta_inv.flags.writeable = False
            object.__setattr__(est, "theta_inv", theta_inv)
            object.__setattr__(est, "logdet", ld)
            return est
        if it == MAX_ITER:
            raise NotConverged(
                f"no fixed point after {it} iterations, residual {residual:.3e}",
                iterations=it,
                residual=residual,
            )

        # Newton after a prox step, and again only while it still cuts the residual.
        if it and (before_newton is None or residual < before_newton):
            newton_trials += 1
            newton = _newton_step(cov, thr, theta, theta_inv, grad, f_theta, cand,
                                  config.tol * min(1.0, 1.0 / gamma))
            if newton is not None:
                theta, lower, ld, f_theta = newton
                theta_inv = spd_inverse(lower)
                before_newton = residual
                newton_steps += 1
                continue
        before_newton = None

        for attempt in range(MAX_BACKTRACKS):
            if attempt:
                gamma *= BACKTRACK_FACTOR
                cand = soft_threshold(theta - gamma * grad, gamma * thr)
                delta = cand - theta
            try:
                lower = cholesky(cand)
            except NotPositiveDefinite:
                continue
            ld_cand = logdet(lower)
            f_cand = -ld_cand + float(np.vdot(cov, cand))
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
        ld = ld_cand

    raise AssertionError("unreachable")


def _orthant(theta: np.ndarray, cand: np.ndarray) -> np.ndarray:
    # xi of the Notes of solve: theta's signs on its support, the prox
    # candidate's on its zero entries.
    return np.sign(np.where(theta != 0.0, theta, cand))


def _newton_step(
    cov: np.ndarray,
    thr: float | np.ndarray,
    theta: np.ndarray,
    theta_inv: np.ndarray,
    grad: np.ndarray,
    f_theta: float,
    cand: np.ndarray,
    g_tol: float,
) -> Optional[tuple]:
    """One inexact Newton step on the free set, by the Notes of :func:`solve`.

    ``cand`` is the prox candidate at theta, whose signs give the orthant
    on theta's zero entries, and ``g_tol`` is tau of the Notes.  Returns
    the accepted ``(theta, lower, logdet, f_theta)`` of the full projected
    step, or None if it fails, so that the prox step runs instead.  The
    gradient, the direction d and every conjugate-gradient iterate are
    p x p matrices zero off the free set, so the trial is ``theta + d``.
    """
    xi = _orthant(theta, cand)
    free = SupportSet(xi != 0.0)
    sign_thr = thr * xi
    g_mat = grad + sign_thr
    g = g_mat * free.mask
    g_norm = float(np.linalg.norm(g))
    # Kelley's safeguard; a zero g needs no iteration at all.
    floor = NEWTON_SAFEGUARD * g_tol / g_norm if g_norm > 0.0 else 0.0
    try:
        d = solve_symmetric(
            kron_restricted(theta_inv.astype(np.float32), free),
            np.negative(g, dtype=np.float32),
            precondition=kron_restricted(theta.astype(np.float32), free),
            rtol=min(NEWTON_FORCING, max(np.sqrt(g_norm), floor)),
            dim=len(free),
        )
    except SingularSystem:
        return None
    # the one symmetrization of kron_restricted's docstring
    d += d.T
    d *= 0.5
    trial = theta + d
    # Project onto the orthant: entries that leave it stop at zero.
    np.copyto(trial, 0.0, where=trial * xi < 0.0)
    try:
        lower = cholesky(trial)
    except NotPositiveDefinite:
        return None
    ld_trial = logdet(lower)
    f_trial = -ld_trial + float(np.vdot(cov, trial))
    # On the orthant the full objective is f + <T * xi, theta>.
    step = trial - theta
    slack = DECREASE_SLACK * max(1.0, abs(f_theta))
    if (f_trial + float(np.vdot(sign_thr, step))
            <= f_theta + NEWTON_ARMIJO * float(np.vdot(g_mat, step)) + slack):
        return trial, lower, ld_trial, f_trial
    return None


def check_optimality(est: PrecisionEstimate, cov: np.ndarray) -> float:
    """Largest violation of the stationarity conditions of the solved problem.

    With R = theta^{-1} - S and thresholds T, a minimizer satisfies
    R_ij = T_ij * sign(theta_ij) wherever theta_ij is nonzero and
    |R_ij| <= T_ij elsewhere.  Returns the max over entries of the distance
    to those conditions; near zero certifies the estimate independently of
    how it was computed.  Raises ValueError unless cov is finite and has
    the shape of theta.
    """
    r = est.theta_inv - symmetrize(_as_matrix(cov, "cov", like=est.theta))
    thr = est.reg.thresholds(est.dim)
    on = est.support.mask
    violation = np.where(
        on,
        np.abs(r - thr * np.sign(est.theta)),
        np.maximum(np.abs(r) - thr, 0.0),
    )
    return float(np.max(violation))

