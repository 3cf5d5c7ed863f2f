"""Exact penalty derivatives of graphical lasso solutions.

At a non-degenerate solution the soft-threshold fixed point is locally
smooth in the penalty, and differentiating it on the support of theta
yields a linear system whose coefficient matrix is the Kronecker square of
theta^{-1} restricted to support coordinates, solved matrix-free by
conjugate gradients.  Per-entry weight derivatives share that matrix, so
their contraction against a criterion gradient collapses into a single
adjoint solve (:func:`hypergradient_weighted`); the derivative in a scalar
level is the same solve against -sign(theta) (:func:`jacobian_scalar`).
:func:`support_from_estimate` states which entries count as the support,
kinks included.  Off-support derivatives are exactly zero.

Also provides the hold-out validation criterion (unpenalized Gaussian
negative log-likelihood on left-out data) and a Frobenius relative error
against a known ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DegenerateSupport
from .glasso import PrecisionEstimate
from .linalg import (
    CG_RTOL,
    Operator,
    SupportSet,
    _as_matrix,
    cholesky,
    kron_restricted,
    logdet,
    solve_symmetric,
    spd_inverse,
    symmetrize,
)
# Not called here; perfbench/tracer.py wraps these names in this module.
from .linalg import unvec, vec  # noqa: F401

# The relative width of the kink band of support_from_estimate.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CriterionValue:
    """Hold-out criterion value and its gradient at the evaluation point."""

    value: float
    gradient: np.ndarray = field(repr=False)


def support_from_estimate(est: PrecisionEstimate, cov: np.ndarray) -> SupportSet:
    """Support of a converged estimate to differentiate on.

    Starts from the entries of theta with magnitude above the solver's
    support tolerance and checks that the same set is recovered from the
    fixed-point argument zhat = theta - G * (cov - W) compared against the
    thresholds G * Lambda, entrywise, with W = theta^{-1} and the per-entry
    step G_ij = 1 / (W_ii * W_jj), the inverse of the diagonal of the
    Hessian W kron W of -logdet.  Any positive per-entry step characterizes
    the same fixed point, and this one depends on the estimate alone, not
    on the step the solver ended on.  At the solution the relative margin
    | |zhat| - G * Lambda | / (G * Lambda) is |theta_ij| W_ii W_jj / Lambda_ij
    on the support and (Lambda_ij - |W_ij - cov_ij|) / Lambda_ij off it,
    both unchanged when cov and Lambda are scaled together.  ``cov`` must be
    the covariance the estimate was solved against.

    Kink rule: an entry sits on a kink of the solution map, and goes on
    the zero branch, when its margin in the units of the stationarity
    condition, | |zhat| - G * Lambda | / G, is below max(BOUNDARY_TOL *
    Lambda, est.tol).  Off the support that margin is
    | |W - cov| - Lambda |, by how much the entry meets or misses its
    subgradient bound.  The floor est.tol is what a certified estimate may
    miss by: the solver (:func:`~glassotune.glasso.solve`) stops at a prox
    residual of at most tol * min(1, gamma), and the residual's entries
    are gamma * max(|W - cov| - Lambda, 0) off the support and
    gamma * |W - cov - Lambda * sign(theta)| on it, so no entry violates
    stationarity by more than tol.  Below Lambda = tol / BOUNDARY_TOL the
    relative band alone would call such an entry off its fixed point.  A
    hand-built estimate has ``tol`` = 0 and keeps the relative band.
    Entries on the zero branch are left out of the returned support, so
    their derivative is zero: the one-sided derivative along which they
    stay zero, an element of the conservative (Clarke) Jacobian (Bolte,
    Le, Pauwels & Vaiter, NeurIPS 2021; Bertrand et al., JMLR 2022).  With
    no entry in the band it returns ``est.support`` itself.

    Raises ValueError unless cov is finite and has the shape of theta, and
    DegenerateSupport if, outside the band, the support of theta disagrees
    with the fixed-point reading: the estimate is off its fixed point.
    """
    theta = est.theta
    theta_inv = est.theta_inv
    cov = symmetrize(_as_matrix(cov, "cov", like=theta))
    thr = est.reg.thresholds(est.dim)

    diag = np.diagonal(theta_inv)
    step = 1.0 / np.outer(diag, diag)
    zhat = theta - step * (cov - theta_inv)
    t = step * thr
    gap = np.abs(np.abs(zhat) - t)
    near = gap < step * np.maximum(BOUNDARY_TOL * thr, est.tol)

    mask_theta = est.support.mask
    mask_z = np.abs(zhat) > t
    if np.any((mask_theta != mask_z) & ~near):
        raise DegenerateSupport(
            "support read from theta disagrees with the fixed-point "
            "threshold comparison outside the kink band; the estimate is "
            "off its fixed point"
        )
    if not near.any():
        return est.support
    return SupportSet(mask_theta & ~near)


def _restricted_kron(est: PrecisionEstimate, support: SupportSet) -> Operator:
    return kron_restricted(est.theta_inv, support)


def jacobian_scalar(est: PrecisionEstimate, support: SupportSet) -> np.ndarray:
    """Derivative of the solution with respect to its scalar penalty level.

    Returns the p x p array of d theta_hat[i, j] / d lam, exactly zero off
    ``support``: the solution y of the restricted system
    K y = -sign(theta)_S, with K the restricted Kronecker square of
    theta^{-1}.  K is symmetric, so y is the adjoint solution of
    :func:`hypergradient_weighted` against -sign(theta), read back from its
    output -sign(theta) * y: sign(theta) is +-1 on the support, so that
    product undoes exactly, and y is exactly symmetric and stops where that
    solve does.  It does not depend on the prox step gamma: the step scales
    both sides of the system and cancels.

    Raises SingularSystem as :func:`hypergradient_weighted` does.
    """
    sign = np.sign(est.theta)
    return -sign * hypergradient_weighted(est, support, -sign)


def hypergradient_scalar(jac: np.ndarray, grad_c: np.ndarray) -> float:
    """Chain rule for the scalar penalty: <jacobian, criterion gradient>.

    Raises ValueError unless grad_c is finite and has the shape of jac.
    """
    return float(np.sum(jac * _as_matrix(grad_c, "grad_c", like=jac)))


def hypergradient_weighted(
    est: PrecisionEstimate,
    support: SupportSet,
    grad_c: np.ndarray,
) -> np.ndarray:
    """Gradient of the outer criterion with respect to every penalty weight.

    Returns the p x p array whose entry (k, l) is
    d C(theta_hat(weights)) / d weights[k, l], exactly symmetric and
    exactly zero off ``support``.

    The derivative of the solution in weight (k, l) solves the restricted
    system against a one-hot right-hand side -sign(theta_kl) * e_pos(k,l),
    so contracting all of them against grad_c only needs the single adjoint
    solve y = K^{-1} vec(grad_c)_S (K is symmetric), by
    :func:`~glassotune.linalg.solve_symmetric` on p x p matrices zero off
    the support: its right-hand side is grad_c masked to the support, its
    solution Y is y put back on it and symmetrized once (see
    :func:`~glassotune.linalg.kron_restricted`), and

        out = -sign(theta) * (Y + Y.T) / 2,   zero off the support.

    The right-hand side, and so every vector of the solve, is float64, and
    the products with K run in float64, so the stop holds for the float64
    system; those with the preconditioner take float32 matrix products,
    which only change the path the iterates take to that stop.  The stop
    is the relative residual max(CG_RTOL, est.tol): theta is certified
    only to the solver's tol, so a tighter stop would buy digits the
    estimate does not have.  An estimate built by hand (tol 0) gets
    CG_RTOL.

    Tying every weight to one level makes its derivative the sum of the
    per-entry ones, so the sum of the returned array is the scalar-penalty
    hypergradient.  Raises ValueError unless grad_c is finite and has the
    shape of theta, and SingularSystem if conjugate gradients find the
    restricted coefficient matrix not positive definite or do not converge.
    """
    grad_c = symmetrize(_as_matrix(grad_c, "grad_c", like=est.theta))
    y = solve_symmetric(
        _restricted_kron(est, support),
        np.where(support.mask, grad_c, 0.0),
        precondition=kron_restricted(est.theta.astype(np.float32), support),
        rtol=max(CG_RTOL, est.tol),
        dim=len(support),
    )
    y += y.T
    y *= 0.5
    return -np.sign(est.theta) * y


def criterion_holdout(
    theta: np.ndarray | PrecisionEstimate, cov_test: np.ndarray
) -> CriterionValue:
    """Unpenalized negative log-likelihood of theta on held-out data.

    value = -logdet(theta) + <cov_test, theta>, gradient = cov_test -
    theta^{-1}.  The gradient vanishes exactly at theta = cov_test^{-1}.
    ``theta`` is a matrix, symmetrized and factorized here, or an estimate,
    whose ``logdet`` and ``theta_inv`` are read instead:
    :func:`~glassotune.glasso.solve` seeds both, so its estimates give the
    same values, bit for bit, with no factorization.  The gradient is
    exactly symmetric.  Raises ValueError unless a matrix theta is finite
    and square, and cov_test is finite and has the shape of theta.
    """
    if isinstance(theta, PrecisionEstimate):
        neg_logdet, theta_inv, theta = -theta.logdet, theta.theta_inv, theta.theta
    else:
        theta = symmetrize(_as_matrix(theta, "theta"))
        lower = cholesky(theta)
        neg_logdet, theta_inv = -logdet(lower), spd_inverse(lower)
    cov_test = symmetrize(_as_matrix(cov_test, "cov_test", like=theta))
    value = neg_logdet + float(np.sum(cov_test * theta))
    gradient = cov_test - theta_inv
    return CriterionValue(value=value, gradient=gradient)


def relative_error(theta_hat: np.ndarray, theta_true: np.ndarray) -> float:
    """Frobenius distance to the ground truth, relative to its norm.

    Raises ValueError unless both are finite square matrices of one shape.
    """
    theta_true = _as_matrix(theta_true, "theta_true")
    theta_hat = _as_matrix(theta_hat, "theta_hat", like=theta_true)
    denom = float(np.linalg.norm(theta_true))
    num = float(np.linalg.norm(theta_true - theta_hat))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom
