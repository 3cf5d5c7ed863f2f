"""Exact penalty derivatives of graphical lasso solutions.

At a non-degenerate solution the soft-threshold fixed point is locally
smooth in the penalty, and differentiating it on the support of theta
yields a linear system whose coefficient matrix is the Kronecker square of
theta^{-1} restricted to support coordinates.  That matrix is SPD and its
product with a vector is theta^{-1} X theta^{-1}, so the system is solved by
conjugate gradients without ever forming it, preconditioned by the same
restriction of the Kronecker square of theta, whose unrestricted form is
the exact inverse.  The derivative with respect to a scalar penalty
solves that system against -sign(theta) on the support;
per-entry weight derivatives share the same coefficient matrix, so their
contraction against a criterion gradient collapses into a single adjoint
solve.  Off-support derivatives are exactly zero.

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
    Operator,
    SupportSet,
    cholesky,
    kron_restricted,
    logdet,
    solve_symmetric,
    spd_inverse,
    symmetrize,
)
# Not called here; perfbench/tracer.py wraps these names in this module.
from .linalg import unvec, vec  # noqa: F401

# Entries whose fixed-point argument sits within this relative distance of
# its threshold count as at a kink; support_from_estimate puts them on the
# zero branch.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
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

    Kink rule: entries whose margin is below BOUNDARY_TOL sit on a kink of
    the solution map and go on the zero branch.  They are left out of the
    returned support, so their derivative is zero: the one-sided derivative
    along which they stay zero, an element of the conservative (Clarke)
    Jacobian (Bolte, Le, Pauwels & Vaiter, NeurIPS 2021; Bertrand et al.,
    JMLR 2022).  With no entry in the band it returns ``est.support`` itself.

    Raises DegenerateSupport if, outside the band, the support of theta
    disagrees with the fixed-point reading: the estimate is off its fixed
    point.
    """
    theta = est.theta
    theta_inv = est.theta_inv
    if np.shape(cov) != theta.shape:
        raise ValueError("covariance shape does not match the estimate")
    cov = symmetrize(cov)
    thr = est.reg.thresholds(est.dim)

    diag = np.diagonal(theta_inv)
    step = 1.0 / np.outer(diag, diag)
    zhat = theta - step * (cov - theta_inv)
    t = step * thr
    gap = np.abs(np.abs(zhat) - t)
    near = gap < BOUNDARY_TOL * t  # vacuous where the threshold is zero

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
    return SupportSet.from_matrix_mask(mask_theta & ~near)


def _restricted_kron(est: PrecisionEstimate, support: SupportSet) -> Operator:
    return kron_restricted(est.theta_inv, support)


def jacobian_scalar(est: PrecisionEstimate, support: SupportSet) -> np.ndarray:
    """Derivative of the solution with respect to its scalar penalty level.

    Returns the p x p array of d theta_hat[i, j] / d lam, exactly zero off
    ``support``: the solution y of the restricted system
    K y = -sign(theta)_S, with K the restricted Kronecker square of
    theta^{-1}.  K is symmetric, so y is the adjoint solution of
    :func:`hypergradient_weighted` against -sign(theta), read back from
    its output -sign(theta) * y: sign(theta) is +-1 on the support, so
    that product undoes exactly.  It does not depend on the prox step
    gamma: the step scales both sides of the system and cancels.

    Raises SingularSystem if conjugate gradients find the restricted
    coefficient matrix not positive definite or do not converge.
    """
    sign = np.sign(est.theta)
    return -sign * hypergradient_weighted(est, support, -sign)


def hypergradient_scalar(jac: np.ndarray, grad_c: np.ndarray) -> float:
    """Chain rule for the scalar penalty: <jacobian, criterion gradient>."""
    grad_c = np.asarray(grad_c, dtype=float)
    if grad_c.shape != jac.shape:
        raise ValueError("criterion gradient shape does not match the Jacobian")
    return float(np.sum(jac * grad_c))


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
    solve y = K^{-1} vec(grad_c)_S (K is symmetric), by conjugate gradients
    preconditioned with the restricted Kronecker square of theta.  The
    solve runs on p x p matrices zero off the support: its right-hand side
    is grad_c masked to the support, its solution Y is y put back on it, and

        out = -sign(theta) * Y,   zero off the support.

    Tying every weight to one level makes its derivative the sum of the
    per-entry ones, so the sum of the returned array is the scalar-penalty
    hypergradient.
    """
    if np.shape(grad_c) != est.theta.shape:
        raise ValueError("criterion gradient shape does not match the estimate")
    grad_c = symmetrize(grad_c)
    y = solve_symmetric(
        _restricted_kron(est, support),
        np.where(support.mask, grad_c, 0.0),
        precondition=kron_restricted(est.theta, support),
        dim=len(support),
    )
    return -np.sign(est.theta) * y


def criterion_holdout(
    theta: np.ndarray | PrecisionEstimate, cov_test: np.ndarray
) -> CriterionValue:
    """Unpenalized negative log-likelihood of theta on held-out data.

    value = -logdet(theta) + <cov_test, theta>, gradient = cov_test -
    theta^{-1}.  The gradient vanishes exactly at theta = cov_test^{-1}.
    ``theta`` is a matrix, factorized here, or an estimate, whose
    ``logdet`` and ``theta_inv`` are read instead: :func:`solve` seeds
    both, so its estimates give the same values, bit for bit, with no
    factorization.  The gradient is exactly symmetric, as cov_test is
    symmetrized and theta^{-1} is mirrored.  Raises ValueError unless
    cov_test has the shape of theta.
    """
    if isinstance(theta, PrecisionEstimate):
        neg_logdet, theta_inv, theta = -theta.logdet, theta.theta_inv, theta.theta
    else:
        theta = np.asarray(theta, dtype=float)
        lower = cholesky(theta)
        neg_logdet, theta_inv = -logdet(lower), spd_inverse(lower)
    if np.shape(cov_test) != theta.shape:
        raise ValueError("covariance shape does not match theta")
    cov_test = symmetrize(cov_test)
    value = neg_logdet + float(np.sum(cov_test * theta))
    gradient = cov_test - theta_inv
    return CriterionValue(value=value, gradient=gradient)


def relative_error(theta_hat: np.ndarray, theta_true: np.ndarray) -> float:
    """Frobenius distance to the ground truth, relative to its norm."""
    theta_hat = np.asarray(theta_hat, dtype=float)
    theta_true = np.asarray(theta_true, dtype=float)
    if theta_hat.shape != theta_true.shape:
        raise ValueError("shapes differ")
    denom = float(np.linalg.norm(theta_true))
    num = float(np.linalg.norm(theta_true - theta_hat))
    if denom == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / denom
