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
    unvec,
    vec,
)

# Entries whose fixed-point argument sits within this relative distance of
# its threshold count as at a kink; support_from_estimate puts them on the
# zero branch.
BOUNDARY_TOL = 1e-6


@dataclass(frozen=True)
class ScalarJacobian:
    """Entrywise derivative of the solution with respect to a scalar penalty.

    ``values[i, j]`` is d theta_hat[i, j] / d lam; exactly zero off the
    support the Jacobian was built on.
    """

    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class WeightedHypergradient:
    """Gradient of an outer criterion with respect to per-entry weights.

    ``values[k, l]`` is d C(theta_hat(weights)) / d weights[k, l], exactly
    zero off-support.  ``y`` keeps the adjoint solve vector (one entry per
    support coordinate) for diagnostics.
    """

    values: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)


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
    cov = symmetrize(np.asarray(cov, dtype=float))
    thr = est.reg.as_matrix(est.dim)

    diag = np.diagonal(theta_inv)
    step = 1.0 / np.outer(diag, diag)
    zhat = theta - step * (cov - theta_inv)
    t = step * thr
    gap = np.abs(np.abs(zhat) - t)
    near = gap < BOUNDARY_TOL * t  # vacuous where the threshold is zero

    mask_theta = est.support.as_matrix_mask()
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


def _on_support(values: np.ndarray, support: SupportSet, p: int) -> np.ndarray:
    """Scatter one value per support coordinate into a p x p zero matrix."""
    flat = np.zeros(p * p)
    flat[support.indices] = values
    return unvec(flat, p)


def jacobian_scalar(est: PrecisionEstimate, support: SupportSet) -> ScalarJacobian:
    """Derivative of the solution with respect to its scalar penalty level.

    Solves the support-restricted system K y = -sign(vec theta)_S with
    K the restricted Kronecker square of theta^{-1}, and scatters y back
    to a p x p matrix with zeros off-support.  K is symmetric, so this is
    the adjoint solve of :func:`hypergradient_weighted` against
    -sign(theta).  The result does not depend on the prox step gamma: the
    step scales both sides of the system and cancels.

    Raises SingularSystem if conjugate gradients find the restricted
    coefficient matrix not positive definite or do not converge.
    """
    y = hypergradient_weighted(est, support, -np.sign(est.theta)).y
    return ScalarJacobian(values=_on_support(y, support, est.dim))


def hypergradient_scalar(jac: ScalarJacobian, grad_c: np.ndarray) -> float:
    """Chain rule for the scalar penalty: <jacobian, criterion gradient>."""
    grad_c = np.asarray(grad_c, dtype=float)
    if grad_c.shape != jac.values.shape:
        raise ValueError("criterion gradient shape does not match the Jacobian")
    return float(np.sum(jac.values * grad_c))


def hypergradient_weighted(
    est: PrecisionEstimate,
    support: SupportSet,
    grad_c: np.ndarray,
) -> WeightedHypergradient:
    """Gradient of the outer criterion with respect to every penalty weight.

    The derivative of the solution in weight (k, l) solves the restricted
    system against a one-hot right-hand side -sign(theta_kl) * e_pos(k,l),
    so contracting all of them against grad_c only needs the single adjoint
    solve y = K^{-1} vec(grad_c)_S (K is symmetric), by conjugate gradients
    preconditioned with the restricted Kronecker square of theta:

        out[k, l] = -sign(theta_kl) * y[pos(k, l)]   on support, else 0.

    Tying every weight to one level makes its derivative the sum of the
    per-entry ones, so the sum of ``values`` is the scalar-penalty
    hypergradient.
    """
    p = est.dim
    grad_c = symmetrize(np.asarray(grad_c, dtype=float))
    if grad_c.shape != (p, p):
        raise ValueError("criterion gradient shape does not match the estimate")
    idx = support.indices
    y = solve_symmetric(
        _restricted_kron(est, support),
        vec(grad_c)[idx],
        precondition=kron_restricted(est.theta, support),
    )
    sign_s = np.sign(vec(est.theta))[idx]
    return WeightedHypergradient(values=_on_support(-sign_s * y, support, p), y=y)


def criterion_holdout(
    theta: np.ndarray | PrecisionEstimate, cov_test: np.ndarray
) -> CriterionValue:
    """Unpenalized negative log-likelihood of theta on held-out data.

    value = -logdet(theta) + <cov_test, theta>, gradient = cov_test -
    theta^{-1}.  The gradient vanishes exactly at theta = cov_test^{-1}.
    ``theta`` is a matrix, factorized here, or an estimate, whose
    ``logdet`` and ``theta_inv`` are read instead: :func:`solve` seeds
    both, so its estimates give the same values, bit for bit, with no
    factorization.
    """
    cov_test = symmetrize(np.asarray(cov_test, dtype=float))
    if isinstance(theta, PrecisionEstimate):
        neg_logdet, theta_inv, theta = -theta.logdet, theta.theta_inv, theta.theta
    else:
        theta = np.asarray(theta, dtype=float)
        lower = cholesky(theta)
        neg_logdet, theta_inv = -logdet(lower), spd_inverse(lower)
    value = neg_logdet + float(np.sum(cov_test * theta))
    gradient = symmetrize(cov_test - theta_inv)
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
