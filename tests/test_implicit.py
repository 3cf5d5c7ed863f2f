import dataclasses

import numpy as np
import pytest

import glassotune.glasso
import glassotune.implicit
from glassotune.bilevel import lambda_init
from glassotune.exceptions import DegenerateSupport
from glassotune.glasso import (
    PrecisionEstimate,
    Regularization,
    SolverConfig,
    check_optimality,
    solve,
)
from glassotune.implicit import (
    criterion_holdout,
    hypergradient_scalar,
    hypergradient_weighted,
    jacobian_scalar,
    relative_error,
    support_from_estimate,
)
from glassotune.linalg import CG_RTOL, SupportSet, symmetrize, vec

from conftest import (
    make_instance,
    naive_weighted_hypergradient,
    random_spd,
    reference_kron_restricted,
    reference_solve_symmetric,
    support_indices,
)

TIGHT = SolverConfig(tol=1e-11)


def solved_instance(p=3, n=200, seed=0, frac=0.3):
    """A converged estimate at a generic penalty plus its covariances."""
    _, data = make_instance(p, n, seed)
    off = np.abs(data.cov_train - np.diag(np.diagonal(data.cov_train)))
    lam = frac * float(np.max(off))
    est = solve(data.cov_train, Regularization.scalar(lam), TIGHT)
    return est, data, lam


def fd_scalar_jacobian(cov, lam, h=1e-5):
    plus = solve(cov, Regularization.scalar(lam + h), TIGHT)
    minus = solve(cov, Regularization.scalar(lam - h), TIGHT)
    return (plus.theta - minus.theta) / (2.0 * h)


def fd_weight_entry(cov_train, cov_test, weights, k, l, h=1e-5):
    # Regularization symmetrizes, so bumping one entry realizes a mirrored
    # half-bump on (k, l) and (l, k); by symmetry of the criterion gradient
    # the difference quotient still equals the per-entry derivative.
    vals = []
    for s in (+1.0, -1.0):
        w = weights.copy()
        w[k, l] += s * h
        est = solve(cov_train, Regularization.matrix(w), TIGHT)
        vals.append(criterion_holdout(est.theta, cov_test).value)
    return (vals[0] - vals[1]) / (2.0 * h)


class TestSupportFromEstimate:
    def test_clean_solve_passes(self):
        est, data, _ = solved_instance()
        support = support_from_estimate(est, data.cov_train)
        assert support is est.support

    def test_zero_penalty_gives_full_support(self, rng):
        cov = random_spd(rng, 3)
        est = solve(cov, Regularization.scalar(0.0), TIGHT)
        support = support_from_estimate(est, cov)
        assert len(support) == 9

    def test_kink_at_smallest_all_zero_penalty(self):
        # At lam equal to the largest off-diagonal covariance entry the
        # solution is diagonal and that entry's fixed-point argument lands
        # exactly on its threshold.  Above lam0 the entry stays zero, below
        # it the entry enters the support, so the one-sided derivatives
        # differ.  The zero branch is the right-sided one: the diagonal
        # closed form d theta_ii / d lam = -theta_ii^2.
        _, data = make_instance(4, 100, seed=2)
        off = np.abs(data.cov_train - np.diag(np.diagonal(data.cov_train)))
        lam0 = float(np.max(off))
        est = solve(data.cov_train, Regularization.scalar(lam0), TIGHT)
        support = support_from_estimate(est, data.cov_train)
        mask = support.mask
        np.testing.assert_array_equal(mask, np.eye(4, dtype=bool))
        np.testing.assert_array_equal(mask, mask.T)
        assert np.all(est.support.mask[mask])

        jac = jacobian_scalar(est, support)
        np.testing.assert_allclose(jac, np.diag(-np.diagonal(est.theta) ** 2), atol=1e-12)
        h = 1e-5
        right = solve(data.cov_train, Regularization.scalar(lam0 + h), TIGHT)
        left = solve(data.cov_train, Regularization.scalar(lam0 - h), TIGHT)
        fd_right = (right.theta - est.theta) / h
        fd_left = (est.theta - left.theta) / h
        np.testing.assert_allclose(jac, fd_right, rtol=1e-3, atol=1e-7)
        assert np.max(np.abs(fd_left - jac)) > 0.1 * np.max(np.abs(jac))

    def test_band_entry_on_support_goes_on_zero_branch(self):
        # Just below lam0 the kink entry is on theta's support, with a
        # margin far inside BOUNDARY_TOL; the rule drops it and its mirror.
        _, data = make_instance(4, 100, seed=2)
        off = np.abs(data.cov_train - np.diag(np.diagonal(data.cov_train)))
        lam0 = float(np.max(off))
        est = solve(data.cov_train, Regularization.scalar(lam0 - 1e-8), TIGHT)
        assert len(est.support) == 6
        support = support_from_estimate(est, data.cov_train)
        np.testing.assert_array_equal(support.mask, np.eye(4, dtype=bool))

    def test_small_backoff_clears_the_kink(self):
        _, data = make_instance(4, 100, seed=2)
        off = np.abs(data.cov_train - np.diag(np.diagonal(data.cov_train)))
        lam0 = float(np.max(off))
        est = solve(data.cov_train, Regularization.scalar(1.001 * lam0), TIGHT)
        support = support_from_estimate(est, data.cov_train)
        assert len(support) == 4  # diagonal only

    @pytest.mark.parametrize("tol, factor, on_zero_branch", [
        (1e-8, 0.5, True),
        (1e-8, 3.0, False),
        (0.0, 0.5, False),  # a hand-built estimate keeps the relative band
    ])
    def test_band_edge_is_the_solver_tolerance(self, tol, factor, on_zero_branch):
        # theta = I is exactly stationary on its diagonal support at lam =
        # 1e-3 when cov_ii = 1 - lam.  The off-support pair (0, 1) violates
        # |W - cov| <= lam by factor * 1e-8, above the relative band
        # (BOUNDARY_TOL * lam = 1e-9): a violation a solve certified to
        # tol = 1e-8 may leave goes on the zero branch, three times it
        # means the estimate is off its fixed point.
        lam, violation = 1e-3, factor * 1e-8
        cov = (1.0 - lam) * np.eye(3)
        cov[0, 1] = cov[1, 0] = lam + violation
        est = PrecisionEstimate(theta=np.eye(3), reg=Regularization.scalar(lam), gamma=1.0,
                                support=SupportSet(np.eye(3, dtype=bool)),
                                fixed_point_residual=violation, iterations=1, tol=tol)
        if on_zero_branch:
            support = support_from_estimate(est, cov)
            np.testing.assert_array_equal(support.mask, np.eye(3, dtype=bool))
        else:
            with pytest.raises(DegenerateSupport, match="disagrees"):
                support_from_estimate(est, cov)

    def test_forged_support_is_rejected(self, rng):
        cov = random_spd(rng, 3)
        lam = 2.0 * float(np.max(np.abs(cov - np.diag(np.diagonal(cov)))))
        est = solve(cov, Regularization.scalar(lam), TIGHT)
        forged = dataclasses.replace(
            est, support=SupportSet.from_matrix_mask(np.ones((3, 3), dtype=bool))
        )
        with pytest.raises(DegenerateSupport, match="disagrees"):
            support_from_estimate(forged, cov)


class TestJacobianScalar:
    def test_diagonal_closed_form(self, rng):
        # Diagonal regime: theta_ii = 1/(S_ii + lam), so the derivative is
        # -1/(S_ii + lam)^2 on the diagonal and zero elsewhere.
        cov = random_spd(rng, 4)
        lam = 2.0 * float(np.max(np.abs(cov - np.diag(np.diagonal(cov)))))
        est = solve(cov, Regularization.scalar(lam), TIGHT)
        support = support_from_estimate(est, cov)
        jac = jacobian_scalar(est, support)
        cov_sym = symmetrize(cov)
        expected = np.diag(-1.0 / (np.diagonal(cov_sym) + lam) ** 2)
        np.testing.assert_allclose(jac, expected, atol=1e-10)

    def test_matches_finite_differences(self):
        est, data, lam = solved_instance(seed=1)
        support = support_from_estimate(est, data.cov_train)
        jac = jacobian_scalar(est, support)
        fd = fd_scalar_jacobian(data.cov_train, lam)
        on = support.mask
        np.testing.assert_allclose(jac[on], fd[on], rtol=1e-3, atol=1e-9)

    def test_zero_off_support(self):
        est, data, _ = solved_instance(seed=3)
        support = support_from_estimate(est, data.cov_train)
        jac = jacobian_scalar(est, support)
        off = ~support.mask
        assert np.all(jac[off] == 0.0)

    def test_independent_of_gamma(self):
        # The prox step scales both sides of the restricted system, so the
        # derivative cannot depend on it.
        est, data, _ = solved_instance(seed=4)
        support = support_from_estimate(est, data.cov_train)
        values = [
            jacobian_scalar(dataclasses.replace(est, gamma=g), support)
            for g in (0.1, 1.0, 10.0)
        ]
        assert np.max(np.abs(values[0] - values[1])) <= 1e-12
        assert np.max(np.abs(values[0] - values[2])) <= 1e-12

    def test_satisfies_restricted_system(self):
        # Independent residual check: assemble the full Kronecker square of
        # theta^{-1}, restrict it, and verify K_SS @ vec(jac)_S = -sign_S.
        est, data, _ = solved_instance(seed=5)
        support = support_from_estimate(est, data.cov_train)
        jac = jacobian_scalar(est, support)
        theta_inv = np.linalg.inv(est.theta)
        k_full = np.kron(theta_inv, theta_inv)
        idx = support_indices(support)
        lhs = k_full[np.ix_(idx, idx)] @ vec(jac)[idx]
        rhs = -np.sign(vec(est.theta))[idx]
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_full_support_at_p150_closed_form(self, rng):
        # On the full support the restricted system is all of W kron W with
        # W = theta^{-1}, whose inverse is theta kron theta, so the Jacobian
        # is -theta sign(theta) theta.  |S| = 22,500 would be a 4 GB dense
        # block; the matrix-free solve needs O(p**2) memory.
        p = 150
        theta = random_spd(rng, p)
        est = PrecisionEstimate(
            theta=theta,
            reg=Regularization.scalar(0.1),
            gamma=1.0,
            support=SupportSet.from_matrix_mask(np.ones((p, p), dtype=bool)),
            fixed_point_residual=0.0,
            iterations=0,
        )
        expected = -theta @ np.sign(theta) @ theta
        jac = jacobian_scalar(est, est.support)
        err = np.linalg.norm(jac - expected) / np.linalg.norm(expected)
        assert err <= 1e-10

    def test_rejects_mismatched_support(self, rng):
        est, data, _ = solved_instance(seed=1)
        with pytest.raises(ValueError):
            jacobian_scalar(est, SupportSet.from_matrix_mask(np.ones((4, 4), dtype=bool)))


class TestHypergradientScalar:
    def test_chain_rule_value(self):
        est, data, _ = solved_instance(seed=6)
        support = support_from_estimate(est, data.cov_train)
        jac = jacobian_scalar(est, support)
        grad_c = criterion_holdout(est.theta, data.cov_test).gradient
        expected = float(np.sum(jac * grad_c))
        assert hypergradient_scalar(jac, grad_c) == expected

    def test_matches_finite_differences(self):
        est, data, lam = solved_instance(seed=7)
        support = support_from_estimate(est, data.cov_train)
        jac = jacobian_scalar(est, support)
        grad_c = criterion_holdout(est.theta, data.cov_test).gradient
        got = hypergradient_scalar(jac, grad_c)
        h = 1e-5
        c = [
            criterion_holdout(
                solve(data.cov_train, Regularization.scalar(lam + s * h), TIGHT).theta,
                data.cov_test,
            ).value
            for s in (+1.0, -1.0)
        ]
        fd = (c[0] - c[1]) / (2.0 * h)
        assert abs(got - fd) <= 1e-3 * max(abs(fd), 1e-12)

    def test_shape_mismatch(self):
        est, data, _ = solved_instance(seed=6)
        support = support_from_estimate(est, data.cov_train)
        jac = jacobian_scalar(est, support)
        with pytest.raises(ValueError):
            hypergradient_scalar(jac, np.zeros((2, 2)))


class TestHypergradientWeighted:
    def test_adjoint_matches_naive(self):
        for seed in (0, 1, 2):
            est, data, _ = solved_instance(seed=seed)
            support = support_from_estimate(est, data.cov_train)
            grad_c = criterion_holdout(est.theta, data.cov_test).gradient
            fast = hypergradient_weighted(est, support, grad_c)
            slow = naive_weighted_hypergradient(est, support, grad_c)
            assert np.max(np.abs(fast - slow)) <= 1e-10

    def test_matches_finite_differences(self):
        est, data, lam = solved_instance(seed=8)
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est.theta, data.cov_test).gradient
        hyper = hypergradient_weighted(est, support, grad_c)
        weights = np.full((3, 3), lam)
        mask = support.mask
        checked = 0
        for k in range(3):
            for l in range(k, 3):
                if not mask[k, l]:
                    continue
                fd = fd_weight_entry(data.cov_train, data.cov_test, weights, k, l)
                assert abs(hyper[k, l] - fd) <= 1e-3 * max(abs(fd), 1e-8)
                checked += 1
        assert checked >= 3

    def test_zero_off_support(self):
        est, data, _ = solved_instance(seed=9)
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est.theta, data.cov_test).gradient
        hyper = hypergradient_weighted(est, support, grad_c)
        off = ~support.mask
        assert np.all(hyper[off] == 0.0)

    def test_entries_sum_to_scalar_hypergradient(self):
        # With a constant weight matrix, moving the level is the same as
        # moving every entry at once, so the per-entry gradients sum to the
        # scalar one.
        est, data, _ = solved_instance(seed=10)
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est.theta, data.cov_test).gradient
        total = float(np.sum(hypergradient_weighted(est, support, grad_c)))
        scalar = hypergradient_scalar(jacobian_scalar(est, support), grad_c)
        assert abs(total - scalar) <= 1e-10 * max(1.0, abs(scalar))

    def test_symmetric_output(self, data_p100_seed0):
        # The criterion gradient is exactly symmetric by construction, the
        # hypergradient by the one symmetrization of its adjoint solution.  On a
        # p=3 instance (the matrix form of the criterion) and on the CLI's
        # p=100 seed-0 data near its best level (the estimate form).
        est3, data3, _ = solved_instance(seed=11)
        est100 = solve(data_p100_seed0.cov_train, Regularization.scalar(0.018))
        for est, data, theta in ((est3, data3, est3.theta),
                                 (est100, data_p100_seed0, est100)):
            support = support_from_estimate(est, data.cov_train)
            grad_c = criterion_holdout(theta, data.cov_test).gradient
            assert np.array_equal(grad_c, grad_c.T)
            hyper = hypergradient_weighted(est, support, grad_c)
            np.testing.assert_array_equal(hyper, hyper.T)

    def test_shape_mismatch(self):
        est, data, _ = solved_instance(seed=9)
        support = support_from_estimate(est, data.cov_train)
        with pytest.raises(ValueError):
            hypergradient_weighted(est, support, np.zeros((2, 2)))


class TestCriterionHoldout:
    def test_hand_computed(self):
        out = criterion_holdout(np.eye(2), np.eye(2))
        assert out.value == pytest.approx(2.0)
        np.testing.assert_allclose(out.gradient, np.zeros((2, 2)), atol=1e-15)

    def test_gradient_vanishes_at_inverse(self, rng):
        cov = random_spd(rng, 4)
        out = criterion_holdout(np.linalg.inv(cov), cov)
        assert np.max(np.abs(out.gradient)) <= 1e-10

    def test_gradient_matches_directional_difference(self, rng):
        theta = random_spd(rng, 3)
        cov = random_spd(rng, 3)
        out = criterion_holdout(theta, cov)
        delta = symmetrize(rng.standard_normal((3, 3)))
        h = 1e-6
        fd = (
            criterion_holdout(theta + h * delta, cov).value
            - criterion_holdout(theta - h * delta, cov).value
        ) / (2.0 * h)
        assert abs(float(np.sum(out.gradient * delta)) - fd) <= 1e-5 * max(1.0, abs(fd))

    def test_asymmetric_theta_counts_as_its_symmetric_part(self):
        # The log-determinant reads the lower triangle only and the trace
        # both, so this theta unsymmetrized would give 2.3119.
        theta = np.array([[2.0, 0.9], [0.1, 1.0]])
        out = criterion_holdout(theta, np.eye(2))
        ref = criterion_holdout(symmetrize(theta), np.eye(2))
        assert out.value == ref.value == pytest.approx(2.4404, abs=1e-4)
        assert np.array_equal(out.gradient, ref.gradient)

    def test_estimate_form_bit_identical_without_factorizing(self, monkeypatch):
        # Warm-started solves, as in a grid sweep or a descent.
        _, data = make_instance(30, 600, seed=3, density=0.1)
        warm = None
        for lam in (0.2, 0.05, 0.02):
            est = solve(data.cov_train, Regularization.scalar(lam), warm_start=warm)
            warm = est
            by_matrix = criterion_holdout(est.theta, data.cov_test)
            with monkeypatch.context() as m:
                for module in (glassotune.glasso, glassotune.implicit):
                    m.setattr(module, "cholesky", _no_factorization)
                by_estimate = criterion_holdout(est, data.cov_test)
            assert by_estimate.value == by_matrix.value
            assert np.array_equal(by_estimate.gradient, by_matrix.gradient)


def _no_factorization(a):
    raise AssertionError("theta was factorized again")


# Every matrix argument the package checks: (argument name, whether its
# shape is fixed by another matrix of the call, the call given a 5 x 5
# estimate and the argument).
MATRIX_ARGUMENTS = {
    "criterion_holdout": ("cov_test", True, criterion_holdout),
    "criterion_holdout-matrix": (
        "cov_test", True, lambda est, a: criterion_holdout(est.theta, a)),
    "criterion_holdout-theta": (
        "theta", False, lambda est, a: criterion_holdout(a, est.theta_inv)),
    "check_optimality": ("cov", True, check_optimality),
    "support_from_estimate": ("cov", True, support_from_estimate),
    "hypergradient_weighted": (
        "grad_c", True, lambda est, a: hypergradient_weighted(est, est.support, a)),
    "hypergradient_scalar": (
        "grad_c", True, lambda est, a: hypergradient_scalar(est.theta, a)),
    "hypergradient_scalar-jac": (
        "jac", False, lambda est, a: hypergradient_scalar(a, est.theta)),
    "relative_error": ("theta_hat", False, lambda est, a: relative_error(a, est.theta)),
    "relative_error-theta_true": (
        "theta_true", True, lambda est, a: relative_error(est.theta, a)),
    "solve-warm_start-estimate": (
        "warm_start", True,
        lambda est, a: solve(est.theta_inv, est.reg, warm_start=dataclasses.replace(
            est, theta=np.asarray(a, dtype=float)))),
    "solve": ("cov", False, lambda est, a: solve(a, est.reg)),
    "Regularization": ("weights", False, lambda est, a: Regularization.matrix(a)),
    "lambda_init": ("cov_train", False, lambda est, a: lambda_init(a)),
}


@pytest.mark.parametrize("check", MATRIX_ARGUMENTS)
def test_input_of_another_shape_raises(check):
    name, has_reference, call = MATRIX_ARGUMENTS[check]
    est, _, _ = solved_instance(p=5, seed=0)
    # Each of these shapes would broadcast against a 5 x 5 theta; a 1 x 1
    # matrix is valid where no other matrix fixes the shape.
    shapes = ([[1.0]],) if has_reference else ()
    for bad in shapes + (np.ones(5), np.ones((1, 5)), np.ones((5, 1))):
        with pytest.raises(ValueError, match=f"^{name} .*shape"):
            call(est, bad)
    for value in (np.nan, np.inf):
        bad = est.theta.copy()
        bad[0, 1] = value
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            call(est, bad)


# Each matrix argument of the two plain-matrix entry points: the call
# given that argument and a fixed asymmetric partner.
ASYMMETRIC_ARGUMENTS = {
    "relative_error-theta_hat": lambda a, b: relative_error(a, b),
    "relative_error-theta_true": lambda a, b: relative_error(b, a),
    "hypergradient_scalar-jac": lambda a, b: hypergradient_scalar(a, b),
    "hypergradient_scalar-grad_c": lambda a, b: hypergradient_scalar(b, a),
}


@pytest.mark.parametrize("check", ASYMMETRIC_ARGUMENTS)
def test_asymmetric_argument_counts_as_its_symmetric_part(check):
    # Unsymmetrized, relative_error([[1, 1], [0, 1]], 2I) gave 0.6124 and
    # hypergradient_scalar([[1, 2], [0, 1]], [[0, 1], [0, 0]]) gave 2.0.
    call = ASYMMETRIC_ARGUMENTS[check]
    a = np.array([[1.0, 2.0], [0.0, 1.0]])
    partner = np.array([[2.0, 0.5], [0.0, 3.0]])
    assert call(a, partner) == call(symmetrize(a), partner)
    assert call(a, partner) != call(np.array([[1.0, 2.0], [2.0, 1.0]]), partner)


@pytest.fixture(scope="module")
def data_p100_seed0():
    """Train and test split of the CLI's default p=100 data (seed 0)."""
    return make_instance(100, 2000, seed=0, density=0.05)[1]


class TestNonFiniteInputEndToEnd:
    # Unchecked, a NaN on the diagonal ran into the adjoint solve
    # (SingularSystem, "not positive definite") or the support check
    # (DegenerateSupport, "off its fixed point"), one off the support was
    # masked away unseen, check_optimality returned nan and an inf in the
    # held-out covariance an infinite criterion.
    @pytest.fixture(scope="class")
    def solved(self, data_p100_seed0):
        return solve(data_p100_seed0.cov_train, Regularization.scalar(0.018)), data_p100_seed0

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_nan_in_criterion_gradient(self, solved, where):
        est, data = solved
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est, data.cov_test).gradient.copy()
        grad_c[where] = grad_c[where[::-1]] = np.nan
        with pytest.raises(ValueError, match="grad_c must be finite"):
            hypergradient_weighted(est, support, grad_c)

    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_nan_in_training_covariance(self, solved, where):
        est, data = solved
        cov = data.cov_train.copy()
        cov[where] = cov[where[::-1]] = np.nan
        for check in (support_from_estimate, check_optimality):
            with pytest.raises(ValueError, match="cov must be finite"):
                check(est, cov)

    def test_inf_in_holdout_covariance(self):
        _, data = make_instance(8, 160, seed=0, density=0.05)
        est = solve(data.cov_train, Regularization.scalar(0.1))
        cov_test = data.cov_test.copy()
        cov_test[0, 0] = np.inf
        for theta in (est, est.theta):
            with pytest.raises(ValueError, match="cov_test must be finite"):
                criterion_holdout(theta, cov_test)


class TestSymmetrizeReferenceEndToEnd:
    # The solver's Newton step and the adjoint solve give the same bits
    # with the mask-only reference product patched in where glasso and
    # implicit look the operator up.
    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_solve_and_adjoint_bit_identical(self, data_p100_seed0, monkeypatch, lam):
        data = data_p100_seed0

        def run():
            est = solve(data.cov_train, Regularization.scalar(lam))
            support = support_from_estimate(est, data.cov_train)
            grad_c = criterion_holdout(est, data.cov_test).gradient
            return est, hypergradient_weighted(est, support, grad_c)

        est, hyper = run()
        products = {}
        for module in (glassotune.glasso, glassotune.implicit):
            monkeypatch.setattr(module, "kron_restricted",
                                _counting_reference(products, module.__name__))
        ref, hyper_ref = run()
        # Both modules multiply by the patched reference, so the equalities
        # below compare two product implementations.
        assert products["glassotune.glasso"] > 0
        assert products["glassotune.implicit"] > 0
        assert est.newton_steps > 0
        assert np.array_equal(est.theta, ref.theta)
        assert est.iterations == ref.iterations
        assert est.newton_steps == ref.newton_steps
        assert np.array_equal(hyper, hyper_ref)


def _counting_reference(products, name):
    """The reference operator factory, counting the products it makes."""
    products[name] = 0

    def factory(w, support):
        apply = reference_kron_restricted(w, support)

        def counted(x):
            products[name] += 1
            return apply(x)

        return counted

    return factory


class TestAdjointReferenceBits:
    # For a given estimate the adjoint gives the bits of the float64
    # reference, the mask-only products and the allocating
    # conjugate gradients patched in where implicit looks them up: the
    # in-place masking and the in-place updates change no bit of it.
    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_hypergradient_bit_identical(self, data_p100_seed0, monkeypatch, lam):
        data = data_p100_seed0
        est = solve(data.cov_train, Regularization.scalar(lam))
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est, data.cov_test).gradient
        hyper = hypergradient_weighted(est, support, grad_c)
        products = {}
        monkeypatch.setattr(glassotune.implicit, "kron_restricted",
                            _counting_reference(products, "implicit"))
        monkeypatch.setattr(glassotune.implicit, "solve_symmetric",
                            reference_solve_symmetric)
        assert np.array_equal(hyper, hypergradient_weighted(est, support, grad_c))
        assert products["implicit"] > 0


class TestOneSymmetrizationPerSolve:
    # The restricted products are symmetric only to round-off, so what
    # conjugate gradients return is not exactly symmetric; each solve
    # symmetrizes its solution once, and what it hands on is.  The raw
    # solutions are recorded where glasso and implicit call the solver;
    # the Newton direction added to theta is read off the trial that the
    # step factorizes next.
    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_raw_solutions_asymmetric_handed_on_symmetric(
        self, data_p100_seed0, monkeypatch, lam
    ):
        data = data_p100_seed0
        raw = {"glasso": [], "implicit": []}
        steps = []
        theta = [None]
        for module, key in ((glassotune.glasso, "glasso"),
                            (glassotune.implicit, "implicit")):
            def recording(*args, _real=module.solve_symmetric, _key=key, **kwargs):
                x = _real(*args, **kwargs)
                raw[_key].append(x.copy())
                return x

            monkeypatch.setattr(module, "solve_symmetric", recording)
        real_step = glassotune.glasso._newton_step
        real_cholesky = glassotune.glasso.cholesky

        def newton_step(*args):
            theta[0] = args[2]
            try:
                return real_step(*args)
            finally:
                theta[0] = None

        def cholesky(a):
            # The first factorization after a Newton solve is its trial.
            if theta[0] is not None and len(steps) < len(raw["glasso"]):
                steps.append(a - theta[0])
            return real_cholesky(a)

        monkeypatch.setattr(glassotune.glasso, "_newton_step", newton_step)
        monkeypatch.setattr(glassotune.glasso, "cholesky", cholesky)
        est = solve(data.cov_train, Regularization.scalar(lam))
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est, data.cov_test).gradient
        hyper = hypergradient_weighted(est, support, grad_c)

        assert raw["glasso"] and len(steps) == len(raw["glasso"])
        for d, step in zip(raw["glasso"], steps):
            assert not np.array_equal(d, d.T)
            assert np.array_equal(step, step.T)
        [y] = raw["implicit"]
        assert not np.array_equal(y, y.T)
        handed_on = -np.sign(est.theta) * hyper
        assert np.array_equal(handed_on, handed_on.T)
        assert np.array_equal(handed_on, (y + y.T) * 0.5)


class TestAdjointTolerance:
    # The adjoint stops at the relative residual max(CG_RTOL, est.tol): an
    # estimate certified to tol = 1e-8 moves the hypergradient by more than
    # a tighter adjoint could resolve, and a hand-built estimate, tol 0,
    # keeps the CG_RTOL solve.
    @staticmethod
    def _adjoint(est, support, grad_c, monkeypatch):
        """The adjoint and the number of products with K it took."""
        products = [0]
        real = glassotune.implicit._restricted_kron

        def factory(est, support):
            apply = real(est, support)

            def counted(x):
                products[0] += 1
                return apply(x)

            return counted

        with monkeypatch.context() as patch:
            patch.setattr(glassotune.implicit, "_restricted_kron", factory)
            return hypergradient_weighted(est, support, grad_c), products[0]

    @pytest.mark.parametrize("tuner", ["scalar", "matrix"])
    @pytest.mark.parametrize("lam", [0.1, 0.018])  # far from lambda* and at it
    def test_within_1e7_of_the_strict_adjoint(self, data_p100_seed0, monkeypatch, tuner, lam):
        data = data_p100_seed0
        reg = (Regularization.scalar(lam) if tuner == "scalar"
               else Regularization.matrix(np.full((100, 100), lam)))
        est = solve(data.cov_train, reg, SolverConfig(tol=1e-8))
        assert est.tol == 1e-8
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est, data.cov_test).gradient
        loose, loose_products = self._adjoint(est, support, grad_c, monkeypatch)
        strict, strict_products = self._adjoint(
            dataclasses.replace(est, tol=0.0), support, grad_c, monkeypatch)
        # g_alpha as each tuner forms it: the level times the summed
        # gradient, or each weight times its own entry.
        if tuner == "scalar":
            assert abs(lam * np.sum(loose) - lam * np.sum(strict)) <= 1e-7
        else:
            assert np.max(np.abs(est.reg.weights * (loose - strict))) <= 1e-7
        assert loose_products < strict_products

    def test_hand_built_estimate_keeps_the_strict_adjoint(self, data_p100_seed0, monkeypatch):
        data = data_p100_seed0
        solved = solve(data.cov_train, Regularization.scalar(0.018))
        est = PrecisionEstimate(theta=solved.theta, reg=solved.reg, gamma=solved.gamma,
                                support=solved.support,
                                fixed_point_residual=solved.fixed_point_residual,
                                iterations=solved.iterations)
        assert est.tol == 0.0
        support = support_from_estimate(est, data.cov_train)
        grad_c = criterion_holdout(est, data.cov_test).gradient
        outputs = (hypergradient_weighted(est, support, grad_c),
                   jacobian_scalar(est, support))
        # The same calls with conjugate gradients at their default stop.
        rtols = []
        real = glassotune.implicit.solve_symmetric

        def default_stop(apply, rhs, precondition, rtol, *, dim):
            rtols.append(rtol)
            return real(apply, rhs, precondition, dim=dim)

        monkeypatch.setattr(glassotune.implicit, "solve_symmetric", default_stop)
        assert np.array_equal(outputs[0], hypergradient_weighted(est, support, grad_c))
        assert np.array_equal(outputs[1], jacobian_scalar(est, support))
        assert rtols == [CG_RTOL, CG_RTOL]


class TestRelativeError:
    def test_exact_match(self):
        assert relative_error(np.eye(3), np.eye(3)) == 0.0

    def test_zero_estimate(self):
        assert relative_error(np.zeros((2, 2)), np.eye(2)) == 1.0

    def test_zero_truth(self):
        assert relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0
        assert relative_error(np.eye(2), np.zeros((2, 2))) == float("inf")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.eye(2), np.eye(3))
