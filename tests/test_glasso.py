import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import glassotune.glasso
import glassotune.implicit
from glassotune.exceptions import NotConverged, NotPositiveDefinite, SingularSystem
from glassotune.glasso import (
    PrecisionEstimate,
    Regularization,
    SolverConfig,
    check_optimality,
    soft_threshold,
    solve,
)
from glassotune.implicit import (
    criterion_holdout,
    hypergradient_weighted,
    support_from_estimate,
)
from glassotune.linalg import (
    SupportSet,
    cholesky,
    kron_restricted,
    logdet,
    solve_symmetric,
    spd_inverse,
    symmetrize,
)

from conftest import make_instance, random_spd


def two_by_two_oracle(cov: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form 2x2 solution with a scalar penalty.

    Stationarity pins the inverse W of the solution: W_ii = S_ii + lam
    (the diagonal of an SPD matrix is positive), and because a 2x2 inverse
    flips the sign of the off-diagonal entry, W_12 = soft_threshold(S_12, lam).
    """
    w = np.array(
        [
            [cov[0, 0] + lam, 0.0],
            [0.0, cov[1, 1] + lam],
        ]
    )
    s12 = cov[0, 1]
    w[0, 1] = w[1, 0] = np.sign(s12) * max(abs(s12) - lam, 0.0)
    return np.linalg.inv(w)


class TestSoftThreshold:
    def test_examples(self):
        z = np.array([3.0, -2.0, 0.5, 0.0])
        np.testing.assert_array_equal(
            soft_threshold(z, np.full(4, 1.0)), [2.0, -1.0, 0.0, 0.0]
        )

    def test_zero_threshold_is_identity(self):
        z = np.array([[1.5, -0.2], [0.0, 3.0]])
        np.testing.assert_array_equal(soft_threshold(z, np.zeros((2, 2))), z)

    def test_entrywise_thresholds(self):
        z = np.array([2.0, 2.0])
        t = np.array([0.5, 3.0])
        np.testing.assert_array_equal(soft_threshold(z, t), [1.5, 0.0])

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12),
        t=st.floats(0.0, 1e6),
    )
    def test_scalar_threshold_matches_definition(self, z, t):
        z = np.array(z)
        np.testing.assert_array_equal(
            soft_threshold(z, t), np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
            min_size=1, max_size=12,
        )
    )
    def test_array_thresholds_match_definition(self, pairs):
        z, t = (np.array(c) for c in zip(*pairs))
        np.testing.assert_array_equal(
            soft_threshold(z, t), np.sign(z) * np.maximum(np.abs(z) - t, 0.0)
        )


class TestRegularization:
    def test_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            Regularization()
        with pytest.raises(ValueError):
            Regularization(lam=0.1, weights=np.ones((2, 2)))

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            Regularization.scalar(-0.1)
        with pytest.raises(ValueError):
            Regularization.scalar(float("inf"))
        assert Regularization.scalar(0.0).lam == 0.0

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Regularization.matrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            Regularization.matrix(np.array([[0.1, -0.2], [-0.2, 0.1]]))
        with pytest.raises(ValueError):
            Regularization.matrix(np.array([[0.1, np.nan], [np.nan, 0.1]]))

    def test_weights_are_symmetrized(self):
        reg = Regularization.matrix(np.array([[0.0, 1.0], [3.0, 0.0]]))
        np.testing.assert_array_equal(reg.weights, [[0.0, 2.0], [2.0, 0.0]])

    def test_scalar_thresholds_are_the_level(self):
        thr = Regularization.scalar(0.3).thresholds(2)
        assert type(thr) is float and thr == 0.3

    def test_matrix_thresholds_check_dim(self):
        # A 1 x 1 matrix would broadcast against any p x p problem.
        for size in (2, 1):
            reg = Regularization.matrix(np.ones((size, size)))
            with pytest.raises(ValueError):
                reg.thresholds(3)

    def test_matrix_thresholds_are_the_stored_read_only_weights(self):
        reg = Regularization.matrix(np.ones((2, 2)))
        out = reg.thresholds(2)
        assert out is reg.weights
        with pytest.raises(ValueError):
            out[0, 0] = 99.0
        assert reg.weights[0, 0] == 1.0

    def test_flags(self):
        assert Regularization.scalar(0.1).is_scalar
        assert not Regularization.matrix(np.ones((3, 3))).is_scalar

    def test_scalar_form_never_equals_matrix_form(self):
        scalar, matrix = Regularization.scalar(1.0), Regularization.matrix(np.ones((2, 2)))
        assert scalar != matrix and matrix != scalar
        assert scalar != 1.0


class TestSolverConfig:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert (cfg.tol, cfg.support_tol) == (1e-8, 1e-10)
        assert glassotune.glasso.MAX_ITER == 10000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": float("inf")},
            {"tol": 0.0},
            {"tol": -1.0},
            {"tol": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestSolveDiagonal:
    # Above the largest off-diagonal covariance entry the penalty zeroes
    # every off-diagonal entry and the solution is diag(1 / (S_ii + lam)).

    @pytest.mark.parametrize("scale", [1.0, 1.5, 10.0])
    def test_closed_form(self, rng, scale):
        cov = random_spd(rng, 4)
        lam = scale * np.max(np.abs(cov - np.diag(np.diagonal(cov))))
        est = solve(cov, Regularization.scalar(lam))
        off = ~np.eye(4, dtype=bool)
        assert np.max(np.abs(est.theta[off])) <= 1e-12
        np.testing.assert_allclose(
            np.diagonal(est.theta), 1.0 / (np.diagonal(cov) + lam), atol=1e-12
        )

    def test_initial_iterate_is_exact(self, rng):
        cov = random_spd(rng, 3)
        lam = 2.0 * np.max(np.abs(cov - np.diag(np.diagonal(cov))))
        est = solve(cov, Regularization.scalar(lam))
        assert est.iterations == 0
        assert est.support.mask.tolist() == np.eye(3, dtype=bool).tolist()


class TestSolveTwoByTwo:
    @pytest.mark.parametrize("lam", [0.05, 0.3, 0.7])
    def test_matches_closed_form_active(self, lam):
        cov = np.array([[2.0, 0.8], [0.8, 1.5]])
        est = solve(cov, Regularization.scalar(lam), SolverConfig(tol=1e-10))
        np.testing.assert_allclose(est.theta, two_by_two_oracle(cov, lam), atol=1e-8)

    def test_matches_closed_form_inactive(self):
        cov = np.array([[2.0, 0.8], [0.8, 1.5]])
        est = solve(cov, Regularization.scalar(0.9), SolverConfig(tol=1e-10))
        np.testing.assert_allclose(est.theta, two_by_two_oracle(cov, 0.9), atol=1e-8)
        assert est.support.mask.tolist() == [[True, False], [False, True]]

    def test_negative_coupling(self):
        cov = np.array([[1.2, -0.6], [-0.6, 2.0]])
        est = solve(cov, Regularization.scalar(0.2), SolverConfig(tol=1e-10))
        np.testing.assert_allclose(est.theta, two_by_two_oracle(cov, 0.2), atol=1e-8)
        assert est.theta[0, 1] > 0  # inverse flips the off-diagonal sign


class TestSolveExactSymmetry:
    # No iterate is re-symmetrized, so symmetry must hold bit for bit.
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "estimate-warm"])
    @pytest.mark.parametrize("scalar", [True, False], ids=["scalar", "weighted"])
    def test_theta_is_exactly_symmetric(self, rng, scalar, warm):
        cov = random_spd(rng, 12)
        reg = (Regularization.scalar(0.3) if scalar
               else Regularization.matrix(rng.uniform(0.05, 0.6, size=(12, 12))))
        start = solve(cov, Regularization.scalar(0.05)) if warm else None
        est = solve(cov, reg, warm_start=start)
        assert est.iterations > 0
        np.testing.assert_array_equal(est.theta, est.theta.T)


def count_newton_steps(monkeypatch):
    """Count the Newton steps solve tries, the ones it accepts and the
    trials it rejects for not being positive definite."""
    real = glassotune.glasso._newton_step
    real_cholesky = glassotune.glasso.cholesky
    calls = {"tried": 0, "accepted": 0, "not_spd": 0}
    inside = [False]

    def cholesky(a):
        try:
            return real_cholesky(a)
        except NotPositiveDefinite:
            calls["not_spd"] += inside[0]
            raise

    def counted(*args):
        inside[0] = True
        try:
            step = real(*args)
        finally:
            inside[0] = False
        calls["tried"] += 1
        calls["accepted"] += step is not None
        return step

    monkeypatch.setattr(glassotune.glasso, "cholesky", cholesky)
    monkeypatch.setattr(glassotune.glasso, "_newton_step", counted)
    return calls


def record_steps(monkeypatch, newton_step=None):
    """Record what :func:`solve` calls, for :func:`parse_steps` to read.

    ``newton_step`` stands in for ``_newton_step`` if given.
    """
    events = []
    real_prox = glassotune.glasso.soft_threshold
    real_inverse = glassotune.glasso.spd_inverse
    real_newton = newton_step or glassotune.glasso._newton_step

    def prox(*args):
        events.append(("prox", real_prox(*args)))
        return events[-1][1]

    def inverse(*args):
        events.append(("inverse",))
        return real_inverse(*args)

    def newton(*args):
        step = real_newton(*args)
        events.append(("newton", args, step))
        return step

    monkeypatch.setattr(glassotune.glasso, "soft_threshold", prox)
    monkeypatch.setattr(glassotune.glasso, "spd_inverse", inverse)
    monkeypatch.setattr(glassotune.glasso, "_newton_step", newton)
    return events


def record_iterates(monkeypatch):
    """The iterates :func:`solve` accepts, its start first.

    An iterate is accepted when its Cholesky factor is inverted, and solve
    inverts only the factor it formed last.
    """
    iterates, last = [], [None, None]
    real_cholesky = glassotune.glasso.cholesky
    real_inverse = glassotune.glasso.spd_inverse

    def cholesky(a):
        last[:] = a.copy(), real_cholesky(a)
        return last[1]

    def inverse(lower):
        assert lower is last[1]
        iterates.append(last[0])
        return real_inverse(lower)

    monkeypatch.setattr(glassotune.glasso, "cholesky", cholesky)
    monkeypatch.setattr(glassotune.glasso, "spd_inverse", inverse)
    return iterates


def parse_steps(events):
    """The steps of a recorded solve, one entry per loop iteration.

    The events are one inverse for the start, then per iteration the
    residual's prox map, a Newton trial if any, and the step's
    backtracking prox maps and inverse.  Each entry holds ``cand``, the
    prox map at the iterate that the residual test measures, and ``kind``:
    "newton" for an accepted Newton step, "prox" for a prox step or "stop"
    for the final residual test.  An entry whose iterate had a Newton
    trial also holds that iterate as ``theta`` and the gradient of the
    smooth part there as ``grad``, and an accepted one the next iterate as
    ``theta_next``.
    """
    assert events[0] == ("inverse",)
    steps, k = [], 1
    while k < len(events):
        assert events[k][0] == "prox"
        entry = {"cand": events[k][1], "kind": "stop"}
        steps.append(entry)
        k += 1
        if k == len(events):
            break
        entry["kind"] = "prox"
        if events[k][0] == "newton":
            _, args, step = events[k]
            entry["theta"], entry["grad"] = args[2], args[4]
            k += 1
            if step is not None:
                entry.update(kind="newton", theta_next=step[0])
        while events[k][0] == "prox":
            assert entry["kind"] == "prox"
            k += 1
        assert events[k] == ("inverse",)
        k += 1
    return steps


def check_step_rule(steps):
    """Assert the step rule of :func:`solve` on the steps parse_steps reads.

    Returns how often each reason decided the step after an accepted
    Newton step.
    """
    decided = {"newton again": 0, "residual did not fall": 0}
    assert steps[0]["kind"] == "prox" and "theta" not in steps[0]
    for prev, cur in zip(steps, steps[1:]):
        if cur["kind"] == "stop":
            continue
        tried = cur["kind"] == "newton" or "theta" in cur
        if prev["kind"] == "prox":
            assert tried
            continue
        fell = (np.max(np.abs(cur["cand"] - prev["theta_next"]))
                < np.max(np.abs(prev["cand"] - prev["theta"])))
        assert tried == fell
        decided["newton again" if tried else "residual did not fall"] += 1
    return decided


class TestSolveCallCounts:
    def _count(self, monkeypatch, name):
        real = getattr(glassotune.glasso, name)
        calls = {"n": 0}

        def counted(*args):
            calls["n"] += 1
            return real(*args)

        monkeypatch.setattr(glassotune.glasso, name, counted)
        return calls

    @pytest.mark.parametrize("first_step", [None, 50.0])
    def test_one_factor_per_candidate_one_inverse_per_step(
        self, rng, monkeypatch, first_step
    ):
        # The benchmark reads backtracks as Cholesky calls minus inverses, so
        # a rejected candidate of either step kind counts as one backtrack.
        prox_out, factored = [], []
        real_prox = glassotune.glasso.soft_threshold
        real_chol = glassotune.glasso.cholesky

        def prox(*args):
            prox_out.append(real_prox(*args))
            return prox_out[-1]

        def chol(a):
            factored.append(a)
            return real_chol(a)

        monkeypatch.setattr(glassotune.glasso, "soft_threshold", prox)
        monkeypatch.setattr(glassotune.glasso, "cholesky", chol)
        newton = count_newton_steps(monkeypatch)
        inv = self._count(monkeypatch, "spd_inverse")
        if first_step is not None:
            monkeypatch.setattr(glassotune.glasso, "_default_gamma", lambda cov: first_step)
        est = solve(random_spd(rng, 8), Regularization.scalar(0.2))
        assert newton["accepted"] > 0
        # One factor for the start and one per candidate: a prox map is
        # factored at most once, and every other factor is a Newton trial.
        prox_ids = [id(c) for c in prox_out]
        factored_ids = [id(a) for a in factored[1:]]
        assert id(factored[0]) not in prox_ids
        prox_factored = sum(i in factored_ids for i in prox_ids)
        assert all(factored_ids.count(i) <= 1 for i in prox_ids)
        newton_trials = len(factored) - 1 - prox_factored
        assert newton_trials >= newton["accepted"]
        # The last prox map only measures the residual, and so does the one
        # of each iteration that took a Newton step.
        assert len(prox_out) - prox_factored == 1 + newton["accepted"]
        # One inverse for the start and one per accepted step of either kind.
        assert inv["n"] == 1 + est.iterations
        if first_step is not None:  # a huge first step must backtrack
            assert len(factored) - inv["n"] > 0

    @pytest.mark.parametrize("lam", [0.2, 0.05])
    def test_estimate_warm_start_skips_one_factorization(self, rng, monkeypatch, lam):
        # A warm start reuses the estimate's theta_inv and logdet, so its
        # theta is never factored: one inverse per accepted step and none
        # for the start, where a cold start adds one.
        cov = random_spd(rng, 8)
        warm = solve(cov, Regularization.scalar(0.3))
        factored = []
        real_chol = glassotune.glasso.cholesky

        def chol(a):
            factored.append(a)
            return real_chol(a)

        monkeypatch.setattr(glassotune.glasso, "cholesky", chol)
        inv = self._count(monkeypatch, "spd_inverse")
        est = solve(cov, Regularization.scalar(lam), warm_start=warm)
        assert est.iterations > 0
        assert inv["n"] == est.iterations
        assert not any(np.array_equal(a, warm.theta) for a in factored)

    def test_inverse_comes_back_without_refactoring(self, rng, monkeypatch):
        est = solve(random_spd(rng, 6), Regularization.scalar(0.2))
        chol = self._count(monkeypatch, "cholesky")
        inv = est.theta_inv
        assert chol["n"] == 0
        assert not inv.flags.writeable


class TestSolveNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_cov_rejected_up_front(self, rng, bad, where):
        cov = random_spd(rng, 4)
        cov[where] = cov[where[::-1]] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(cov, Regularization.scalar(0.1))


class TestSolveProperties:
    def test_unpenalized_recovers_inverse(self, rng):
        cov = random_spd(rng, 3)
        est = solve(cov, Regularization.scalar(0.0), SolverConfig(tol=1e-10))
        np.testing.assert_allclose(est.theta, np.linalg.inv(cov), atol=1e-7)

    def test_residual_within_tolerance(self, rng):
        cov = random_spd(rng, 5)
        cfg = SolverConfig(tol=1e-8)
        est = solve(cov, Regularization.scalar(0.1), cfg)
        assert est.fixed_point_residual <= cfg.tol * min(1.0, est.gamma)

    def test_optimality_certificate(self, rng):
        for p, lam in [(5, 0.1), (8, 0.25)]:
            cov = random_spd(rng, p)
            est = solve(cov, Regularization.scalar(lam))
            assert check_optimality(est, cov) <= 1e-6

    def test_scalar_matches_constant_matrix(self, rng):
        # A scalar level broadcasts where a constant weight matrix is read
        # entrywise; both give every output bit for bit, on a random
        # instance and on the CLI's p=100 seed-0 data near its best level.
        data = make_instance(100, 2000, seed=0, density=0.05)[1]
        instances = [(random_spd(rng, 4), random_spd(rng, 4), 0.2),
                     (data.cov_train, data.cov_test, 0.018)]
        for cov, cov_test, lam in instances:
            p = cov.shape[0]
            outs = []
            for reg in (Regularization.scalar(lam),
                        Regularization.matrix(np.full((p, p), lam))):
                est = solve(cov, reg)
                support = support_from_estimate(est, cov)
                grad_c = criterion_holdout(est, cov_test).gradient
                outs.append((est.theta, check_optimality(est, cov), support.mask,
                             hypergradient_weighted(est, support, grad_c)))
            (theta_a, opt_a, mask_a, hyper_a), (theta_b, opt_b, mask_b, hyper_b) = outs
            assert theta_a.tobytes() == theta_b.tobytes()
            assert opt_a == opt_b
            np.testing.assert_array_equal(mask_a, mask_b)
            assert hyper_a.tobytes() == hyper_b.tobytes()

    def test_step_size_does_not_change_solution(self, rng, monkeypatch):
        cov = random_spd(rng, 4)
        thetas = []
        for g in (0.05, 0.5, 5.0):
            monkeypatch.setattr(glassotune.glasso, "_default_gamma", lambda cov: g)
            thetas.append(
                solve(cov, Regularization.scalar(0.15), SolverConfig(tol=1e-10)).theta
            )
        np.testing.assert_allclose(thetas[0], thetas[1], atol=1e-8)
        np.testing.assert_allclose(thetas[0], thetas[2], atol=1e-8)

    def test_step_grows_back(self, rng, monkeypatch):
        # Barzilai-Borwein proposals lift a step far below the curvature
        # scale instead of creeping along at it.
        cov = random_spd(rng, 4)
        monkeypatch.setattr(glassotune.glasso, "_default_gamma", lambda cov: 1e-4)
        est = solve(cov, Regularization.scalar(0.1))
        assert est.gamma > 1e-4
        assert est.iterations < 100

    def test_warm_start_at_solution_returns_immediately(self, rng):
        cov = random_spd(rng, 4)
        est = solve(cov, Regularization.scalar(0.1))
        again = solve(cov, Regularization.scalar(0.1), warm_start=est)
        assert again.iterations == 0
        np.testing.assert_array_equal(again.theta, est.theta)

    def test_entrywise_weights_respected(self, rng):
        # A huge weight on one off-diagonal entry zeroes exactly that entry.
        cov = random_spd(rng, 3)
        weights = np.full((3, 3), 0.01)
        weights[0, 1] = weights[1, 0] = 100.0
        est = solve(cov, Regularization.matrix(weights), SolverConfig(tol=1e-10))
        assert est.theta[0, 1] == 0.0
        assert check_optimality(est, cov) <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        lam=st.floats(min_value=0.05, max_value=1.0),
    )
    def test_random_instances_satisfy_stationarity(self, seed, lam):
        cov = random_spd(np.random.default_rng(seed), 3)
        est = solve(cov, Regularization.scalar(lam))
        assert check_optimality(est, cov) <= 1e-6
        assert np.all(np.diagonal(est.support.mask))


class TestSolveErrors:
    def test_rejects_nonsquare_cov(self):
        with pytest.raises(ValueError):
            solve(np.ones((2, 3)), Regularization.scalar(0.1))

    def test_rejects_mismatched_weights(self, rng):
        cov = random_spd(rng, 3)
        for size in (2, 1):
            with pytest.raises(ValueError):
                solve(cov, Regularization.matrix(np.ones((size, size))))

    def test_unpenalized_singular_covariance(self):
        with pytest.raises(NotPositiveDefinite, match="no minimizer"):
            solve(np.ones((2, 2)), Regularization.scalar(0.0))

    def test_rejects_indefinite_warm_start(self, rng):
        cov = random_spd(rng, 2)
        reg = Regularization.scalar(0.1)
        indefinite = dataclasses.replace(solve(cov, reg),
                                         theta=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            solve(cov, reg, warm_start=indefinite)

    @pytest.mark.parametrize("start", [np.eye(2), 1.0, "estimate"], ids=["array", "float", "str"])
    def test_rejects_a_warm_start_that_is_not_an_estimate(self, rng, start):
        with pytest.raises(TypeError, match="^warm_start must be a PrecisionEstimate or None"):
            solve(random_spd(rng, 2), Regularization.scalar(0.1), warm_start=start)

    def test_rejects_warm_start_of_another_size(self, rng):
        # Unchecked, it failed deep in the loop: "cannot reshape array of
        # size 16 into shape (36,)".
        reg = Regularization.scalar(0.1)
        small = solve(random_spd(rng, 4), reg)
        with pytest.raises(ValueError, match=r"warm_start must have shape \(6, 6\)"):
            solve(random_spd(rng, 6), reg, warm_start=small)

    def test_not_converged_carries_state(self, rng, monkeypatch):
        cov = random_spd(rng, 4)
        monkeypatch.setattr(glassotune.glasso, "MAX_ITER", 1)
        with pytest.raises(NotConverged) as info:
            solve(cov, Regularization.scalar(0.01))
        assert info.value.iterations == 1
        assert info.value.residual > 0.0


class TestCheckOptimality:
    def test_hand_computed_violation(self):
        # theta = cov = I with lam = 0.5: the residual theta^{-1} - S is
        # zero, so each diagonal (on-support) entry misses its condition
        # by exactly lam.
        est = PrecisionEstimate(
            theta=np.eye(2),
            reg=Regularization.scalar(0.5),
            gamma=1.0,
            support=SupportSet.from_matrix_mask(np.eye(2, dtype=bool)),
            fixed_point_residual=0.0,
            iterations=0,
        )
        assert check_optimality(est, np.eye(2)) == pytest.approx(0.5)


class TestEstimateIdentity:
    def test_estimates_compare_and_hash_by_identity(self):
        # Fieldwise equality over theta would raise "truth value of an array
        # is ambiguous", and a fieldwise hash "unhashable type".
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        a, b = (solve(cov, Regularization.scalar(0.1)) for _ in range(2))
        np.testing.assert_array_equal(a.theta, b.theta)
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert a.support == a.support and a.support != b.support
        assert len({a.support, b.support}) == 2


class TestThetaInv:
    def test_matches_fresh_inverse_bitwise(self, rng):
        cov = random_spd(rng, 5)
        est = solve(cov, Regularization.scalar(0.5))
        np.testing.assert_array_equal(est.theta_inv, spd_inverse(cholesky(est.theta)))

    def test_computed_once_and_read_only(self, rng):
        est = solve(random_spd(rng, 4), Regularization.scalar(0.5))
        assert est.theta_inv is est.theta_inv
        assert not est.theta_inv.flags.writeable

    def test_replace_gets_fresh_cache(self, rng):
        est = solve(random_spd(rng, 4), Regularization.scalar(0.5))
        first = est.theta_inv
        moved = dataclasses.replace(est, theta=2.0 * est.theta)
        np.testing.assert_allclose(moved.theta_inv, first / 2.0, rtol=1e-12)

    def test_not_a_constructor_field(self):
        names = {f.name for f in dataclasses.fields(PrecisionEstimate)}
        assert "theta_inv" not in names

    def test_logdet_matches_fresh_factor_bitwise(self, rng):
        # Seeded by solve; computed on first use by an estimate built otherwise.
        est = solve(random_spd(rng, 5), Regularization.scalar(0.5))
        assert est.logdet == logdet(cholesky(est.theta))
        moved = dataclasses.replace(est, theta=2.0 * est.theta)
        assert moved.logdet == logdet(cholesky(moved.theta))
        assert "logdet" not in {f.name for f in dataclasses.fields(PrecisionEstimate)}


@pytest.fixture(scope="module")
def cov_p100_seed0():
    """Training covariance of the CLI's default p=100 data (seed 0)."""
    return make_instance(100, 2000, seed=0, density=0.05)[1].cov_train


class TestSolveP100:
    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_cold_solve_iteration_count(self, cov_p100_seed0, lam):
        # A step that only ever shrank took 94, 294 and 863 iterations here.
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        assert est.iterations <= 200
        assert check_optimality(est, cov_p100_seed0) <= 1e-6

    def test_cold_solve_seed81_converges(self):
        # With a step that only ever shrank, this solve stalled at residual
        # 9.1e-8 after the whole 10,000-iteration budget.
        cov = make_instance(100, 2000, seed=81, density=0.05)[1].cov_train
        est = solve(cov, Regularization.scalar(0.0224751))
        assert est.fixed_point_residual <= 1e-8
        assert check_optimality(est, cov) <= 1e-6


class TestNewtonSteps:
    # Newton steps on the free set's smooth problem take over the linear
    # tail of the prox iteration; the prox map still decides convergence.
    @pytest.fixture(scope="class")
    def references(self, cov_p100_seed0):
        return {lam: solve(cov_p100_seed0, Regularization.scalar(lam),
                           SolverConfig(tol=1e-12)).theta
                for lam in (0.1, 0.018, 0.005)}

    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_fire_and_reach_the_fixed_point(
        self, cov_p100_seed0, references, monkeypatch, lam
    ):
        newton = count_newton_steps(monkeypatch)
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        assert newton["accepted"] > 0
        assert np.max(np.abs(est.theta - references[lam])) <= 1e-6
        assert check_optimality(est, cov_p100_seed0) <= 1e-6
        np.testing.assert_array_equal(est.theta, est.theta.T)

    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_failed_newton_falls_back_to_prox(
        self, cov_p100_seed0, references, monkeypatch, lam
    ):
        def singular(*args, **kwargs):
            raise SingularSystem("simulated failure")

        monkeypatch.setattr(glassotune.glasso, "solve_symmetric", singular)
        newton = count_newton_steps(monkeypatch)
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        assert newton["tried"] > 0 and newton["accepted"] == 0
        assert est.fixed_point_residual <= 1e-8 * min(1.0, est.gamma)
        assert np.max(np.abs(est.theta - references[lam])) <= 1e-6
        assert check_optimality(est, cov_p100_seed0) <= 1e-6

    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_armijo_rejection_falls_back_to_prox(
        self, cov_p100_seed0, references, monkeypatch, lam
    ):
        # No step can decrease the objective by 1e6 times its slope.
        monkeypatch.setattr(glassotune.glasso, "NEWTON_ARMIJO", 1e6)
        newton = count_newton_steps(monkeypatch)
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        assert newton["tried"] > 0 and newton["accepted"] == 0
        assert newton["not_spd"] == 0
        assert np.max(np.abs(est.theta - references[lam])) <= 1e-6
        assert check_optimality(est, cov_p100_seed0) <= 1e-6

    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_indefinite_trial_falls_back_to_prox(
        self, cov_p100_seed0, references, monkeypatch, lam
    ):
        # Overshooting by 1e6 leaves the positive definite cone on most
        # trials; the others fail the Armijo test.
        real = glassotune.glasso.solve_symmetric

        def overshoot(*args, **kwargs):
            return 1e6 * real(*args, **kwargs)

        monkeypatch.setattr(glassotune.glasso, "solve_symmetric", overshoot)
        newton = count_newton_steps(monkeypatch)
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        assert newton["tried"] > 0 and newton["accepted"] == 0
        assert newton["not_spd"] > 0
        assert np.max(np.abs(est.theta - references[lam])) <= 1e-6
        assert check_optimality(est, cov_p100_seed0) <= 1e-6

    def test_weighted_unpenalized_diagonal_from_warm_start(
        self, cov_p100_seed0, monkeypatch
    ):
        weights = np.full((100, 100), 0.018)
        np.fill_diagonal(weights, 0.0)
        reg = Regularization.matrix(weights)
        warm = solve(cov_p100_seed0, Regularization.scalar(0.1))
        reference = solve(cov_p100_seed0, reg, SolverConfig(tol=1e-12), warm_start=warm)
        newton = count_newton_steps(monkeypatch)
        est = solve(cov_p100_seed0, reg, warm_start=warm)
        assert newton["accepted"] > 0
        assert np.max(np.abs(est.theta - reference.theta)) <= 1e-6
        assert check_optimality(est, cov_p100_seed0) <= 1e-6
        np.testing.assert_array_equal(est.theta, est.theta.T)

    @pytest.mark.parametrize("fallback", [None, "singular", "not_spd", "armijo"])
    def test_trials_count_every_fallback(self, cov_p100_seed0, monkeypatch, fallback):
        # newton_trials - newton_steps counts the trials that fell back to
        # a prox step, each for one reason: a singular restricted system, a
        # trial that is not SPD, or a factored trial that fails Armijo.
        real_system = glassotune.glasso.solve_symmetric
        real_cholesky = glassotune.glasso.cholesky
        real_newton = glassotune.glasso._newton_step
        events, kinds = [], []

        def system(*args, **kwargs):
            if fallback == "singular":
                events.append("singular")
                raise SingularSystem("simulated failure")
            d = real_system(*args, **kwargs)
            return 1e6 * d if fallback == "not_spd" else d

        def cholesky(a):
            try:
                lower = real_cholesky(a)
            except NotPositiveDefinite:
                events.append("not_spd")
                raise
            events.append("factored")
            return lower

        def newton(*args):
            events.clear()
            step = real_newton(*args)
            if step is not None:
                kinds.append("accepted")
            elif events == ["factored"]:
                kinds.append("armijo")
            else:
                assert len(events) == 1 and events[0] in ("singular", "not_spd")
                kinds.append(events[0])
            return step

        monkeypatch.setattr(glassotune.glasso, "solve_symmetric", system)
        monkeypatch.setattr(glassotune.glasso, "cholesky", cholesky)
        monkeypatch.setattr(glassotune.glasso, "_newton_step", newton)
        if fallback == "armijo":
            monkeypatch.setattr(glassotune.glasso, "NEWTON_ARMIJO", 1e6)
        est = solve(cov_p100_seed0, Regularization.scalar(0.005))
        assert est.newton_trials == len(kinds) > 0
        assert est.newton_steps == kinds.count("accepted") <= est.newton_trials
        assert est.newton_trials - est.newton_steps == (
            kinds.count("singular") + kinds.count("not_spd") + kinds.count("armijo"))
        if fallback is not None:
            assert kinds.count(fallback) > 0 and est.newton_steps == 0
        assert check_optimality(est, cov_p100_seed0) <= 1e-6

    def test_tried_after_every_prox_step(self, cov_p100_seed0, monkeypatch):
        # Newton follows every accepted prox step that does not end the
        # solve, and follows an accepted Newton step if and only if that
        # step lowered the residual.  On this trace Newton runs twice in a
        # row, Newton steps add entries, each one whose gradient exceeds
        # its threshold and with the sign that lowers the objective, and
        # the orthant projection drops entries that cross zero.
        lam = 0.005
        events = record_steps(monkeypatch)
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        steps = parse_steps(events)
        decided = check_step_rule(steps)
        assert steps[-1]["kind"] == "stop"
        assert len(steps) - 1 == est.iterations
        newton = [s for s in steps if s["kind"] == "newton"]
        assert len(newton) == est.newton_steps > 0
        assert len(newton) + sum("theta" in s for s in steps if s["kind"] == "prox") == (
            est.newton_trials)
        assert decided["newton again"] > 0
        added = 0
        for s in newton:
            new = (s["theta"] == 0.0) & (s["theta_next"] != 0.0)
            added += np.count_nonzero(new)
            assert np.all(np.abs(s["grad"][new]) > lam)
            assert np.array_equal(np.sign(s["theta_next"][new]), -np.sign(s["grad"][new]))
        assert added > 0
        assert any(np.any((s["theta"] != 0.0) & (s["theta_next"] == 0.0)) for s in newton)
        assert check_optimality(est, cov_p100_seed0) <= 1e-6

    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_objective_never_increases(self, cov_p100_seed0, monkeypatch, lam):
        # Every accepted step, prox or Newton, lowers the true objective
        # -logdet theta + <S, theta> + sum T |theta|, up to the round-off
        # slack of the solver's own decrease tests.
        iterates = record_iterates(monkeypatch)
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        assert len(iterates) == est.iterations + 1 and est.newton_steps > 0
        values = [-np.linalg.slogdet(theta)[1] + np.vdot(cov_p100_seed0, theta)
                  + lam * np.sum(np.abs(theta)) for theta in iterates]
        for before, after in zip(values, values[1:]):
            assert after <= before + glassotune.glasso.DECREASE_SLACK * max(1.0, abs(before))

    def test_zero_weight_entry_with_a_gradient_enters(self, monkeypatch):
        # At theta = I the gradient off the diagonal is S.  A zero entry
        # joins the free set when its |gradient| exceeds its weight,
        # strictly: (0, 1), weight 0 and S_01 = 0.3, does; (1, 2), weight 0
        # and S_12 = 0, and (0, 2), weight 0.2 and S_02 = 0.2, do not.
        cov = np.array([[1.0, 0.3, 0.2], [0.3, 1.0, 0.0], [0.2, 0.0, 1.0]])
        weights = np.zeros((3, 3))
        weights[0, 2] = weights[2, 0] = 0.2
        theta = np.eye(3)
        free = []
        real = glassotune.glasso.kron_restricted

        def factory(w, support):
            free.append(support.mask.copy())
            return real(w, support)

        monkeypatch.setattr(glassotune.glasso, "kron_restricted", factory)
        grad = cov - np.eye(3)
        # the prox candidate at gamma = 1
        cand = soft_threshold(theta - grad, weights)
        step = glassotune.glasso._newton_step(
            cov, weights, theta, np.eye(3), grad, float(np.trace(cov)), cand, 1e-8)
        expected = np.eye(3, dtype=bool)
        expected[0, 1] = expected[1, 0] = True
        assert len(free) == 2
        for mask in free:
            np.testing.assert_array_equal(mask, expected)
        assert step is not None and step[0][0, 1] < 0.0 and step[0][0, 2] == 0.0

    @pytest.mark.parametrize("scalar", [True, False])
    def test_trial_keeps_the_orthant_and_symmetry(self, cov_p100_seed0, monkeypatch, scalar):
        # Each accepted trial has the orthant's sign or 0 in every entry,
        # where the orthant is theta's signs on its support and -sign(grad)
        # on the zero entries with |grad| > T, and is exactly symmetric.
        if scalar:
            reg = Regularization.scalar(0.005)
        else:
            weights = np.full((100, 100), 0.005)
            np.fill_diagonal(weights, 0.0)
            reg = Regularization.matrix(weights)
        thr = reg.thresholds(100)
        events = record_steps(monkeypatch)
        solve(cov_p100_seed0, reg)
        trials = [(e[1], e[2][0]) for e in events if e[0] == "newton" and e[2] is not None]
        assert trials
        entered = 0
        for args, trial in trials:
            theta, grad = args[2], args[4]
            xi = np.where(theta != 0.0, np.sign(theta),
                          np.where(np.abs(grad) > thr, -np.sign(grad), 0.0))
            assert np.all(trial * xi >= 0.0)
            assert np.all(trial[xi == 0.0] == 0.0)
            np.testing.assert_array_equal(trial, trial.T)
            entered += np.count_nonzero((theta == 0.0) & (trial != 0.0))
        assert entered > 0

    def test_stalled_newton_hands_over_to_prox(self, cov_p100_seed0, monkeypatch):
        # An accepted Newton step that leaves the residual where it was is
        # followed by a prox step, even where the signs would allow Newton
        # again, so a stalled Newton step cannot hold up the solve.
        def stalled(cov, thr, theta, theta_inv, grad, f_theta, cand, g_tol):
            lower = cholesky(theta)
            return theta.copy(), lower, logdet(lower), f_theta

        events = record_steps(monkeypatch, stalled)
        est = solve(cov_p100_seed0, Regularization.scalar(0.018))
        steps = parse_steps(events)
        decided = check_step_rule(steps)
        assert decided["residual did not fall"] > 0
        for prev, cur in zip(steps, steps[1:]):
            if prev["kind"] == "newton":
                assert cur["kind"] in ("prox", "stop")
        assert est.newton_steps > 0
        assert est.fixed_point_residual <= 1e-8 * min(1.0, est.gamma)
        assert check_optimality(est, cov_p100_seed0) <= 1e-6


class TestNewtonFreeSet:
    # The Newton step reads its orthant off the prox candidate.
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_prox_candidate_gives_the_gradient_rule(self, data):
        # Wherever gamma|G| != gamma T after rounding, the orthant is theta's
        # signs on its support and, on the zero entries, -sign(G) where
        # |G| > T and 0 elsewhere.  Values are drawn from a small set too,
        # so that ties and zero weights occur.
        p = data.draw(st.integers(1, 5))
        values = st.sampled_from([0.0, 0.2, -0.2, 0.5, -0.5]) | st.floats(-2.0, 2.0)
        weights = st.sampled_from([0.0, 0.2, 0.5]) | st.floats(0.0, 2.0)

        def symmetric(elements):
            a = np.array(data.draw(st.lists(elements, min_size=p * p, max_size=p * p)))
            a = a.reshape(p, p)
            return np.triu(a) + np.triu(a, 1).T

        theta, grad = symmetric(values), symmetric(values)
        gamma = data.draw(st.floats(1e-3, 1e3))
        thr = data.draw(weights) if data.draw(st.booleans()) else symmetric(weights)
        cand = soft_threshold(theta - gamma * grad, gamma * thr)
        xi = glassotune.glasso._orthant(theta, cand)
        t = np.broadcast_to(thr, theta.shape)
        rule = np.where(theta != 0.0, np.sign(theta),
                        np.where(np.abs(grad) > t, -np.sign(grad), 0.0))
        decided = (theta != 0.0) | (gamma * np.abs(grad) != gamma * t)
        np.testing.assert_array_equal(xi[decided], rule[decided])


class TestNewtonSafeguard:
    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_no_more_products_and_the_same_steps(self, cov_p100_seed0, monkeypatch, lam):
        # Against the forcing term without the safeguard (NEWTON_SAFEGUARD
        # = 0): the same accepted steps and Newton trials, no more products
        # with K, and both estimates pass the stop test and the optimality
        # check.  The forcing term stays between min(NEWTON_FORCING,
        # sqrt|g|) and NEWTON_FORCING.
        real = glassotune.glasso.solve_symmetric
        runs = {}
        for safeguard in (0.0, glassotune.glasso.NEWTON_SAFEGUARD):
            products, forcing = [0], []

            def system(apply, rhs, precondition, rtol, *, dim):
                def counted(x):
                    products[0] += 1
                    return apply(x)

                forcing.append((rtol, np.sqrt(np.linalg.norm(rhs.astype(float)))))
                return real(counted, rhs, precondition, rtol, dim=dim)

            monkeypatch.setattr(glassotune.glasso, "solve_symmetric", system)
            monkeypatch.setattr(glassotune.glasso, "NEWTON_SAFEGUARD", safeguard)
            est = solve(cov_p100_seed0, Regularization.scalar(lam))
            runs[safeguard] = est, products[0]
            assert est.fixed_point_residual <= 1e-8 * min(1.0, est.gamma)
            assert check_optimality(est, cov_p100_seed0) <= 1e-6
            assert forcing
            for rtol, root in forcing:
                # root is read off the float32 right-hand side
                assert min(glassotune.glasso.NEWTON_FORCING, root) * (1 - 1e-6) <= rtol
                assert rtol <= glassotune.glasso.NEWTON_FORCING
        (plain, plain_products), (guarded, guarded_products) = runs.values()
        assert ((guarded.iterations, guarded.newton_steps, guarded.newton_trials)
                == (plain.iterations, plain.newton_steps, plain.newton_trials))
        assert guarded_products <= plain_products


class TestFloat32Products:
    # The Newton step's K = (W kron W)_SS and M = (theta kron theta)_SS,
    # and the adjoint's M, take float32 matrix products; the adjoint's K
    # stays float64.  The Newton step's right-hand side is float32, so its
    # conjugate gradients run in float32 end to end; the adjoint's is
    # float64.

    @staticmethod
    def _record_dtypes(monkeypatch, module, roles):
        """Patch ``module.kron_restricted`` to note each operator's role,
        named by ``roles(w)``, and dtype."""
        seen = []
        real = module.kron_restricted

        def factory(w, support):
            seen.append((roles(w), w.dtype))
            return real(w, support)

        monkeypatch.setattr(module, "kron_restricted", factory)
        return seen

    @staticmethod
    def _record_rhs_dtypes(monkeypatch, module):
        """Patch ``module.solve_symmetric`` to note the dtype of each
        right-hand side."""
        seen = []
        real = module.solve_symmetric

        def solver(apply, rhs, *args, **kwargs):
            seen.append(rhs.dtype)
            return real(apply, rhs, *args, **kwargs)

        monkeypatch.setattr(module, "solve_symmetric", solver)
        return seen

    def test_newton_step_hands_float32_to_both_operators(self, cov_p100_seed0, monkeypatch):
        current = {}
        real_newton = glassotune.glasso._newton_step

        def newton(*args):
            current["theta"], current["theta_inv"] = args[2], args[3]
            return real_newton(*args)

        def role(w):
            if np.array_equal(w, current["theta_inv"].astype(np.float32)):
                return "K"
            return "M" if np.array_equal(w, current["theta"].astype(np.float32)) else "?"

        monkeypatch.setattr(glassotune.glasso, "_newton_step", newton)
        seen = self._record_dtypes(monkeypatch, glassotune.glasso, role)
        rhs = self._record_rhs_dtypes(monkeypatch, glassotune.glasso)
        est = solve(cov_p100_seed0, Regularization.scalar(0.005))
        assert est.newton_trials > 0
        assert seen == [("K", np.float32), ("M", np.float32)] * est.newton_trials
        assert rhs == [np.float32] * est.newton_trials

    def test_adjoint_hands_float64_to_the_system_and_float32_to_the_preconditioner(
        self, cov_p100_seed0, monkeypatch
    ):
        est = solve(cov_p100_seed0, Regularization.scalar(0.018))
        support = support_from_estimate(est, cov_p100_seed0)

        def role(w):
            if w.dtype == np.float64 and np.array_equal(w, est.theta_inv):
                return "K"
            return "M" if np.array_equal(w, est.theta.astype(np.float32)) else "?"

        seen = self._record_dtypes(monkeypatch, glassotune.implicit, role)
        rhs = self._record_rhs_dtypes(monkeypatch, glassotune.implicit)
        hypergradient_weighted(est, support, np.ones((100, 100)))
        assert seen == [("K", np.float64), ("M", np.float32)]
        assert rhs == [np.float64]

    @pytest.mark.parametrize("tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_float32_newton_solve_takes_the_float64_path(
        self, cov_p100_seed0, monkeypatch, lam, tol
    ):
        # With the Newton right-hand side patched back to float64, and every
        # conjugate-gradient vector with it, the solve takes the same
        # accepted steps, Newton steps and Newton trials, and theta agrees
        # to 1e-9.
        config = SolverConfig(tol=tol)
        est = solve(cov_p100_seed0, Regularization.scalar(lam), config)
        real = glassotune.glasso.solve_symmetric

        def float64_rhs(apply, rhs, *args, **kwargs):
            assert rhs.dtype == np.float32
            return real(apply, rhs.astype(float), *args, **kwargs)

        monkeypatch.setattr(glassotune.glasso, "solve_symmetric", float64_rhs)
        ref = solve(cov_p100_seed0, Regularization.scalar(lam), config)
        assert est.newton_steps > 0
        assert ((est.iterations, est.newton_steps, est.newton_trials)
                == (ref.iterations, ref.newton_steps, ref.newton_trials))
        assert np.max(np.abs(est.theta - ref.theta)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.1, 0.018, 0.005])
    def test_float32_solve_takes_no_more_iterations(self, cov_p100_seed0, lam):
        # Float32 K and M against float64 ones on the restricted systems of
        # the p=100 solutions, at the adjoint's tight tolerance: no more
        # products with K, and a true float64 residual at float32 round-off.
        est = solve(cov_p100_seed0, Regularization.scalar(lam))
        s = est.support
        rng = np.random.default_rng(0)
        b = np.where(s.mask, symmetrize(rng.standard_normal((100, 100))), 0.0)
        products, solution = {}, {}
        for dtype in (np.float64, np.float32):
            k = kron_restricted(est.theta_inv.astype(dtype), s)
            products[dtype] = 0

            def counted(x, k=k, dtype=dtype):
                products[dtype] += 1
                return k(x)

            solution[dtype] = solve_symmetric(
                counted, b, kron_restricted(est.theta.astype(dtype), s), rtol=1e-12,
                dim=len(s))
        assert products[np.float32] <= products[np.float64]
        residual = b - kron_restricted(est.theta_inv, s)(solution[np.float32])
        assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(b)
