import dataclasses

import numpy as np
import pytest

import glassotune.bilevel
import glassotune.glasso
from glassotune.bilevel import (
    INIT_BACKOFF,
    BilevelConfig,
    GridPoint,
    Trajectory,
    TrajectoryRecord,
    default_grid,
    grid_search,
    lambda_init,
    starting_level,
    tune_matrix,
    tune_scalar,
)
from glassotune.exceptions import DegenerateInput, DegenerateSupport
from glassotune.glasso import Regularization, SolverConfig, solve
from glassotune.implicit import (
    criterion_holdout,
    hypergradient_weighted,
    support_from_estimate,
)
from glassotune.linalg import spd_inverse, cholesky

from conftest import fail_support_check, make_instance


def untimed(traj):
    """The records of a run with the wall-clock field zeroed."""
    return [dataclasses.replace(r, seconds=0.0) for r in traj.records]


def assert_final_weights(traj, weights):
    """The returned weights are the last iterate's, as its record summarizes them."""
    assert weights is traj.estimate.reg.weights
    assert traj.final.penalty == (weights.min(), weights.max(), weights.mean())


@pytest.mark.parametrize("tuner", ["grid", "scalar", "matrix"])
def test_each_solve_warm_starts_from_the_previous_estimate(monkeypatch, tuner):
    # Handing solve the estimate, not its theta, spares it a factorization
    # of a matrix it has already factorized.
    _, data = make_instance(6, 300, seed=0)
    real = glassotune.bilevel.solve
    calls = []

    def recording(cov, reg, config=None, warm_start=None):
        est = real(cov, reg, config, warm_start=warm_start)
        calls.append((warm_start, est))
        return est

    monkeypatch.setattr(glassotune.bilevel, "solve", recording)
    cfg = BilevelConfig(max_outer_iter=3)
    if tuner == "grid":
        grid_search(data.cov_train, data.cov_test,
                    default_grid(lambda_init(data.cov_train), points=4))
    elif tuner == "scalar":
        tune_scalar(data.cov_train, data.cov_test, cfg)
    else:
        # the matrix stage's first solve starts at the scalar stage's last
        lam, straj = tune_scalar(data.cov_train, data.cov_test, cfg)
        tune_matrix(data.cov_train, data.cov_test,
                    dataclasses.replace(cfg, init=Regularization.scalar(lam)),
                    warm_start=straj.estimate)
    assert len(calls) > 1 and calls[0][0] is None
    for (_, previous), (warm, _) in zip(calls, calls[1:]):
        assert warm is previous


class TestLambdaInit:
    def test_offdiag_max(self):
        cov = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert lambda_init(cov) == 0.5

    def test_max_entry(self):
        cov = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert lambda_init(cov, policy="max-entry") == 3.0

    def test_uses_magnitudes(self):
        cov = np.array([[1.0, -0.7], [-0.7, 1.0]])
        assert lambda_init(cov) == 0.7

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            lambda_init(np.eye(2), policy="midpoint")

    def test_diagonal_covariance_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            lambda_init(np.diag([1.0, 2.0]))

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            lambda_init(np.zeros((2, 2)), policy="max-entry")

    def test_one_by_one_has_no_offdiag(self):
        with pytest.raises(DegenerateInput):
            lambda_init(np.array([[2.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            lambda_init(np.ones((2, 3)))

    def test_starting_level_backs_off_the_kink(self):
        cov = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert starting_level(cov) == 0.5 * INIT_BACKOFF
        assert starting_level(cov) > lambda_init(cov)


class TestDefaultGrid:
    def test_endpoints_and_size(self):
        grid = default_grid(2.0)
        assert grid.size == 100
        assert grid[-1] == pytest.approx(2.0)
        assert grid[0] == pytest.approx(2.0e-3)

    def test_strictly_increasing(self):
        grid = default_grid(1.5, points=30)
        assert np.all(np.diff(grid) > 0)

    def test_log_spacing_is_even(self):
        grid = default_grid(1.0, points=10)
        steps = np.diff(np.log(grid))
        np.testing.assert_allclose(steps, steps[0])

    def test_single_point(self):
        np.testing.assert_array_equal(default_grid(0.7, points=1), [0.7])

    def test_validation(self):
        with pytest.raises(ValueError):
            default_grid(1.0, points=0)


class TestBadHoldout:
    # p=8 seed 0, with a NaN at (0, 1) of the held-out covariance.
    # Unchecked, grid_search returned its largest level as the best, with
    # every criterion NaN and no point marked failed, and tune_scalar wrote
    # six NaN-criterion records and stopped on its budget.
    @pytest.fixture(scope="class")
    def data(self):
        data = make_instance(8, 160, seed=0, density=0.05)[1]
        cov_test = data.cov_test.copy()
        cov_test[0, 1] = np.nan
        return data.cov_train, cov_test

    def test_grid_search_raises(self, data):
        cov_train, cov_test = data
        with pytest.raises(ValueError, match="cov_test must be finite"):
            grid_search(cov_train, cov_test, default_grid(lambda_init(cov_train), 5))

    def test_tune_scalar_raises(self, data):
        with pytest.raises(ValueError, match="cov_test must be finite"):
            tune_scalar(*data, BilevelConfig(max_outer_iter=5))

    @pytest.mark.parametrize("tune", [tune_scalar, tune_matrix])
    def test_tuners_reject_a_row(self, data, tune):
        # Symmetrized unchecked, a 1 x 8 row broadcast to an 8 x 8 matrix.
        with pytest.raises(ValueError, match="square 2-d"):
            tune(data[0], np.ones((1, 8)), BilevelConfig(max_outer_iter=2))


class TestGridSearch:
    def test_curve_shape_and_best(self):
        truth, data = make_instance(4, 200, seed=0)
        grid = default_grid(lambda_init(data.cov_train), points=12)
        best, curve = grid_search(
            data.cov_train, data.cov_test, grid, theta_true=truth.theta_true
        )
        assert len(curve) == 12
        lams = [g.lam for g in curve]
        assert lams == sorted(lams)
        solved = [g for g in curve if not g.failed]
        assert best == min(solved, key=lambda g: g.criterion).lam
        assert all(np.isfinite(g.rel_error) for g in solved)

    def test_rel_error_nan_without_truth(self):
        _, data = make_instance(3, 100, seed=1)
        _, curve = grid_search(
            data.cov_train, data.cov_test, [lambda_init(data.cov_train)]
        )
        assert np.isnan(curve[0].rel_error)
        assert not curve[0].failed

    def test_failed_points_are_marked(self, monkeypatch):
        _, data = make_instance(4, 200, seed=0)
        monkeypatch.setattr(glassotune.glasso, "MAX_ITER", 1)
        lam0 = lambda_init(data.cov_train)
        # The largest level is solved by its exact diagonal initial iterate;
        # the tiny one cannot converge in a single inner iteration.
        best, curve = grid_search(
            data.cov_train,
            data.cov_test,
            [1e-4 * lam0, lam0],
        )
        assert [g.failed for g in curve] == [True, False]
        assert np.isnan(curve[0].criterion)
        assert best == lam0

    def test_all_failed_raises(self, monkeypatch):
        _, data = make_instance(4, 200, seed=0)
        lam0 = lambda_init(data.cov_train)
        monkeypatch.setattr(glassotune.glasso, "MAX_ITER", 1)
        with pytest.raises(DegenerateInput):
            grid_search(data.cov_train, data.cov_test, [1e-4 * lam0, 2e-4 * lam0])

    def test_validation(self):
        _, data = make_instance(3, 100, seed=1)
        with pytest.raises(ValueError):
            grid_search(data.cov_train, data.cov_test, [])
        with pytest.raises(ValueError):
            grid_search(data.cov_train, data.cov_test, [0.1, -0.2])

    def test_argmin_keeps_its_solution(self):
        _, data = make_instance(4, 200, seed=0)
        grid = default_grid(lambda_init(data.cov_train), points=6)
        best, curve = grid_search(data.cov_train, data.cov_test, grid)
        at_best = next(g for g in curve if g.lam == best)
        assert all(g.theta is None for g in curve if g is not at_best)
        assert criterion_holdout(at_best.theta, data.cov_test).value == at_best.criterion

    def test_deterministic(self):
        _, data = make_instance(4, 200, seed=2)
        grid = default_grid(lambda_init(data.cov_train), points=8)
        a = grid_search(data.cov_train, data.cov_test, grid)
        b = grid_search(data.cov_train, data.cov_test, grid)
        assert a[0] == b[0]
        assert [g.criterion for g in a[1]] == [g.criterion for g in b[1]]


class TestBilevelConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [{"step_size": 0.0}, {"max_outer_iter": 0}, {"step_size": float("inf")}],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BilevelConfig(**kwargs)


class TestTuneScalar:
    def test_descends_and_converges(self):
        # The criterion is shallow in log-lambda on this small instance, so
        # a larger outer step keeps the run short.
        truth, data = make_instance(5, 400, seed=3)
        lam, traj = tune_scalar(
            data.cov_train,
            data.cov_test,
            BilevelConfig(step_size=5.0),
            theta_true=truth.theta_true,
        )
        assert traj.converged
        assert traj.stop_reason == "hypergradient below tolerance"
        assert traj.final.hypergrad_norm <= 1e-6
        assert traj.final.criterion <= traj.records[0].criterion
        assert traj.final.penalty == (lam,)
        assert traj.final.rel_error is not None

    def test_starts_at_backed_off_level(self):
        _, data = make_instance(5, 400, seed=3)
        _, traj = tune_scalar(
            data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=1)
        )
        assert traj.records[0].penalty[0] == pytest.approx(
            starting_level(data.cov_train), rel=1e-12
        )

    def test_first_step_follows_the_log_update(self):
        _, data = make_instance(5, 400, seed=3)
        cfg = BilevelConfig(max_outer_iter=1, step_size=0.2)
        _, traj = tune_scalar(data.cov_train, data.cov_test, cfg)
        r0, r1 = traj.records[0], traj.records[1]
        # Over-penalized start: the criterion grows with the level, so the
        # first move is downhill in lambda by exp(-rho * gradient).
        assert r1.penalty[0] < r0.penalty[0]
        assert r1.penalty[0] / r0.penalty[0] == pytest.approx(
            np.exp(-cfg.step_size * r0.hypergrad_norm), rel=1e-10
        )

    def test_restart_at_optimum_stops_immediately(self):
        _, data = make_instance(5, 400, seed=3)
        lam, _ = tune_scalar(data.cov_train, data.cov_test, BilevelConfig(step_size=5.0))
        _, traj = tune_scalar(
            data.cov_train,
            data.cov_test,
            BilevelConfig(step_size=5.0, init=Regularization.scalar(lam)),
        )
        assert traj.converged
        assert len(traj) <= 5

    def test_budget_exhaustion(self):
        _, data = make_instance(5, 400, seed=3)
        cfg = BilevelConfig(max_outer_iter=2)
        _, traj = tune_scalar(data.cov_train, data.cov_test, cfg)
        assert not traj.converged
        assert traj.stop_reason == "outer iteration budget exhausted"
        assert len(traj) == cfg.max_outer_iter + 1

    def test_rel_error_none_without_truth(self):
        _, data = make_instance(5, 400, seed=3)
        _, traj = tune_scalar(
            data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=1)
        )
        assert traj.final.rel_error is None

    def test_deterministic_apart_from_timing(self):
        _, data = make_instance(5, 400, seed=3)
        cfg = BilevelConfig(max_outer_iter=5)
        _, a = tune_scalar(data.cov_train, data.cov_test, cfg)
        _, b = tune_scalar(data.cov_train, data.cov_test, cfg)
        assert untimed(a) == untimed(b)

    def test_hypergradient_is_the_summed_weighted_one(self):
        # A single level ties every weight to it, so its alpha-space
        # gradient is lam times the sum of the per-entry gradients.
        _, data = make_instance(5, 400, seed=3)
        _, traj = tune_scalar(
            data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=2)
        )
        est = traj.estimate
        assert traj.final.penalty == (est.reg.lam,)
        crit = criterion_holdout(est.theta, data.cov_test)
        assert crit.value == traj.final.criterion
        support = support_from_estimate(est, data.cov_train)
        values = hypergradient_weighted(est, support, crit.gradient)
        assert traj.final.hypergrad_norm == est.reg.lam * abs(np.sum(values))

    def test_rejects_matrix_init(self):
        _, data = make_instance(3, 100, seed=1)
        with pytest.raises(ValueError):
            tune_scalar(
                data.cov_train,
                data.cov_test,
                BilevelConfig(init=Regularization.matrix(np.ones((3, 3)))),
            )

    def test_rejects_zero_init(self):
        _, data = make_instance(3, 100, seed=1)
        with pytest.raises(ValueError):
            tune_scalar(
                data.cov_train,
                data.cov_test,
                BilevelConfig(init=Regularization.scalar(0.0)),
            )

    def test_failure_at_start_propagates_annotated(self, monkeypatch):
        # A failure on the very first iterate leaves no trajectory to return.
        _, data = make_instance(5, 400, seed=3)
        fail_support_check(monkeypatch, lambda n: n == 1)
        with pytest.raises(DegenerateSupport, match="outer iteration 0"):
            tune_scalar(data.cov_train, data.cov_test, BilevelConfig())

    def test_kink_entries_count_the_zero_branch(self):
        # Just below lambda_init one off-diagonal pair is on the support,
        # far inside the kink band; the rule takes both entries off it.
        _, data = make_instance(4, 100, seed=2)
        cfg = BilevelConfig(
            init=Regularization.scalar(lambda_init(data.cov_train) - 1e-8),
            max_outer_iter=1,
            solver=SolverConfig(tol=1e-11),
        )
        _, traj = tune_scalar(data.cov_train, data.cov_test, cfg)
        assert traj.records[0].kink_entries == 2

    def test_repeated_midrun_failure_aborts_with_trajectory(self, monkeypatch):
        _, data = make_instance(5, 400, seed=3)
        fail_support_check(monkeypatch, lambda n: n > 1)
        lam, traj = tune_scalar(
            data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=5)
        )
        assert traj.stop_reason.startswith("aborted at outer iteration 1")
        assert traj.aborted
        assert not traj.converged
        assert len(traj) == 1
        assert traj.final.penalty == (lam,)

    def test_step_to_zero_penalty_aborts(self):
        # The first step underflows lam to 0, where lam * dC/dlam is 0 too:
        # read as a converged run, it would claim a stationary point.
        _, data = make_instance(10, 400, seed=1)
        lam, traj = tune_scalar(
            data.cov_train, data.cov_test,
            BilevelConfig(step_size=1e6, max_outer_iter=5),
        )
        assert traj.aborted and not traj.converged
        assert traj.stop_reason == (
            "aborted at outer iteration 1: the step took a penalty to 0 or inf"
        )
        assert len(traj) == 1
        assert traj.final.penalty == (lam,) and lam > 0.0


# The default scalar tuner's optimum on make_instance(10, 400, seed=1).
LAM_OPT_P10_SEED1 = 0.029089247267355373


class TestTuneMatrix:
    def _config(self, data, **kwargs):
        lam = 0.3 * lambda_init(data.cov_train)
        return BilevelConfig(init=Regularization.scalar(lam), **kwargs)

    def test_midrun_non_spd_backtracking_aborts(self):
        # The step out of the scalar optimum leaves the inner solve no SPD
        # sufficient-decrease step (NotPositiveDefinite).
        _, data = make_instance(10, 400, seed=1)
        cfg = BilevelConfig(init=Regularization.scalar(LAM_OPT_P10_SEED1),
                            step_size=1e4, max_outer_iter=20)
        weights, traj = tune_matrix(data.cov_train, data.cov_test, cfg)
        assert traj.aborted and not traj.converged
        assert traj.stop_reason.startswith("aborted at outer iteration 1: no positive definite")
        assert len(traj) == 1
        assert_final_weights(traj, weights)

    @pytest.mark.filterwarnings("error")
    def test_step_to_infinite_penalty_aborts(self):
        _, data = make_instance(10, 400, seed=1)
        cfg = BilevelConfig(init=Regularization.scalar(LAM_OPT_P10_SEED1),
                            step_size=1e5, max_outer_iter=20)
        weights, traj = tune_matrix(data.cov_train, data.cov_test, cfg)
        assert traj.aborted and not traj.converged
        assert traj.stop_reason == (
            "aborted at outer iteration 1: the step took a penalty to 0 or inf"
        )
        assert len(traj) == 1
        assert_final_weights(traj, weights)
        assert np.ptp(weights) == 0.0  # the constant starting matrix

    def test_repeated_midrun_failure_aborts_with_trajectory(self, monkeypatch):
        _, data = make_instance(4, 200, seed=0)
        fail_support_check(monkeypatch, lambda n: n > 1)
        weights, traj = tune_matrix(
            data.cov_train, data.cov_test, self._config(data, max_outer_iter=5)
        )
        assert traj.stop_reason.startswith("aborted at outer iteration 1")
        assert traj.aborted
        assert not traj.converged
        assert len(traj) == 1
        assert_final_weights(traj, weights)

    def test_kink_no_longer_aborts_cli_p20_seed0(self):
        # The CLI's p=20 seed-0 data: the matrix stage used to stop at a
        # kink at outer iteration 140; the zero-branch rule runs it through
        # its whole budget, and the fixed step keeps the criterion falling.
        _, data = make_instance(20, 500, seed=0, density=0.05)
        lam, straj = tune_scalar(data.cov_train, data.cov_test)
        _, traj = tune_matrix(data.cov_train, data.cov_test,
                              BilevelConfig(init=Regularization.scalar(lam)),
                              warm_start=straj.estimate)
        assert not traj.aborted
        assert traj.stop_reason == "outer iteration budget exhausted"
        assert len(traj) == BilevelConfig().max_outer_iter + 1
        assert np.all(np.diff([r.criterion for r in traj.records]) <= 0.0)

    def test_stationary_at_matched_holdout(self):
        # If the hold-out covariance is exactly the inverse of the solution,
        # the criterion gradient vanishes and the tuner stops at iteration 0.
        _, data = make_instance(4, 200, seed=0)
        lam = 0.3 * lambda_init(data.cov_train)
        est = solve(data.cov_train, Regularization.scalar(lam))
        cov_test = spd_inverse(cholesky(est.theta))
        weights, traj = tune_matrix(
            data.cov_train, cov_test, BilevelConfig(init=Regularization.scalar(lam))
        )
        assert traj.converged
        assert len(traj) == 1
        assert traj.final.hypergrad_norm == 0.0
        np.testing.assert_array_equal(weights, np.full((4, 4), lam))

    def test_zero_weights_stay_zero(self):
        _, data = make_instance(4, 200, seed=4)
        w0 = np.full((4, 4), 0.3 * lambda_init(data.cov_train))
        np.fill_diagonal(w0, 0.0)
        cfg = BilevelConfig(init=Regularization.matrix(w0), max_outer_iter=3)
        weights, traj = tune_matrix(data.cov_train, data.cov_test, cfg)
        assert np.all(np.diagonal(weights) == 0.0)
        assert np.all(weights[~np.eye(4, dtype=bool)] > 0.0)
        assert len(traj) >= 1

    def test_refines_scalar_optimum(self):
        _, data = make_instance(6, 400, seed=3)
        lam, straj = tune_scalar(data.cov_train, data.cov_test)
        cfg = BilevelConfig(init=Regularization.scalar(lam))
        weights, mtraj = tune_matrix(data.cov_train, data.cov_test, cfg)
        assert mtraj.final.criterion <= straj.final.criterion + 1e-8
        assert weights.shape == (6, 6)
        np.testing.assert_array_equal(weights, weights.T)

    def test_requires_an_init(self, monkeypatch):
        # No hidden scalar descent: without an init the matrix tuner
        # raises before it solves anything.
        _, data = make_instance(4, 200, seed=0)
        monkeypatch.setattr(glassotune.bilevel, "solve", None)
        with pytest.raises(ValueError, match="init"):
            tune_matrix(data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=2))

    def test_warm_start_at_the_scalar_optimum_needs_no_iteration(self):
        _, data = make_instance(20, 500, seed=0, density=0.05)
        lam, straj = tune_scalar(data.cov_train, data.cov_test)
        cfg = BilevelConfig(init=Regularization.scalar(lam), max_outer_iter=2)
        _, cold = tune_matrix(data.cov_train, data.cov_test, cfg)
        _, warm = tune_matrix(data.cov_train, data.cov_test, cfg,
                              warm_start=straj.estimate.theta)
        assert cold.records[0].inner_iterations > 0
        assert warm.records[0].inner_iterations == 0
        assert warm.records[0].criterion == pytest.approx(straj.final.criterion, abs=1e-9)
        for r in warm.records:
            assert 0 <= r.newton_steps <= r.inner_iterations
            assert r.newton_steps <= r.newton_trials

    def test_rejects_zero_scalar_init(self):
        _, data = make_instance(3, 100, seed=1)
        with pytest.raises(ValueError):
            tune_matrix(
                data.cov_train,
                data.cov_test,
                BilevelConfig(init=Regularization.scalar(0.0)),
            )

    def test_rejects_matrix_init_of_another_size(self):
        _, data = make_instance(3, 100, seed=1)
        for size in (2, 1):
            with pytest.raises(ValueError):
                tune_matrix(
                    data.cov_train,
                    data.cov_test,
                    BilevelConfig(init=Regularization.matrix(np.ones((size, size)))),
                )

    def test_deterministic_apart_from_timing(self):
        _, data = make_instance(4, 200, seed=0)
        lam = 0.3 * lambda_init(data.cov_train)
        cfg = BilevelConfig(init=Regularization.scalar(lam), max_outer_iter=3)
        _, a = tune_matrix(data.cov_train, data.cov_test, cfg)
        _, b = tune_matrix(data.cov_train, data.cov_test, cfg)
        assert untimed(a) == untimed(b)
        np.testing.assert_array_equal(a.estimate.reg.weights, b.estimate.reg.weights)


class TestTrajectoryRecord:
    @pytest.mark.parametrize("tuner, width", [(tune_scalar, 1), (tune_matrix, 3)])
    def test_records_hold_numbers(self, tuner, width):
        # A record keeps the penalty as the numbers the CSV prints, so it
        # holds no p x p array and hashes by value.
        truth, data = make_instance(30, 600, seed=0, density=0.1)
        lam = 0.3 * lambda_init(data.cov_train)
        cfg = BilevelConfig(init=Regularization.scalar(lam), max_outer_iter=4)
        _, traj = tuner(data.cov_train, data.cov_test, cfg, theta_true=truth.theta_true)
        assert len(traj) == 5
        for r in traj.records:
            for f in dataclasses.fields(r):
                value = getattr(r, f.name)
                if f.name == "penalty":
                    assert type(value) is tuple and len(value) == width
                    assert all(type(x) is float for x in value)
                else:
                    assert value is None or type(value) in (int, float), f.name
            assert hash(r) == hash(dataclasses.replace(r))
        assert len(set(r.penalty for r in traj.records)) == len(traj)  # the penalty moved


class TestTrajectoryCsv:
    def _scalar_traj(self):
        _, data = make_instance(4, 200, seed=0)
        _, traj = tune_scalar(
            data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=2)
        )
        return traj

    def test_scalar_layout(self, tmp_path):
        traj = self._scalar_traj()
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert (
            lines[0]
            == "iter,lambda,criterion,hypergrad_norm,inner_iters,rel_error,seconds"
        )
        assert len(lines) == len(traj) + 1
        for i, line in enumerate(lines[1:]):
            cols = line.split(",")
            assert len(cols) == 7
            assert cols[0] == str(i)
            assert (float(cols[1]),) == traj.records[i].penalty
            assert cols[5] == "nan"  # no ground truth passed

    def test_matrix_layout(self, tmp_path):
        _, data = make_instance(4, 200, seed=0)
        lam = 0.3 * lambda_init(data.cov_train)
        _, traj = tune_matrix(
            data.cov_train,
            data.cov_test,
            BilevelConfig(init=Regularization.scalar(lam), max_outer_iter=2),
        )
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "iter,lambda_min,lambda_max,lambda_mean,"
            "criterion,hypergrad_norm,inner_iters,rel_error,seconds"
        )
        for line, record in zip(lines[1:], traj.records, strict=True):
            cols = line.split(",")
            assert len(cols) == 9
            assert tuple(float(c) for c in cols[1:4]) == record.penalty
            assert float(cols[1]) <= float(cols[3]) <= float(cols[2])

    def test_container_basics(self):
        traj = Trajectory(scalar=True)
        assert len(traj) == 0
        traj.records.append(
            TrajectoryRecord(0, (0.5,), 1.25, 0.3, 7, None, 0.01)
        )
        assert traj.final.criterion == 1.25

    def test_grid_point_fields(self):
        g = GridPoint(lam=0.2, criterion=1.0, rel_error=0.5, failed=False)
        assert g.lam == 0.2 and not g.failed


@pytest.fixture(scope="module")
def tuned_p20():
    """Grid and default scalar descent on the p=20 acceptance instance."""
    truth, data = make_instance(20, 500, seed=3)
    grid = default_grid(lambda_init(data.cov_train), points=100)
    best, curve = grid_search(
        data.cov_train, data.cov_test, grid, theta_true=truth.theta_true
    )
    lam_opt, traj = tune_scalar(
        data.cov_train, data.cov_test, BilevelConfig(), theta_true=truth.theta_true
    )
    return best, curve, lam_opt, traj


class TestToleranceGoldens:
    """Tuner outputs at p=20, recorded while the inner step only shrank.

    The grid argmin is a grid point, so it must match exactly; the values
    at it and the descent's optimum move with the inner solver's iterates
    within its tolerance, so they are pinned to 1e-6 relative.
    """

    GRID_ARGMIN = 0.030793386302005992
    GRID_CRITERION = 6.131968892113399
    SCALAR_LAMBDA = 0.029962383349850907
    SCALAR_CRITERION = 6.13166118415182

    def test_grid_argmin(self, tuned_p20):
        best, curve, _, _ = tuned_p20
        assert best == self.GRID_ARGMIN
        (point,) = [g for g in curve if g.lam == best]
        assert point.criterion == pytest.approx(self.GRID_CRITERION, rel=1e-6)

    def test_scalar_descent(self, tuned_p20):
        _, _, lam_opt, traj = tuned_p20
        assert lam_opt == pytest.approx(self.SCALAR_LAMBDA, rel=1e-6)
        assert traj.final.criterion == pytest.approx(self.SCALAR_CRITERION, rel=1e-6)
