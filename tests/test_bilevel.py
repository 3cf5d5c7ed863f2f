import dataclasses

import numpy as np
import pytest

import glassotune.bilevel
import glassotune.glasso
from glassotune.bilevel import (
    CONVERGED_STOPS,
    FLAT_TOL,
    FLAT_WINDOW,
    INIT_BACKOFF,
    MAX_MOVE,
    MAX_STEP,
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
from glassotune.exceptions import DegenerateInput, DegenerateSupport, NotConverged
from glassotune.glasso import Regularization, SolverConfig, solve
from glassotune.implicit import (
    criterion_holdout,
    hypergradient_weighted,
    support_from_estimate,
)
from glassotune.linalg import spd_inverse, cholesky

from conftest import fail_support_check, make_instance


def assert_same_records(a, b):
    """Two runs' records are equal apart from the wall-clock field; a
    missing relative error, nan, matches nan."""
    np.testing.assert_equal(*([dataclasses.astuple(dataclasses.replace(r, seconds=0.0))
                               for r in traj.records] for traj in (a, b)))


def start_at(cov_train, fraction):
    """The estimate solved at ``fraction`` of lambda_init, a matrix tuner's start."""
    return solve(cov_train, Regularization.scalar(fraction * lambda_init(cov_train)))


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

    def recording(cov, reg, config, warm_start=None):
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
        _, straj = tune_scalar(data.cov_train, data.cov_test, cfg)
        tune_matrix(data.cov_train, data.cov_test, straj.estimate, cfg)
    assert len(calls) > 1 and calls[0][0] is None
    for (_, previous), (warm, _) in zip(calls, calls[1:]):
        assert warm is previous


@pytest.mark.parametrize("tuner", ["grid", "scalar", "matrix"])
def test_theta_true_of_another_shape_raises_before_any_solve(monkeypatch, tuner):
    # Checked only by the first relative_error, a 3 x 3 truth with 6 x 6
    # data failed after one solve.
    _, data = make_instance(6, 300, seed=0)
    start = start_at(data.cov_train, 0.3)
    real = glassotune.bilevel.solve
    solves = []

    def counted(*args, **kwargs):
        solves.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(glassotune.bilevel, "solve", counted)
    truth = np.eye(3)
    with pytest.raises(ValueError, match=r"^theta_true must have shape \(6, 6\)"):
        if tuner == "grid":
            grid_search(data.cov_train, data.cov_test,
                        default_grid(lambda_init(data.cov_train), points=4), theta_true=truth)
        elif tuner == "scalar":
            tune_scalar(data.cov_train, data.cov_test, theta_true=truth)
        else:
            tune_matrix(data.cov_train, data.cov_test, start, theta_true=truth)
    assert solves == []


class TestLambdaInit:
    def test_offdiag_max(self):
        cov = np.array([[2.0, 0.5], [0.5, 3.0]])
        assert lambda_init(cov) == 0.5

    def test_uses_magnitudes(self):
        cov = np.array([[1.0, -0.7], [-0.7, 1.0]])
        assert lambda_init(cov) == 0.7

    def test_diagonal_covariance_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            lambda_init(np.diag([1.0, 2.0]))

    def test_zero_matrix_is_degenerate(self):
        with pytest.raises(DegenerateInput):
            lambda_init(np.zeros((2, 2)))

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

    def test_reads_the_symmetric_part(self):
        # The solver sees only (S + S^T) / 2, whose off-diagonal is 1: its
        # solution turns diagonal at 1, not at the raw entry 2.
        cov = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert lambda_init(cov) == 1.0
        assert starting_level(cov) == INIT_BACKOFF
        assert solve(cov, Regularization.scalar(1.01)).theta[0, 1] == 0.0
        assert solve(cov, Regularization.scalar(0.99)).theta[0, 1] != 0.0


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

    @pytest.mark.parametrize("points", [2.5, 3.0])
    def test_rejects_a_float_count(self, points):
        with pytest.raises(ValueError, match="points must be an integer >= 1"):
            default_grid(1.0, points)

    @pytest.mark.parametrize("lam_init", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("points", [1, 3])
    def test_rejects_a_level_that_is_not_finite_and_positive(self, lam_init, points):
        with pytest.raises(ValueError, match="lam_init must be finite and > 0"):
            default_grid(lam_init, points)


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
        start = None if tune is tune_scalar else start_at(data[0], 0.3)
        with pytest.raises(ValueError, match="square 2-d"):
            tune(data[0], np.ones((1, 8)), start=start, config=BilevelConfig(max_outer_iter=2))


class TestGridSearch:
    def test_curve_shape_and_best(self):
        truth, data = make_instance(4, 200, seed=0)
        grid = default_grid(lambda_init(data.cov_train), points=12)
        best, curve = grid_search(
            data.cov_train, data.cov_test, grid, theta_true=truth.theta_true
        )
        # the evaluated levels: the grid's largest, in increasing order
        assert 0 < len(curve) < 12
        assert [g.lam for g in curve] == list(grid[-len(curve):])
        solved = [g for g in curve if not g.failed]
        assert best == min(solved, key=lambda g: g.criterion).lam
        assert all(np.isfinite(g.rel_error) for g in solved)

    def test_stop_keeps_the_full_sweeps_best(self, monkeypatch):
        truth, data = make_instance(10, 300, seed=0)
        grid = default_grid(lambda_init(data.cov_train), points=30)
        best, curve = grid_search(data.cov_train, data.cov_test, grid, theta_true=truth.theta_true)
        monkeypatch.setattr(glassotune.bilevel, "GRID_STOP_SPAN", np.inf)
        full_best, full = grid_search(data.cov_train, data.cov_test, grid,
                                      theta_true=truth.theta_true)
        assert len(full) == 30 > len(curve)
        assert best == full_best
        # the stopped sweep is the full one's first part, bit for bit
        assert [(g.lam, g.criterion, g.rel_error) for g in curve] == [
            (g.lam, g.criterion, g.rel_error) for g in full[-len(curve):]]
        kept, full_kept = (next(g.estimate for g in c if g.lam == best) for c in (curve, full))
        np.testing.assert_array_equal(kept.theta, full_kept.theta)
        np.testing.assert_array_equal(kept.theta_inv, full_kept.theta_inv)
        assert kept.logdet == full_kept.logdet

    def test_stops_at_the_first_level_at_or_below_best_over_the_span(self):
        _, data = make_instance(10, 300, seed=1)
        grid = default_grid(lambda_init(data.cov_train), points=30)
        best, curve = grid_search(data.cov_train, data.cov_test, grid)
        assert glassotune.bilevel.GRID_STOP_SPAN == 1.2
        assert curve[0].lam <= best / 1.2 < curve[1].lam

    def test_failed_point_past_the_best_does_not_stop(self, monkeypatch):
        _, data = make_instance(10, 300, seed=1)
        grid = default_grid(lambda_init(data.cov_train), points=30)
        best, curve = grid_search(data.cov_train, data.cov_test, grid)
        # fail the level the sweep stopped at
        stop = curve[0].lam

        def failing_solve(cov, reg, *args, **kwargs):
            if reg.lam == stop:
                raise NotConverged("injected", 0, float("nan"))
            return solve(cov, reg, *args, **kwargs)

        monkeypatch.setattr(glassotune.bilevel, "solve", failing_solve)
        best_f, curve_f = grid_search(data.cov_train, data.cov_test, grid)
        assert best_f == best
        assert [g.lam for g in curve_f] == list(grid[-len(curve) - 1:])
        assert [g.failed for g in curve_f[:2]] == [False, True]

    def test_coarse_grid_stops_one_cell_past_its_best(self):
        _, data = make_instance(20, 500, seed=3)
        lam0 = lambda_init(data.cov_train)
        grid = default_grid(lam0, points=4)
        best, curve = grid_search(data.cov_train, data.cov_test, grid)
        assert best == grid[2]  # lam0 / 10
        assert [g.lam for g in curve] == list(grid[1:])

    def test_unsorted_grid_with_a_repeated_level(self):
        # The curve comes back by increasing level, each entry of the grid
        # the sweep reached kept, the repeated one twice.
        _, data = make_instance(20, 500, seed=3)
        grid = default_grid(lambda_init(data.cov_train), points=4)
        levels = [grid[2], grid[3], grid[1], grid[2], grid[0]]
        best, curve = grid_search(data.cov_train, data.cov_test, levels)
        assert best == grid[2]
        assert [g.lam for g in curve] == [grid[1], grid[2], grid[2], grid[3]]
        assert curve[1].criterion == curve[2].criterion
        assert sum(g.estimate is not None for g in curve) == 1

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
        lam = lambda_init(data.cov_train)
        # a grid that is not 1-d used to raise numpy's TypeError
        for grid in ([], [0.1, -0.2], [[lam, lam / 2], [lam / 4, lam / 8]], [[lam]]):
            with pytest.raises(ValueError):
                grid_search(data.cov_train, data.cov_test, grid)

    def test_argmin_keeps_its_solution(self):
        _, data = make_instance(4, 200, seed=0)
        grid = default_grid(lambda_init(data.cov_train), points=6)
        best, curve = grid_search(data.cov_train, data.cov_test, grid)
        at_best = next(g for g in curve if g.lam == best)
        assert all(g.estimate is None for g in curve if g is not at_best)
        assert at_best.estimate.reg.lam == best
        assert criterion_holdout(at_best.estimate.theta, data.cov_test).value == at_best.criterion

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
        [{"step_size": 0.0}, {"max_outer_iter": 0}, {"max_outer_iter": 2.5},
         {"step_size": float("inf")}],
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
        assert np.isfinite(traj.final.rel_error)

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
        _, traj = tune_scalar(data.cov_train, data.cov_test, BilevelConfig(step_size=5.0),
                              start=lam)
        assert traj.converged
        assert len(traj) <= 5

    def test_budget_exhaustion(self):
        _, data = make_instance(5, 400, seed=3)
        cfg = BilevelConfig(max_outer_iter=2)
        _, traj = tune_scalar(data.cov_train, data.cov_test, cfg)
        assert not traj.converged
        assert traj.stop_reason == "outer iteration budget exhausted"
        assert len(traj) == cfg.max_outer_iter + 1

    def test_rel_error_nan_without_truth(self):
        _, data = make_instance(5, 400, seed=3)
        _, traj = tune_scalar(
            data.cov_train, data.cov_test, BilevelConfig(max_outer_iter=1)
        )
        assert all(type(r.rel_error) is float and np.isnan(r.rel_error) for r in traj.records)

    def test_deterministic_apart_from_timing(self):
        _, data = make_instance(5, 400, seed=3)
        cfg = BilevelConfig(max_outer_iter=5)
        _, a = tune_scalar(data.cov_train, data.cov_test, cfg)
        _, b = tune_scalar(data.cov_train, data.cov_test, cfg)
        assert_same_records(a, b)

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

    def test_never_takes_the_flat_criterion_stop(self, monkeypatch):
        # The stop is for weights only: with a threshold that every record
        # from k = FLAT_WINDOW on would meet, a level's descent runs as before.
        _, data = make_instance(10, 400, seed=1)
        _, before = tune_scalar(data.cov_train, data.cov_test)
        monkeypatch.setattr(glassotune.bilevel, "FLAT_TOL", np.inf)
        _, after = tune_scalar(data.cov_train, data.cov_test)
        assert len(before) > FLAT_WINDOW + 1
        assert_same_records(after, before)
        assert after.stop_reason == before.stop_reason == "hypergradient below tolerance"

    @pytest.mark.parametrize("start", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_start_that_is_not_finite_and_positive(self, monkeypatch, start):
        # alpha = log(start) must be finite; checked before any solve
        _, data = make_instance(3, 100, seed=1)
        monkeypatch.setattr(glassotune.bilevel, "solve", None)
        with pytest.raises(ValueError, match="start must be finite and > 0"):
            tune_scalar(data.cov_train, data.cov_test, start=start)

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
        # A tiny first step stops the descent at that one iterate.
        cfg = BilevelConfig(step_size=1e-12, solver=SolverConfig(tol=1e-11))
        _, traj = tune_scalar(data.cov_train, data.cov_test, cfg,
                              start=lambda_init(data.cov_train) - 1e-8)
        assert len(traj) == 1
        assert traj.kink_entries == 2

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


# A stationary level of the scalar criterion on make_instance(10, 400,
# seed=1): |g_alpha| <= OUTER_TOL there.
LAM_OPT_P10_SEED1 = 0.029089247267355373


class TestTuneMatrix:
    def test_midrun_non_spd_backtracking_aborts(self):
        # The step out of the scalar optimum leaves the inner solve no SPD
        # sufficient-decrease step (NotPositiveDefinite).
        _, data = make_instance(10, 400, seed=1)
        start = solve(data.cov_train, Regularization.scalar(LAM_OPT_P10_SEED1))
        cfg = BilevelConfig(step_size=1e4, max_outer_iter=20)
        weights, traj = tune_matrix(data.cov_train, data.cov_test, start, cfg)
        assert traj.aborted and not traj.converged
        assert traj.stop_reason.startswith("aborted at outer iteration 1: no positive definite")
        assert len(traj) == 1
        assert_final_weights(traj, weights)

    @pytest.mark.filterwarnings("error")
    def test_step_to_infinite_penalty_aborts(self):
        _, data = make_instance(10, 400, seed=1)
        start = solve(data.cov_train, Regularization.scalar(LAM_OPT_P10_SEED1))
        cfg = BilevelConfig(step_size=1e5, max_outer_iter=20)
        weights, traj = tune_matrix(data.cov_train, data.cov_test, start, cfg)
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
        weights, traj = tune_matrix(data.cov_train, data.cov_test,
                                    start_at(data.cov_train, 0.3), BilevelConfig(max_outer_iter=5))
        assert traj.stop_reason.startswith("aborted at outer iteration 1")
        assert traj.aborted
        assert not traj.converged
        assert len(traj) == 1
        assert_final_weights(traj, weights)

    def test_kink_no_longer_aborts_cli_p20_seed0(self, monkeypatch):
        # The CLI's p=20 seed-0 data: the matrix stage used to stop at a
        # kink at outer iteration 140; the zero-branch rule runs it through
        # its whole budget, and the fixed step keeps the criterion falling.
        # The flat-criterion stop would end it long before the kink.
        monkeypatch.setattr(glassotune.bilevel, "FLAT_TOL", 0.0)
        _, data = make_instance(20, 500, seed=0, density=0.05)
        _, straj = tune_scalar(data.cov_train, data.cov_test)
        _, traj = tune_matrix(data.cov_train, data.cov_test, straj.estimate)
        assert not traj.aborted
        assert traj.stop_reason == "outer iteration budget exhausted"
        assert len(traj) == BilevelConfig().max_outer_iter + 1
        assert np.all(np.diff([r.criterion for r in traj.records]) <= 0.0)

    def test_stops_once_the_held_out_criterion_is_flat(self):
        # The same data at the default threshold: the stage stops at the
        # first record whose criterion fell by less than FLAT_TOL relative
        # over the last FLAT_WINDOW records.
        _, data = make_instance(20, 500, seed=0, density=0.05)
        _, straj = tune_scalar(data.cov_train, data.cov_test)
        _, traj = tune_matrix(data.cov_train, data.cov_test, straj.estimate)
        assert traj.stop_reason == "held-out criterion flat"
        assert traj.converged and not traj.aborted
        crit = np.array([r.criterion for r in traj.records])
        fall = (crit[:-FLAT_WINDOW] - crit[FLAT_WINDOW:]) / np.abs(crit[FLAT_WINDOW:])
        assert fall[-1] < FLAT_TOL
        assert np.all(fall[:-1] >= FLAT_TOL)
        assert FLAT_WINDOW < len(traj) < BilevelConfig().max_outer_iter + 1

    def test_stationary_at_matched_holdout(self):
        # If the hold-out covariance is exactly the inverse of the solution,
        # the criterion gradient vanishes and the tuner stops at iteration 0.
        _, data = make_instance(4, 200, seed=0)
        lam = 0.3 * lambda_init(data.cov_train)
        est = solve(data.cov_train, Regularization.scalar(lam))
        cov_test = spd_inverse(cholesky(est.theta))
        weights, traj = tune_matrix(data.cov_train, cov_test, est)
        assert traj.converged
        assert len(traj) == 1
        assert traj.final.hypergrad_norm == 0.0
        np.testing.assert_array_equal(weights, np.full((4, 4), lam))

    @pytest.mark.filterwarnings("error")
    def test_zero_weights_stay_zero(self):
        # Pinned entries sit at alpha = -inf: a step or a Barzilai-Borwein
        # difference that formed -inf - (-inf) would warn, here an error.
        _, data = make_instance(4, 200, seed=4)
        w0 = np.full((4, 4), 0.3 * lambda_init(data.cov_train))
        np.fill_diagonal(w0, 0.0)
        start = solve(data.cov_train, Regularization.matrix(w0))
        weights, traj = tune_matrix(data.cov_train, data.cov_test, start,
                                    BilevelConfig(max_outer_iter=3))
        assert np.all(np.diagonal(weights) == 0.0)
        assert np.all(weights[~np.eye(4, dtype=bool)] > 0.0)
        assert len(traj) == 4  # two Barzilai-Borwein steps among them

    def test_refines_scalar_optimum(self):
        _, data = make_instance(6, 400, seed=3)
        _, straj = tune_scalar(data.cov_train, data.cov_test)
        weights, mtraj = tune_matrix(data.cov_train, data.cov_test, straj.estimate)
        assert mtraj.final.criterion <= straj.final.criterion + 1e-8
        assert weights.shape == (6, 6)
        np.testing.assert_array_equal(weights, weights.T)

    def test_first_record_keeps_the_start_estimate(self, monkeypatch):
        # The first solve warm-starts from the start estimate, which already
        # solves the constant weights its level fills: no inner iteration.
        _, data = make_instance(20, 500, seed=0, density=0.05)
        _, straj = tune_scalar(data.cov_train, data.cov_test)
        calls = recorded_solves(monkeypatch)
        _, traj = tune_matrix(data.cov_train, data.cov_test, straj.estimate,
                              BilevelConfig(max_outer_iter=2))
        warm, reg, est = calls[0]
        assert warm is straj.estimate
        assert not reg.is_scalar
        np.testing.assert_array_equal(reg.weights, np.full((20, 20), straj.estimate.reg.lam))
        assert est.iterations == 0 and traj.records[0].inner_iterations == 0
        np.testing.assert_array_equal(est.theta, straj.estimate.theta)
        assert traj.records[0].criterion == straj.final.criterion

    def test_start_at_level_zero_pins_every_weight(self):
        # A level fills a constant matrix; at 0 every weight is pinned, so
        # no entry is free and the hypergradient over them is 0.
        _, data = make_instance(3, 100, seed=1)
        start = solve(data.cov_train, Regularization.scalar(0.0))
        weights, traj = tune_matrix(data.cov_train, data.cov_test, start)
        np.testing.assert_array_equal(weights, np.zeros((3, 3)))
        assert traj.stop_reason == "hypergradient below tolerance"
        assert len(traj) == 1 and traj.final.hypergrad_norm == 0.0

    def test_rejects_matrix_init_of_another_size(self, monkeypatch):
        # A start estimate of another size, or one whose weights are, is
        # rejected before any solve.
        _, data = make_instance(3, 100, seed=1)
        lam = 0.3 * lambda_init(data.cov_train)
        own = solve(data.cov_train, Regularization.scalar(lam))
        starts = [solve(data.cov_train[:size, :size], Regularization.scalar(lam))
                  for size in (2, 1)]
        starts += [dataclasses.replace(own, reg=Regularization.matrix(np.ones((size, size))))
                   for size in (2, 1)]
        monkeypatch.setattr(glassotune.bilevel, "solve", None)
        for start in starts:
            with pytest.raises(ValueError):
                tune_matrix(data.cov_train, data.cov_test, start)

    def test_deterministic_apart_from_timing(self):
        _, data = make_instance(4, 200, seed=0)
        start, cfg = start_at(data.cov_train, 0.3), BilevelConfig(max_outer_iter=3)
        _, a = tune_matrix(data.cov_train, data.cov_test, start, cfg)
        _, b = tune_matrix(data.cov_train, data.cov_test, start, cfg)
        assert_same_records(a, b)
        np.testing.assert_array_equal(a.estimate.reg.weights, b.estimate.reg.weights)


def recorded_solves(monkeypatch):
    """Make the tuners' solves append (warm start, penalty, estimate) to a list."""
    real = glassotune.bilevel.solve
    calls = []

    def recording(cov, reg, config, warm_start=None):
        est = real(cov, reg, config, warm_start=warm_start)
        calls.append((warm_start, reg, est))
        return est

    monkeypatch.setattr(glassotune.bilevel, "solve", recording)
    return calls


def solve_totals(calls):
    """Inner iterations, Newton steps and Newton trials over the recorded solves."""
    return tuple(sum(getattr(est, name) for *_, est in calls)
                 for name in ("iterations", "newton_steps", "newton_trials"))


def stage_totals(traj):
    return traj.inner_iterations, traj.newton_steps, traj.newton_trials


def run_tuner(tuner, data, **kwargs):
    """tune_scalar from its default start, or tune_matrix from the estimate
    at a level (solved before the recorded solves start to be counted)."""
    if tuner == "scalar":
        _, traj = tune_scalar(data.cov_train, data.cov_test, BilevelConfig(**kwargs))
    else:
        _, traj = tune_matrix(data.cov_train, data.cov_test, start_at(data.cov_train, 0.3),
                              BilevelConfig(**kwargs))
    return traj


class TestStopStatus:
    @pytest.mark.parametrize("reason, converged, aborted", [
        *((stop, True, False) for stop in CONVERGED_STOPS),
        ("outer iteration budget exhausted", False, False),
        ("aborted at outer iteration 3: the step took a penalty to 0 or inf", False, True),
    ])
    def test_read_from_the_stop_reason(self, reason, converged, aborted):
        traj = Trajectory(stop_reason=reason)
        assert (traj.converged, traj.aborted) == (converged, aborted)

    def test_is_not_stored_apart_from_the_stop_reason(self):
        traj = Trajectory()
        for name in ("converged", "aborted"):
            with pytest.raises(AttributeError):
                setattr(traj, name, True)


class TestOuterStep:
    """The Barzilai-Borwein outer step, its acceptance test and its stops."""

    @pytest.mark.parametrize("seed, fixed_step_criterion", [(7, 25.98549331), (8, 29.85835821)])
    def test_kink_seeds_stop_by_a_named_rule(self, seed, fixed_step_criterion):
        # The CLI's p=100 data at seeds 7 and 8: the fixed step used to
        # cycle over a kink until its budget of 200 ran out, at these
        # criteria.
        _, data = make_instance(100, 2000, seed=seed, density=0.05)
        _, traj = tune_scalar(data.cov_train, data.cov_test)
        assert traj.converged and not traj.aborted
        assert traj.stop_reason in CONVERGED_STOPS
        assert len(traj) <= 30
        assert traj.final.criterion <= fixed_step_criterion

    def test_steps_are_barzilai_borwein_quotients(self):
        _, data = make_instance(10, 400, seed=1)
        cfg = BilevelConfig(step_size=0.1)
        _, traj = tune_scalar(data.cov_train, data.cov_test, cfg)
        assert traj.rejected_steps == 0 and len(traj) >= 4
        alpha = np.log([r.penalty[0] for r in traj.records])
        # A record holds |g|; every step here was accepted, so the sign of
        # g is the direction of the step that follows it.
        g = np.array([r.hypergrad_norm for r in traj.records[:-1]])
        g *= np.sign(alpha[:-1] - alpha[1:])
        step = cfg.step_size
        for k in range(len(g)):
            if k:
                da, dg = alpha[k] - alpha[k - 1], g[k] - g[k - 1]
                if da * dg > 0.0:
                    step = min(da * da / (da * dg), MAX_STEP, MAX_MOVE / abs(g[k]))
            assert alpha[k + 1] == pytest.approx(alpha[k] - step * g[k], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("tuner", ["scalar", "matrix"])
    def test_rejected_trial_halves_the_step(self, monkeypatch, tuner):
        # The criterion of the first trial is made worse by 1, so the
        # sufficient-decrease test must reject it.
        _, data = make_instance(6, 400, seed=3)
        calls = recorded_solves(monkeypatch)
        real = glassotune.bilevel.criterion_holdout
        seen = []

        def patched(est, cov):
            crit = real(est, cov)
            seen.append(est)
            if len(seen) == 2:
                return dataclasses.replace(crit, value=crit.value + 1.0)
            return crit

        monkeypatch.setattr(glassotune.bilevel, "criterion_holdout", patched)
        traj = run_tuner(tuner, data, max_outer_iter=1, step_size=0.1)
        assert traj.rejected_steps == 1
        assert len(calls) == 3 and len(traj) == 2
        (_, reg0, est0), (_, reg1, est1), (warm2, reg2, est2) = calls
        # the totals count the rejected trial's solve, which no record holds
        assert stage_totals(traj) == solve_totals(calls)
        assert est1.iterations > 0
        assert traj.inner_iterations == est1.iterations + sum(
            r.inner_iterations for r in traj.records)
        # tried again from the last accepted estimate, at half the step
        assert warm2 is est0
        move = np.log(reg1.thresholds(6)) - np.log(reg0.thresholds(6))
        np.testing.assert_allclose(np.log(reg2.thresholds(6)) - np.log(reg0.thresholds(6)), move / 2.0,
                                   rtol=1e-12, atol=0.0)
        assert np.any(move != 0.0)
        # the rejected trial left no record; the accepted one is the last
        assert traj.estimate is est2
        assert [r.iteration for r in traj.records] == [0, 1]
        assert traj.final.criterion == real(est2, data.cov_test).value

    @pytest.mark.parametrize("tuner", ["scalar", "matrix"])
    def test_solve_that_does_not_move_stops_converged(self, monkeypatch, tuner):
        # At a loose inner tolerance the warm start already meets it after
        # a few steps: theta cannot move, and neither can the hypergradient.
        _, data = make_instance(10, 400, seed=1)
        calls = recorded_solves(monkeypatch)
        loose = SolverConfig(tol=1e-4)
        _, straj = tune_scalar(data.cov_train, data.cov_test, BilevelConfig(solver=loose))
        if tuner == "matrix":
            calls.clear()
            _, traj = tune_matrix(data.cov_train, data.cov_test, straj.estimate,
                                  BilevelConfig(solver=loose))
        else:
            traj = straj
        assert traj.converged and not traj.aborted
        assert traj.stop_reason == "solve below resolution"
        (*_, last) = calls
        assert last[2].iterations == 0
        assert stage_totals(traj) == solve_totals(calls)
        # that trial is not a record: the last record is an earlier solve
        assert traj.estimate is not last[2]
        assert len(traj) + traj.rejected_steps == len(calls) - 1

    def test_tiny_step_stops_converged(self):
        _, data = make_instance(10, 400, seed=1)
        _, traj = tune_scalar(data.cov_train, data.cov_test,
                              BilevelConfig(step_size=1e-12))
        assert traj.converged
        assert traj.stop_reason == "step below resolution"
        assert len(traj) == 1
        assert 1e-12 * traj.final.hypergrad_norm <= 1e-9

    def test_start_far_above_the_optimum_does_not_abort(self):
        # |g| = 6.0 at the second record: a step capped only at MAX_STEP
        # moved alpha by about 6,000 and took lam to 0 or inf.  Move caps of
        # 50 or 100 avoid the abort but stop at lam of 1e-16 or less, with a
        # held-out criterion of 2.0764.
        _, data = make_instance(6, 200, seed=0)
        lam, traj = tune_scalar(data.cov_train, data.cov_test, start=1e6)
        assert not traj.aborted, traj.stop_reason
        assert traj.converged
        assert traj.final.criterion == pytest.approx(1.8801783, abs=1e-7)
        assert lam == pytest.approx(0.0511241, rel=1e-6)

    def test_no_step_after_the_first_moves_alpha_more_than_max_move(self, monkeypatch):
        # The CLI's p=100 seed-8 data, scalar stage then matrix stage: with
        # the step capped only at MAX_STEP, the matrix stage moved alpha by
        # 44.8.  The first step of each stage, config.step_size, is not capped.
        _, data = make_instance(100, 2000, seed=8, density=0.05)
        calls = recorded_solves(monkeypatch)
        _, straj = tune_scalar(data.cov_train, data.cov_test)
        scalar_calls = list(calls)
        calls.clear()
        _, mtraj = tune_matrix(data.cov_train, data.cov_test, straj.estimate)
        assert mtraj.stop_reason == "held-out criterion flat"
        for stage in (scalar_calls, calls):
            # every penalty here is positive, so every alpha is free
            first = stage[0][2]
            moves = [np.max(np.abs(np.log(reg.thresholds(100)) - np.log(warm.reg.thresholds(100))))
                     for warm, reg, _ in stage[1:] if warm is not first]
            assert moves and max(moves) <= MAX_MOVE * (1.0 + 1e-12)
        # the cap binds in the matrix stage
        assert max(moves) == pytest.approx(MAX_MOVE, rel=1e-12)


class TestTrajectoryRecord:
    @pytest.mark.parametrize("tuner, width", [(tune_scalar, 1), (tune_matrix, 3)])
    def test_records_hold_numbers(self, tuner, width):
        # A record keeps the penalty as the numbers the CSV prints, so it
        # holds no p x p array and hashes by value.
        truth, data = make_instance(30, 600, seed=0, density=0.1)
        lam = 0.3 * lambda_init(data.cov_train)
        start = lam if tuner is tune_scalar else solve(data.cov_train, Regularization.scalar(lam))
        _, traj = tuner(data.cov_train, data.cov_test, start=start,
                        config=BilevelConfig(max_outer_iter=4), theta_true=truth.theta_true)
        assert len(traj) == 5
        for r in traj.records:
            for f in dataclasses.fields(r):
                value = getattr(r, f.name)
                if f.name == "penalty":
                    assert type(value) is tuple and len(value) == width
                    assert all(type(x) is float for x in value)
                else:
                    assert type(value) in (int, float), f.name
            assert hash(r) == hash(dataclasses.replace(r))
        assert len(set(r.penalty for r in traj.records)) == len(traj)  # the penalty moved


class TestTrajectoryCsv:
    """The containers that the CLI's CSV writers read (layouts: test_cli.py)."""

    def test_container_basics(self):
        traj = Trajectory()
        assert len(traj) == 0
        traj.records.append(
            TrajectoryRecord(0, (0.5,), 1.25, 0.3, 7, float("nan"), 0.01)
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
    within its tolerance, so they are pinned to 1e-6 relative.  The
    descent's level is pinned to the stationary point of the criterion,
    not to one descent path's last iterate: SCALAR_LAMBDA is where g_alpha
    changes sign, found by bisection in log-lambda on cold solves at the
    default tolerance (g_alpha = -3.5e-13 and +4.1e-13 at the ends of the
    last bracket).  A descent that stops at |g_alpha| <= OUTER_TOL lands
    within about 1.4e-6 relative of it on this instance, where dg/dalpha
    is about 0.72.
    """

    GRID_ARGMIN = 0.030793386302005992
    GRID_CRITERION = 6.131968892113399
    SCALAR_LAMBDA = 0.0299623477957
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
