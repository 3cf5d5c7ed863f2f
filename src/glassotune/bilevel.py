"""Outer-loop penalty tuning by hypergradient descent, plus a grid baseline.

Penalties are positive by construction: the descent runs in alpha with
lam = exp(alpha) for a single level and weights_kl = exp(alpha_kl)
entrywise for a weight matrix, so a plain fixed-step gradient update never
leaves the feasible cone in exact arithmetic (a step that underflows or
overflows the exponential ends the descent).  Both tuners share one outer
loop.  Each outer iteration solves the training problem (warm-started from
the previous solution), evaluates the hold-out criterion, assembles the exact
per-entry hypergradient through one adjoint solve of the implicit
derivative of the solution map, and steps.  A single level is every
weight tied to it, so its derivative is the per-entry one summed.  The
chain rule through the exponential turns a derivative in lam into lam
times it in alpha.

Zero entries in a matrix initialization stay exactly zero: the exponential
parametrization moves weights multiplicatively, which is what makes an
unpenalized diagonal stay unpenalized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .datagen import save_matrix_csv
from .exceptions import DegenerateInput, GlassoTuneError
from .glasso import PrecisionEstimate, Regularization, SolverConfig, solve
from .implicit import (
    criterion_holdout,
    hypergradient_weighted,
    relative_error,
    support_from_estimate,
)
# Not called here; perfbench/tracer.py wraps these names in this module.
from .implicit import hypergradient_scalar, jacobian_scalar  # noqa: F401
from .linalg import symmetrize

# At exactly lambda_init the largest off-diagonal covariance entry sits on
# the soft-threshold kink (zero slack), where the derivative is one-sided.
# Descents start this factor above it: same diagonal solution, strictly
# positive slack, so the first hypergradient is a two-sided derivative.
INIT_BACKOFF = 1.0 + 1e-3

# A descent counts as converged once its hypergradient in alpha is at most
# OUTER_TOL: in absolute value for a level, in sup-norm for a weight matrix.
OUTER_TOL = 1e-6

# default_grid spans [lam_init * GRID_SPAN, lam_init].
GRID_SPAN = 1e-3


@dataclass(frozen=True)
class BilevelConfig:
    """Outer-loop budget and step size.

    ``step_size`` must be finite and positive.  ``init`` is a
    Regularization holding strictly positive starting levels (zeros
    allowed in the matrix case and stay pinned); None picks
    :func:`starting_level` for the scalar tuner, and the scalar optimum
    for the matrix tuner.
    """

    step_size: float = 0.1
    max_outer_iter: int = 200
    init: Optional[Regularization] = None
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise ValueError("step_size must be finite and > 0")
        if self.max_outer_iter < 1:
            raise ValueError("max_outer_iter must be >= 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One outer iteration: the penalty tried and what it cost."""

    iteration: int
    reg: Regularization
    criterion: float
    hypergrad_norm: float
    inner_iterations: int
    rel_error: Optional[float]
    seconds: float
    kink_entries: int = 0  # support entries put on the zero branch
    newton_steps: int = 0  # accepted Newton steps among inner_iterations
    newton_trials: int = 0  # Newton steps tried, accepted or not


@dataclass
class Trajectory:
    """Append-only record of an outer run with its termination status.

    ``estimate`` is the solution at the last recorded iteration.
    ``aborted`` is true when a failure or an out-of-range step after the
    first iterate stopped the run early (see :func:`tune_scalar`); its
    ``stop_reason`` then starts with "aborted".
    """

    scalar: bool
    records: List[TrajectoryRecord] = field(default_factory=list)
    converged: bool = False
    aborted: bool = False
    stop_reason: str = ""
    estimate: Optional[PrecisionEstimate] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def to_csv(self, path) -> None:
        """One row per outer iteration.

        Scalar runs carry a single lambda column; matrix runs carry
        lambda_min/lambda_max/lambda_mean summaries of the weight matrix.
        A missing relative error is written as nan.  The seconds column is
        wall-clock and is the only nondeterministic field.
        """
        lam_header = "lambda" if self.scalar else "lambda_min,lambda_max,lambda_mean"
        rows = []
        for r in self.records:
            w = r.reg.weights
            lam_cols = [r.reg.lam] if self.scalar else [w.min(), w.max(), w.mean()]
            re_val = float("nan") if r.rel_error is None else r.rel_error
            rows.append([r.iteration, *lam_cols, r.criterion, r.hypergrad_norm,
                         r.inner_iterations, re_val, r.seconds])
        save_matrix_csv(
            rows, path,
            header=f"iter,{lam_header},criterion,hypergrad_norm,inner_iters,rel_error,seconds",
        )


def lambda_init(cov_train: np.ndarray, policy: str = "offdiag-max") -> float:
    """Starting level for the scalar tuner.

    ``offdiag-max`` (default) returns the largest absolute off-diagonal
    entry of the training covariance: the smallest level at which the
    solution is exactly diagonal, so the descent starts from the sparsest
    informative point.  ``max-entry`` returns the largest absolute entry,
    diagonal included (an upper bound on the former).

    Raises DegenerateInput when the chosen maximum is zero, since no
    positive starting level can be derived from it.
    """
    cov = np.asarray(cov_train, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError("cov_train must be a square matrix")
    if policy == "offdiag-max":
        off = ~np.eye(cov.shape[0], dtype=bool)
        val = float(np.max(np.abs(cov[off]))) if off.any() else 0.0
    elif policy == "max-entry":
        val = float(np.max(np.abs(cov)))
    else:
        raise ValueError(f"unknown lambda-init policy {policy!r}")
    if not np.isfinite(val) or val <= 0.0:
        raise DegenerateInput(
            f"lambda_init policy {policy!r} found no positive entry to scale from"
        )
    return val


def starting_level(cov_train: np.ndarray, policy: str = "offdiag-max") -> float:
    """Differentiable starting level for descent: lambda_init nudged up.

    :func:`lambda_init` itself is the kink where the worst entry has zero
    slack; one step of INIT_BACKOFF above it the solution is still diagonal
    but strictly inside the threshold, so the derivative is two-sided.
    """
    return lambda_init(cov_train, policy) * INIT_BACKOFF


def default_grid(lam_init: float, points: int = 100) -> np.ndarray:
    """Log-spaced grid over [lam_init * GRID_SPAN, lam_init]."""
    if points < 1:
        raise ValueError("points must be >= 1")
    if points == 1:
        return np.array([float(lam_init)])
    return np.geomspace(lam_init * GRID_SPAN, lam_init, points)


@dataclass(frozen=True)
class GridPoint:
    """One grid evaluation; criterion and rel_error are nan when failed.

    ``theta`` is kept only at the argmin that :func:`grid_search` returns.
    """

    lam: float
    criterion: float
    rel_error: float
    failed: bool
    theta: Optional[np.ndarray] = field(default=None, repr=False)


def grid_search(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    grid: Sequence[float],
    solver: Optional[SolverConfig] = None,
    theta_true: Optional[np.ndarray] = None,
) -> Tuple[float, List[GridPoint]]:
    """Evaluate the hold-out criterion on a grid of scalar levels.

    The sweep runs from the largest level down, warm-starting each solve
    from the previous solution (solutions vary continuously in the level,
    so the previous one is close).  Solver failures mark their point as
    failed instead of aborting the sweep.  Returns the level minimizing
    the criterion and the curve sorted by increasing level; the point at
    that level carries its solution.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    if np.any(grid <= 0.0) or not np.all(np.isfinite(grid)):
        raise ValueError("grid levels must be positive and finite")
    if solver is None:
        solver = SolverConfig()

    points: dict = {}
    warm = None
    best_i = None
    for i in np.argsort(grid)[::-1]:
        lam = float(grid[i])
        try:
            est = solve(cov_train, Regularization.scalar(lam), solver, warm_start=warm)
        except GlassoTuneError:
            points[int(i)] = GridPoint(lam, float("nan"), float("nan"), True)
            continue
        warm = est.theta
        crit = criterion_holdout(est, cov_test).value
        re_val = (
            relative_error(est.theta, theta_true)
            if theta_true is not None
            else float("nan")
        )
        points[int(i)] = GridPoint(lam, crit, re_val, False)
        # ties go to the smaller level, which the downward sweep meets last
        if best_i is None or crit <= points[best_i].criterion:
            best_i, best_theta = int(i), est.theta

    if best_i is None:
        raise DegenerateInput("every grid point failed to solve")
    best = points[best_i] = replace(points[best_i], theta=best_theta)
    return best.lam, [points[int(i)] for i in np.argsort(grid)]


def _abort(traj: Trajectory, iteration: int, reason) -> Trajectory:
    traj.aborted = True
    traj.stop_reason = f"aborted at outer iteration {iteration}: {reason}"
    return traj


def _descend(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    alpha,
    config: BilevelConfig,
    theta_true: Optional[np.ndarray],
    warm: Optional[np.ndarray],
) -> Trajectory:
    """The outer loop of both tuners, over alpha = log(penalty).

    ``alpha`` is a float (one level tied across every entry) or a p x p
    array (one weight per entry).  Both take the per-entry hypergradient
    from one adjoint solve; a tied level moves every weight at once, so
    its derivative is the sum of the per-entry ones.  The first solve
    starts from ``warm`` (None: the solver's cold start), every later one
    from the previous solution.

    Any GlassoTuneError of the solve, the criterion, the support check or
    the adjoint solve propagates at the first iterate, annotated with the
    iteration index; later it aborts the run, which keeps the iterates
    before it.  So does a step that takes a free entry (finite alpha) to a
    penalty of 0 or inf; entries pinned at alpha = -inf stay at 0.
    """
    scalar = np.ndim(alpha) == 0
    free = np.isfinite(alpha)
    traj = Trajectory(scalar=scalar)

    for k in range(config.max_outer_iter + 1):
        t0 = time.perf_counter()
        with np.errstate(over="ignore"):
            penalty = np.exp(alpha)
        if not np.all(((0.0 < penalty) & (penalty < np.inf)) | ~free):
            return _abort(traj, k, "the step took a penalty to 0 or inf")
        reg = (
            Regularization.scalar(float(penalty))
            if scalar
            else Regularization.matrix(penalty)
        )
        try:
            est = solve(cov_train, reg, config.solver, warm_start=warm)
            crit = criterion_holdout(est, cov_test)
            support = support_from_estimate(est, cov_train)
            values = hypergradient_weighted(est, support, crit.gradient)
        except GlassoTuneError as exc:
            if not traj.records:
                # keep type and attributes, prefix the message with where it happened
                exc.args = (f"outer iteration {k}: {exc.args[0]}",) + exc.args[1:]
                raise
            return _abort(traj, k, exc)
        # chain rule through the exponential: d/dalpha = penalty * d/dpenalty
        galpha = penalty * (np.sum(values) if scalar else values)
        seconds = time.perf_counter() - t0
        norm = float(np.max(np.abs(galpha)))
        re_val = (
            relative_error(est.theta, theta_true) if theta_true is not None else None
        )
        traj.records.append(
            TrajectoryRecord(
                iteration=k,
                reg=est.reg,
                criterion=crit.value,
                hypergrad_norm=norm,
                inner_iterations=est.iterations,
                rel_error=re_val,
                seconds=seconds,
                kink_entries=len(est.support) - len(support),
                newton_steps=est.newton_steps,
                newton_trials=est.newton_trials,
            )
        )
        traj.estimate = est
        warm = est.theta
        if norm <= OUTER_TOL:
            traj.converged = True
            traj.stop_reason = "hypergradient below tolerance"
            break
        if k == config.max_outer_iter:
            traj.stop_reason = "outer iteration budget exhausted"
            break
        alpha = alpha - config.step_size * galpha

    return traj


def tune_scalar(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    config: Optional[BilevelConfig] = None,
    theta_true: Optional[np.ndarray] = None,
) -> Tuple[float, Trajectory]:
    """Descend the hold-out criterion over a single penalty level.

    Starts at ``config.init`` (or the smallest diagonal-solution level),
    then repeats: solve the training problem (warm-started from the
    previous solution), compute the criterion and its hypergradient,
    update alpha = log(lam) by one fixed step.  Stops when the alpha-space
    gradient magnitude is at most OUTER_TOL or the iteration budget runs
    out; the trajectory records which.

    Kinks of the solution map are differentiated by the zero-branch rule
    of :func:`~glassotune.implicit.support_from_estimate`.  Any
    GlassoTuneError at the starting point (the inner solve failing to
    converge or backtracking out of the SPD cone, a failed support check
    or adjoint solve) propagates, annotated with the iteration index.
    Mid-run it aborts the run with the trajectory collected so far, and
    so does a step that underflows lam to 0 or overflows it to inf.

    Returns the last evaluated level and the full trajectory.
    """
    if config is None:
        config = BilevelConfig()
    cov_train = symmetrize(np.asarray(cov_train, dtype=float))
    cov_test = symmetrize(np.asarray(cov_test, dtype=float))

    if config.init is None:
        lam = starting_level(cov_train)
    else:
        if not config.init.is_scalar:
            raise ValueError("scalar tuner needs a scalar init")
        lam = config.init.lam
        if lam <= 0.0:
            raise ValueError("init must be > 0 for the log parametrization")

    traj = _descend(cov_train, cov_test, float(np.log(lam)), config, theta_true, None)
    return traj.final.reg.lam, traj


def tune_matrix(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    config: Optional[BilevelConfig] = None,
    theta_true: Optional[np.ndarray] = None,
    warm_start: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Trajectory]:
    """Descend the hold-out criterion over a full matrix of penalty weights.

    Same loop as :func:`tune_scalar` with one alpha per entry.  The
    hypergradient's zero off-support pattern freezes those entries for the
    step.  When no init is given the scalar tuner runs first and its
    optimum fills the starting weight matrix, making the matrix run a pure
    refinement; its estimate then replaces ``warm_start``, so the first
    solve starts at its own solution.  A caller that passes the scalar
    optimum as init should pass that estimate as ``warm_start`` too.

    Returns the last evaluated weight matrix, read-only as
    :class:`~glassotune.glasso.Regularization` stores it, and the
    trajectory.
    """
    if config is None:
        config = BilevelConfig()
    cov_train = symmetrize(np.asarray(cov_train, dtype=float))
    cov_test = symmetrize(np.asarray(cov_test, dtype=float))
    p = cov_train.shape[0]

    init = config.init
    if init is None:
        lam_opt, scalar_traj = tune_scalar(cov_train, cov_test, config)
        init = Regularization.scalar(lam_opt)
        warm_start = scalar_traj.estimate.theta
    elif init.is_scalar and init.lam <= 0.0:
        raise ValueError("init must be > 0 for the log parametrization")
    weights = np.full((p, p), init.thresholds(p))
    with np.errstate(divide="ignore"):
        alpha = np.log(weights)  # zero weights pin their alpha at -inf

    traj = _descend(cov_train, cov_test, alpha, config, theta_true, warm_start)
    return traj.final.reg.weights, traj
