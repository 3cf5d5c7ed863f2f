"""Outer-loop penalty tuning by hypergradient descent, plus a grid baseline.

Penalties are positive by construction: the descent runs in alpha with
lam = exp(alpha) for a single level and weights_kl = exp(alpha_kl)
entrywise for a weight matrix, so a gradient step never leaves the
feasible cone in exact arithmetic.  Both tuners share one outer loop,
:func:`_descend`, which states the step rule and the stops.  Each outer
iteration solves the training problem, evaluates the hold-out criterion,
assembles the exact per-entry hypergradient through one adjoint solve of
the implicit derivative of the solution map, and steps.  The chain rule
through the exponential turns a derivative in lam into lam times it in
alpha.

Zero entries in a matrix initialization stay exactly zero: the exponential
parametrization moves weights multiplicatively, which is what makes an
unpenalized diagonal stay unpenalized.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

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
from .linalg import _as_matrix, symmetrize

# At exactly lambda_init the largest off-diagonal covariance entry sits on
# the soft-threshold kink (zero slack), where the derivative is one-sided.
# Descents start this factor above it: same diagonal solution, strictly
# positive slack, so the first hypergradient is a two-sided derivative.
INIT_BACKOFF = 1.0 + 1e-3

# The step rule and stops of _descend; CONVERGED_STOPS names the stops that
# count as converged.
OUTER_TOL = 1e-6
CONVERGED_STOPS = ("hypergradient below tolerance", "step below resolution",
                   "solve below resolution")
MAX_STEP = 1e3
SUFFICIENT_DECREASE = 1e-4
STEP_RESOLUTION = 1e-9

# default_grid spans [lam_init * GRID_SPAN, lam_init]; grid_search stops at
# the first solved level at or below its best level / GRID_STOP_SPAN.
GRID_SPAN = 1e-3
GRID_STOP_SPAN = 1.2

# The policies lambda_init knows, its default first.
INIT_POLICIES = ("offdiag-max", "max-entry")


@dataclass(frozen=True)
class BilevelConfig:
    """Outer-loop budget and first step size.

    ``step_size``, the first outer step in alpha of :func:`_descend`, must
    be finite and positive.  ``init`` is a Regularization holding strictly
    positive starting levels (zeros allowed in the matrix case and stay
    pinned); a scalar init of 0 has no log and raises ValueError here.
    None picks :func:`starting_level` for the scalar tuner; the matrix
    tuner needs an init and raises ValueError without one.
    """

    step_size: float = 0.1
    max_outer_iter: int = 200
    init: Optional[Regularization] = None
    solver: SolverConfig = SolverConfig()

    def __post_init__(self):
        if not 0.0 < self.step_size < np.inf:
            raise ValueError("step_size must be finite and > 0")
        if not (isinstance(self.max_outer_iter, (int, np.integer)) and self.max_outer_iter >= 1):
            raise ValueError("max_outer_iter must be an integer >= 1")
        if self.init is not None and self.init.is_scalar and self.init.lam <= 0.0:
            raise ValueError("init must be > 0 for the log parametrization")


@dataclass(frozen=True)
class TrajectoryRecord:
    """One accepted outer iteration: one row of ``trajectory.csv``.

    ``penalty`` is ``(lam,)`` or the ``(min, max, mean)`` of the weights.
    ``inner_iterations`` is the accepted iterate's own solve.  ``seconds``
    runs from the previous record, so it includes the trials rejected in
    between.
    """

    iteration: int
    penalty: Tuple[float, ...]
    criterion: float
    hypergrad_norm: float
    inner_iterations: int
    rel_error: Optional[float]
    seconds: float


@dataclass
class Trajectory:
    """Append-only record of an outer run, its stage totals and its stop.

    ``estimate`` is the solution at the last recorded iteration; its
    ``reg`` is the one full penalty kept, so memory does not grow with length.
    ``rejected_steps`` counts the trials that failed the sufficient-decrease
    test; none of them is a record.  ``inner_iterations``,
    ``newton_steps`` and ``newton_trials`` total the estimates of every
    solve the run made, rejected trials and a last solve that took no
    inner iteration included; ``kink_entries`` totals the support entries
    put on the zero branch at the recorded iterations.

    ``stop_reason`` names the stop of :func:`_descend`.  ``converged`` is
    true for the names in CONVERGED_STOPS, ``aborted`` for a reason that
    starts with "aborted".
    """

    records: List[TrajectoryRecord] = field(default_factory=list)
    rejected_steps: int = 0
    inner_iterations: int = 0
    newton_steps: int = 0
    newton_trials: int = 0
    kink_entries: int = 0
    stop_reason: str = ""
    estimate: Optional[PrecisionEstimate] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    @property
    def converged(self) -> bool:
        return self.stop_reason in CONVERGED_STOPS

    @property
    def aborted(self) -> bool:
        return self.stop_reason.startswith("aborted")


def lambda_init(cov_train: np.ndarray, policy: str = "offdiag-max") -> float:
    """Starting level for the scalar tuner.

    ``offdiag-max`` (default) returns the largest absolute off-diagonal
    entry of the symmetrized training covariance, the only part the
    solver sees: the smallest level at which the solution is exactly
    diagonal, so the descent starts from the sparsest informative point.
    ``max-entry`` returns the largest absolute entry, diagonal included
    (an upper bound on the former).

    Raises ValueError unless cov_train is a finite square matrix, and
    DegenerateInput when the chosen maximum is zero, since no positive
    starting level can be derived from it.
    """
    cov = symmetrize(_as_matrix(cov_train, "cov_train"))
    if policy not in INIT_POLICIES:
        raise ValueError(f"lambda-init policy must be one of {INIT_POLICIES}, got {policy!r}")
    if policy == "max-entry":
        val = float(np.max(np.abs(cov)))
    else:
        off = ~np.eye(cov.shape[0], dtype=bool)
        val = float(np.max(np.abs(cov[off]))) if off.any() else 0.0
    if val <= 0.0:
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
    """Log-spaced grid over [lam_init * GRID_SPAN, lam_init].

    Raises ValueError unless lam_init is finite and > 0 and points >= 1.
    """
    if not 0.0 < lam_init < np.inf:
        raise ValueError("lam_init must be finite and > 0")
    if points < 1:
        raise ValueError("points must be >= 1")
    if points == 1:
        return np.array([float(lam_init)])
    return np.geomspace(lam_init * GRID_SPAN, lam_init, points)


@dataclass(frozen=True, eq=False)
class GridPoint:
    """One grid evaluation; criterion and rel_error are nan when failed.

    ``estimate``, the solver's output at ``lam``, is kept only at the
    argmin that :func:`grid_search` returns.
    """

    lam: float
    criterion: float
    rel_error: float
    failed: bool
    estimate: Optional[PrecisionEstimate] = field(default=None, repr=False)


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
    failed instead of aborting the sweep.  The sweep stops after the first
    solved level at or below ``best / GRID_STOP_SPAN`` (GRID_STOP_SPAN =
    1.2), ``best`` being the level of the lowest criterion so far: supports
    grow as the level falls, so the levels below the minimum are the
    costliest to solve.  On the default 100-point grid, whose cells are
    x1.072, that is the third point past the best; on a coarser grid it
    can be the first.  A failed point never stops the sweep.

    Returns the level minimizing the criterion over the evaluated levels,
    ties going to the smaller one, and the curve of those levels, failed
    ones included, sorted by increasing level; the point at the argmin
    carries its estimate, with the inverse and log-determinant the solver
    computed.
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
        warm = est
        crit = criterion_holdout(est, cov_test).value
        re_val = (
            relative_error(est.theta, theta_true)
            if theta_true is not None
            else float("nan")
        )
        points[int(i)] = GridPoint(lam, crit, re_val, False)
        # ties go to the smaller level, which the downward sweep meets last
        if best_i is None or crit <= points[best_i].criterion:
            best_i, best_est = int(i), est
        elif lam <= points[best_i].lam / GRID_STOP_SPAN:
            break

    if best_i is None:
        raise DegenerateInput("every grid point failed to solve")
    best = points[best_i] = replace(points[best_i], estimate=best_est)
    return best.lam, [points[int(i)] for i in np.argsort(grid) if int(i) in points]


def _stop(traj: Trajectory, reason: str) -> Trajectory:
    traj.stop_reason = reason
    return traj


def _descend(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    alpha,
    config: BilevelConfig,
    theta_true: Optional[np.ndarray],
    warm: Optional[np.ndarray | PrecisionEstimate],
) -> Trajectory:
    """The outer loop of both tuners, over alpha = log(penalty).

    ``alpha`` is a float (one level tied across every entry) or a p x p
    array (one weight per entry).  Both take the per-entry hypergradient
    from one adjoint solve; a tied level moves every weight at once, so
    its derivative is the sum of the per-entry ones, taken on the support
    that :func:`~glassotune.implicit.support_from_estimate` reads by its
    kink rule.  The first solve starts from ``warm`` (None: the solver's
    cold start), every later one from the last accepted estimate, whose
    factorization it reuses.

    From the last accepted iterate (alpha, g) a trial goes to alpha - s g.
    The first step s is ``config.step_size``; after each accepted trial s
    becomes the Barzilai-Borwein quotient <da, da> / <da, dg> of the last
    two accepted iterates (Barzilai & Borwein, IMA J. Numer. Anal. 1988),
    capped at MAX_STEP, or stays as it was when <da, dg> <= 0.  The sums
    run over the free entries, those with finite alpha; entries pinned at
    alpha = -inf stay at penalty 0 and never enter a difference.  A trial
    is accepted, and recorded, only if its criterion is at most the last
    accepted one minus SUFFICIENT_DECREASE * s * sum(g^2) (a
    sufficient-decrease guard, as in Raydan, SIAM J. Optim. 1997), so the
    recorded criteria never increase.  A rejected trial halves s and is
    tried again from the last accepted iterate; it gets no hypergradient
    and no record, and ``traj.rejected_steps`` counts it.  Every solve
    that returns, rejected or not, adds its estimate's iteration,
    Newton-step and Newton-trial counts to the trajectory's totals.

    The descent stops, converged, when the hypergradient is at most
    OUTER_TOL, in absolute value for a level and in sup-norm for weights
    ("hypergradient below tolerance"), when the next move, s * |g|_inf, is
    at most STEP_RESOLUTION, too small to move the estimate ("step below
    resolution"), or when a solve after the first one takes no inner
    iteration, so theta did not move and the hypergradient could not
    change ("solve below resolution").  The last two end descents whose
    minimum sits at a kink of the solution map, where the hypergradient
    jumps and need not fall below its tolerance.  It stops unconverged
    once ``config.max_outer_iter`` steps are accepted ("outer iteration
    budget exhausted").

    Any GlassoTuneError of the solve, the criterion, the support check or
    the adjoint solve propagates at the first iterate, annotated with the
    iteration index; later it aborts the run, which keeps the iterates
    before it.  So does a step that takes a free entry to a penalty of 0
    or inf.  An abort's ``stop_reason`` starts with "aborted at outer
    iteration k"; a failure is never retried.
    """
    scalar = np.ndim(alpha) == 0
    free = np.isfinite(alpha)
    traj = Trajectory()
    step = config.step_size
    t0 = time.perf_counter()

    while True:
        k = len(traj.records)
        if k:
            alpha = last_alpha - step * galpha
        with np.errstate(over="ignore"):
            penalty = np.exp(alpha)
        if not np.all(((0.0 < penalty) & (penalty < np.inf)) | ~free):
            return _stop(traj, f"aborted at outer iteration {k}: "
                               "the step took a penalty to 0 or inf")
        reg = (
            Regularization.scalar(float(penalty))
            if scalar
            else Regularization.matrix(penalty)
        )
        try:
            est = solve(cov_train, reg, config.solver, warm_start=warm)
            traj.inner_iterations += est.iterations
            traj.newton_steps += est.newton_steps
            traj.newton_trials += est.newton_trials
            if k and est.iterations == 0:
                return _stop(traj, "solve below resolution")
            crit = criterion_holdout(est, cov_test)
            if k and not crit.value <= traj.final.criterion - SUFFICIENT_DECREASE * step * g_sq:
                traj.rejected_steps += 1
                step /= 2.0
                if step * norm <= STEP_RESOLUTION:
                    return _stop(traj, "step below resolution")
                continue
            support = support_from_estimate(est, cov_train)
            values = hypergradient_weighted(est, support, crit.gradient)
        except GlassoTuneError as exc:
            if not traj.records:
                # keep type and attributes, prefix the message with where it happened
                exc.args = (f"outer iteration {k}: {exc.args[0]}",) + exc.args[1:]
                raise
            return _stop(traj, f"aborted at outer iteration {k}: {exc}")
        # chain rule through the exponential: d/dalpha = penalty * d/dpenalty
        g = penalty * (np.sum(values) if scalar else values)
        seconds = time.perf_counter() - t0
        if k:
            d_alpha = np.asarray(alpha)[free] - np.asarray(last_alpha)[free]
            d_g = np.asarray(g)[free] - np.asarray(galpha)[free]
            curvature = float(np.sum(d_alpha * d_g))
            if curvature > 0.0:
                step = min(float(np.sum(d_alpha * d_alpha)) / curvature, MAX_STEP)
        last_alpha, galpha = alpha, g
        norm = float(np.max(np.abs(galpha)))
        g_sq = float(np.sum(np.asarray(galpha)[free] ** 2))
        re_val = (
            relative_error(est.theta, theta_true) if theta_true is not None else None
        )
        w = est.reg.weights
        level = (est.reg.lam,) if scalar else (float(w.min()), float(w.max()), float(w.mean()))
        traj.records.append(
            TrajectoryRecord(
                iteration=k,
                penalty=level,
                criterion=crit.value,
                hypergrad_norm=norm,
                inner_iterations=est.iterations,
                rel_error=re_val,
                seconds=seconds,
            )
        )
        traj.kink_entries += len(est.support) - len(support)
        t0 = time.perf_counter()
        traj.estimate = est
        warm = est
        if norm <= OUTER_TOL:
            return _stop(traj, "hypergradient below tolerance")
        if step * norm <= STEP_RESOLUTION:
            return _stop(traj, "step below resolution")
        if k == config.max_outer_iter:
            return _stop(traj, "outer iteration budget exhausted")


def tune_scalar(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    config: Optional[BilevelConfig] = None,
    theta_true: Optional[np.ndarray] = None,
) -> Tuple[float, Trajectory]:
    """Descend the hold-out criterion over a single penalty level.

    Starts at ``config.init``, or at :func:`starting_level` without one,
    and runs :func:`_descend` over alpha = log(lam), whose docstring states
    the step rule, the stops and which failures propagate.

    Returns the last level tried, ``traj.estimate.reg.lam``, and the trajectory.
    """
    if config is None:
        config = BilevelConfig()
    cov_train, cov_test = symmetrize(cov_train), symmetrize(cov_test)

    if config.init is not None and not config.init.is_scalar:
        raise ValueError("scalar tuner needs a scalar init")
    lam = starting_level(cov_train) if config.init is None else config.init.lam

    traj = _descend(cov_train, cov_test, float(np.log(lam)), config, theta_true, None)
    return traj.estimate.reg.lam, traj


def tune_matrix(
    cov_train: np.ndarray,
    cov_test: np.ndarray,
    config: BilevelConfig,
    theta_true: Optional[np.ndarray] = None,
    warm_start: Optional[np.ndarray | PrecisionEstimate] = None,
) -> Tuple[np.ndarray, Trajectory]:
    """Descend the hold-out criterion over a full matrix of penalty weights.

    Same loop as :func:`tune_scalar` with one alpha per entry.  The
    hypergradient's zero off-support pattern freezes those entries for the
    step.  ``config.init`` is required (ValueError without it): a scalar
    level fills a constant starting matrix, a matrix is taken as given.
    Starting at the scalar tuner's optimum makes the matrix run a pure
    refinement; pass that tuner's estimate as ``warm_start`` too, so the
    first solve starts at its own solution.  An estimate, unlike its
    theta, is not factorized again (see :func:`~glassotune.glasso.solve`).

    Returns the last weight matrix tried, ``traj.estimate.reg.weights``
    (read-only, as :class:`~glassotune.glasso.Regularization` stores it),
    and the trajectory.
    """
    cov_train, cov_test = symmetrize(cov_train), symmetrize(cov_test)
    p = cov_train.shape[0]

    init = config.init
    if init is None:
        raise ValueError("matrix tuner needs an init; start it at tune_scalar's optimum")
    weights = np.full((p, p), init.thresholds(p))
    with np.errstate(divide="ignore"):
        alpha = np.log(weights)  # zero weights pin their alpha at -inf

    traj = _descend(cov_train, cov_test, alpha, config, theta_true, warm_start)
    return traj.estimate.reg.weights, traj
