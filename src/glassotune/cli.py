"""Command-line experiment driver.

Generates a synthetic sparse-precision dataset, tunes the graphical lasso
penalty by the selected mode, and writes machine-readable results into an
output directory.  This module writes every output file; README's *Output
files* section states their layouts and the exit codes.

Each field of :class:`ExperimentConfig` is one setting and its only
declaration: the flag is ``--`` and the name with dashes, the default's
type reads the text (yes/no for a bool), the field's rule says which
values are allowed, and ``--help`` shows the field's help, rule and
default.  ``--config FILE`` names a file of flags, split into words as a
POSIX shell splits them after each line whose first non-blank character
is ``#`` is dropped; the flag parser reads them before the command line's
own, which override them.

Only :func:`main` changes BLAS threads (:func:`_one_scipy_blas_thread`).

Seeds are derived from ``--seed`` as seed (ground truth), seed+1 (samples),
seed+2 (train/test split), so every artifact is reproducible from the
config alone; wall-clock timings are the only nondeterministic outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shlex
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from .bilevel import (
    INIT_POLICIES,
    BilevelConfig,
    Trajectory,
    default_grid,
    grid_search,
    lambda_init,
    starting_level,
    tune_matrix,
    tune_scalar,
)
from .datagen import (
    GroundTruth,
    make_sparse_spd,
    sample_gaussian,
    save_matrix_csv,
    split_samples,
)
from .exceptions import GlassoTuneError
from .glasso import Regularization, SolverConfig
from .implicit import criterion_holdout
from .linalg import spd_inverse
# Not called here; perfbench/tracer.py wraps this name in this module.
from .glasso import solve  # noqa: F401

MODES = ("grid", "scalar", "matrix", "compare")
# every file a run may write, all removed from the output directory first
OUTPUT_FILES = ("grid_curve.csv", "trajectory.csv", "summary.json", "lambda_opt.csv",
                "theta_true.csv", "theta_hat.csv", "error.json")


def _setting(default, help: str, allowed: Optional[Callable[[object], bool]] = None,
             rule: str = ""):
    """A setting's default, its --help text and the rule its values keep.

    ``allowed`` is the rule's predicate and ``rule`` its words, which both
    --help and the error for a value outside the rule show.
    """
    return field(default=default, metadata={"help": f"{help}, {rule}" if rule else help,
                                            "allowed": allowed, "rule": rule})


def _integer_from(low: int):
    """The predicate and words of an int setting's rule: an integer >= low."""
    return (lambda v: isinstance(v, (int, np.integer)) and v >= low), f"an integer >= {low}"


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully determined experiment; every run artifact derives from it."""

    mode: str = _setting("compare", "what to run", lambda v: v in MODES,
                         "one of " + " | ".join(MODES))
    p: int = _setting(100, "dimension", *_integer_from(2))
    n: int = _setting(2000, "number of samples", *_integer_from(2))
    density: float = _setting(0.05, "nonzero fraction in the ground-truth factor",
                              lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    seed: int = _setting(0, "base seed", *_integer_from(0))
    split_ratio: float = _setting(0.5, "train fraction of the sample split",
                                  lambda v: 0.0 < v < 1.0, "in (0, 1)")
    rho: float = _setting(0.1, "first outer step size", lambda v: 0.0 < v < np.inf,
                          "finite and > 0")
    max_outer_iter: int = _setting(200, "outer iteration budget", *_integer_from(1))
    inner_tol: float = _setting(1e-8, "inner solver fixed-point tolerance",
                                lambda v: 0.0 < v < np.inf, "finite and > 0")
    grid_points: int = _setting(100, "points in the log-spaced grid", *_integer_from(1))
    output_dir: str = _setting(".", "directory for result files")
    emit_matrices: bool = _setting(
        False, "also write lambda_opt/theta_true/theta_hat CSVs (bare flag: yes)")
    lambda_init_policy: str = _setting(
        "offdiag-max", "how to pick the starting level", lambda v: v in INIT_POLICIES,
        "one of " + " | ".join(INIT_POLICIES))

    def __post_init__(self):
        for setting in fields(self):
            allowed, value = setting.metadata["allowed"], getattr(self, setting.name)
            if allowed is not None and not allowed(value):
                raise ValueError(f"{setting.name.replace('_', '-')} must be "
                                 f"{setting.metadata['rule']}, got {value!r}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(tol=self.inner_tol)

    def bilevel_config(self, init: Regularization) -> BilevelConfig:
        return BilevelConfig(
            step_size=self.rho,
            max_outer_iter=self.max_outer_iter,
            init=init,
            solver=self.solver_config(),
        )


def boolean(text: str) -> bool:
    """Read yes/no, true/false, on/off or 1/0, in any case."""
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _converter(setting) -> Callable[[str], object]:
    """The one reader of a setting's text."""
    return boolean if type(setting.default) is bool else type(setting.default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glassotune",
        description=(
            "Tune graphical lasso regularization on synthetic Gaussian data "
            "by grid search or hypergradient descent, writing CSV/JSON results."
        ),
    )
    for setting in fields(ExperimentConfig):
        convert = _converter(setting)
        # a bare --emit-matrices means yes and leaves the next option alone
        extra = dict(nargs="?", const=True, metavar="yes|no") if convert is boolean else {}
        default = ("no", "yes")[setting.default] if convert is boolean else setting.default
        parser.add_argument("--" + setting.name.replace("_", "-"), type=convert,
                            help=f"{setting.metadata['help']} (default: {default})",
                            **extra)
    parser.add_argument("--config", metavar="FILE",
                        help="file of flags; the command line's own override them")
    return parser


def _read_config_file(path: str, parser: argparse.ArgumentParser) -> List[str]:
    """The flags a config file holds: its words as a POSIX shell splits them,
    after each line whose first non-blank character is ``#`` is dropped."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return shlex.split("\n".join(line for line in lines
                                      if not line.lstrip().startswith("#")))
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")


def parse_config(argv: Optional[List[str]] = None) -> ExperimentConfig:
    """Resolve flags over config-file flags over defaults."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        in_file = parser.parse_args(_read_config_file(args.config, parser))
        if in_file.config is not None:
            parser.error(f"config file {args.config} may not hold --config")
        # the command line's own flags are parsed over the file's
        args = parser.parse_args(argv, namespace=in_file)
    values = {name: value for name, value in vars(args).items()
              if name != "config" and value is not None}
    try:
        return ExperimentConfig(**values)
    except ValueError as exc:
        parser.error(str(exc))


def _descent_stage(summary: dict, stage: str, tune, init: Regularization,
                   config: ExperimentConfig, data, truth: GroundTruth,
                   population: np.ndarray) -> Trajectory:
    """Run one descent stage and record its summary fields and seconds.

    The ``*_total``, ``kink_entries`` and stop fields are copied from the
    trajectory, which owns them.

    ``population`` is the true covariance, against which the final
    estimate's population criterion is taken after the stage's timer
    stops.  An aborted descent also gets a stderr line.
    """
    t0 = time.perf_counter()
    _, traj = tune(data.cov_train, data.cov_test, config.bilevel_config(init),
                   theta_true=truth.theta_true)
    if traj.aborted:
        print(f"warning: {stage} descent {traj.stop_reason}", file=sys.stderr)
    final = traj.final
    if traj.estimate.reg.is_scalar:
        record = {"lambda_opt": final.penalty[0]}
        level = f"lambda={final.penalty[0]:.6g} "
    else:
        record = dict(zip(("lambda_min", "lambda_max", "lambda_mean"), final.penalty))
        level = ""
    record.update({
        "criterion": final.criterion,
        "rel_error": final.rel_error,
        "outer_iterations": len(traj),
        "inner_iterations_total": traj.inner_iterations,
        "newton_steps_total": traj.newton_steps,
        "newton_trials_total": traj.newton_trials,
        "rejected_steps": traj.rejected_steps,
        "kink_entries": traj.kink_entries,
        "converged": traj.converged,
        "aborted": traj.aborted,
        "stop_reason": traj.stop_reason,
        "seconds": time.perf_counter() - t0,
    })
    record["population_criterion"] = criterion_holdout(traj.estimate, population).value
    summary[stage] = record
    print(f"{stage}: {level}criterion={final.criterion:.9g} "
          f"iters={len(traj)} converged={traj.converged}")
    return traj


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    out = Path(config.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name in OUTPUT_FILES:
            (out / name).unlink(missing_ok=True)
    except OSError as exc:
        print(f"error: cannot use output directory {out}: {exc}", file=sys.stderr)
        return 2
    summary: dict = {"config": asdict(config)}

    try:
        t0 = time.perf_counter()
        truth = make_sparse_spd(config.p, config.density, config.seed)
        samples = sample_gaussian(truth, config.n, config.seed + 1)
        data = split_samples(samples, config.split_ratio, config.seed + 2)
        lam0 = lambda_init(data.cov_train, config.lambda_init_policy)
        lam_start = starting_level(data.cov_train, config.lambda_init_policy)
        summary["lambda_init"] = lam0
        summary["lambda_start"] = lam_start
        summary["seconds_data"] = time.perf_counter() - t0
        # the expected held-out criterion is taken against the true covariance
        population = spd_inverse(truth.lower)
        print(f"data: p={config.p} n={config.n} seed={config.seed} "
              f"lambda_init={lam0:.6g}")

        if config.mode in ("grid", "compare"):
            t0 = time.perf_counter()
            grid = default_grid(lam0, config.grid_points)
            best, curve = grid_search(
                data.cov_train, data.cov_test, grid,
                solver=config.solver_config(), theta_true=truth.theta_true,
            )
            save_matrix_csv([[g.lam, g.criterion, g.rel_error] for g in curve],
                            out / "grid_curve.csv", header="lambda,criterion,rel_error")
            at_best = next(g for g in curve if g.lam == best)
            summary["grid"] = {
                "lambda_best": best,
                "criterion": at_best.criterion,
                "rel_error": at_best.rel_error,
                "points": len(curve),  # the levels evaluated, up to the sweep's stop
                "failed_points": int(sum(g.failed for g in curve)),
                "seconds": time.perf_counter() - t0,
            }
            # the estimate of the last stage, exported as computed
            final = at_best.estimate
            summary["grid"]["population_criterion"] = criterion_holdout(final, population).value
            print(f"grid: best lambda={best:.6g} criterion={at_best.criterion:.9g}")

        if config.mode != "grid":
            descent = _descent_stage(summary, "scalar", tune_scalar,
                                     Regularization.scalar(lam_start), config, data, truth,
                                     population)
            lam_opt = descent.final.penalty[0]
            if config.mode == "matrix":
                # the matrix stage's first problem is the scalar stage's last one
                tune = partial(tune_matrix, warm_start=descent.estimate)
                descent = _descent_stage(summary, "matrix", tune,
                                         Regularization.scalar(lam_opt), config, data, truth,
                                         population)
            write_trajectory(descent, out / "trajectory.csv")
            final = descent.estimate

        if config.mode == "compare":
            lam_grid = summary["grid"]["lambda_best"]
            # multiplicative width of one grid cell; a single point has none
            ratio = within = None
            if grid.size > 1:
                ratio = float((grid[-1] / grid[0]) ** (1.0 / (grid.size - 1)))
                within = lam_grid / ratio <= lam_opt <= lam_grid * ratio
            summary["compare"] = {
                "lambda_grid": lam_grid,
                "lambda_descent": lam_opt,
                "lambda_gap": abs(lam_grid - lam_opt),
                "grid_ratio": ratio,
                "within_one_cell": within,
            }
            print(f"compare: grid={lam_grid:.6g} descent={lam_opt:.6g} "
                  f"within_one_cell={summary['compare']['within_one_cell']}")

        if config.emit_matrices:
            reg = final.reg
            save_matrix_csv([[reg.lam]] if reg.is_scalar else reg.weights,
                            out / "lambda_opt.csv")
            save_matrix_csv(truth.theta_true, out / "theta_true.csv")
            save_matrix_csv(final.theta, out / "theta_hat.csv")

    except GlassoTuneError as exc:
        _write_json(out / "error.json", {"error": type(exc).__name__, "message": str(exc),
                                         "partial_summary": summary})
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    _write_json(out / "summary.json", summary)
    return 0


def write_trajectory(traj: Trajectory, path: Path) -> None:
    """``trajectory.csv``, one row per record, as README's *Output files* lays it out."""
    penalty = "lambda" if traj.estimate.reg.is_scalar else "lambda_min,lambda_max,lambda_mean"
    rows = [[r.iteration, *r.penalty, r.criterion, r.hypergrad_norm, r.inner_iterations,
             float("nan") if r.rel_error is None else r.rel_error, r.seconds]
            for r in traj.records]
    save_matrix_csv(rows, path, header=f"iter,{penalty},criterion,hypergrad_norm,"
                                       "inner_iters,rel_error,seconds")


def _write_json(path: Path, record: dict) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _one_scipy_blas_thread() -> None:
    """Give scipy's OpenBLAS one thread when numpy loads another OpenBLAS.

    numpy and scipy wheels each bundle an OpenBLAS with its own thread
    pool (``libscipy_openblas64_`` and ``libscipy_openblas``), and two busy
    pools contend for the cores.  With ``OPENBLAS_NUM_THREADS`` unset and
    both loaded, scipy's pool is set to one thread through its
    ``scipy_openblas_set_num_threads`` symbol, so numpy's products keep
    the default threads.  An explicit ``OPENBLAS_NUM_THREADS`` is never
    overridden, and off Linux (no ``/proc/self/maps``) or with a single
    OpenBLAS nothing changes.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return
    if len(paths) < 2:
        return
    for path in paths:
        try:
            setter = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads", None)
        except OSError:
            continue
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def main(argv: Optional[List[str]] = None) -> None:
    """The console script: :func:`run` on the parsed flags, after
    :func:`_one_scipy_blas_thread`; importing the package or calling
    :func:`run` leaves BLAS threads alone."""
    config = parse_config(argv)
    _one_scipy_blas_thread()
    sys.exit(run(config))


if __name__ == "__main__":
    main()
