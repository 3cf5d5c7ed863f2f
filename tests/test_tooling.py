"""The benchmark wraps and calls package functions by name; keep those names."""

import dataclasses
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# What perfbench/run.py's output check reads from the package to verify a
# run's exported estimate.
OUTPUT_CHECK_NAMES = [
    ("glassotune", "make_sparse_spd"),
    ("glassotune", "sample_gaussian"),
    ("glassotune", "split_samples"),
    ("glassotune", "Regularization.scalar"),
    ("glassotune", "Regularization.matrix"),
    ("glassotune", "SupportSet.from_matrix_mask"),
    ("glassotune", "SolverConfig"),
    ("glassotune", "PrecisionEstimate"),
    ("glassotune", "check_optimality"),
    ("glassotune", "criterion_holdout"),
    ("glassotune.datagen", "load_matrix_csv"),
    ("glassotune.linalg", "cholesky"),
    ("glassotune.linalg", "logdet"),
]

# What perfbench/run.py reads from each mode's summary.json, by section.
SUMMARY_FIELDS = {
    "config": {"p", "n", "density", "split_ratio"},
    "grid": {"seconds", "criterion", "lambda_best", "points", "failed_points"},
    "scalar": {"seconds", "criterion", "outer_iterations", "stop_reason", "lambda_opt"},
    "matrix": {"seconds", "criterion", "outer_iterations", "stop_reason"},
}
SECTIONS = {
    "grid": ("config", "grid"),
    "scalar": ("config", "scalar"),
    "matrix": ("config", "scalar", "matrix"),
    "compare": ("config", "grid", "scalar"),
}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", load_tracer().TARGETS)
def test_tracer_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, path", OUTPUT_CHECK_NAMES)
def test_output_check_name_resolves(module, path):
    obj = importlib.import_module(module)
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


class _Stopped(BaseException):
    pass


@pytest.mark.parametrize("mode", ["grid", "scalar", "matrix", "compare"])
def test_setup_hook_runs_before_tuning(tmp_path, monkeypatch, mode):
    # perfbench/child.py times set-up by making cli.starting_level raise;
    # every mode must call it, and before any tuning output is written.
    import glassotune.cli as cli

    seen = []

    def stop(*args, **kwargs):
        seen.append({p.name for p in tmp_path.iterdir()})
        raise _Stopped

    monkeypatch.setattr(cli, "starting_level", stop)
    config = cli.ExperimentConfig(mode=mode, p=6, n=200, density=0.3,
                                  output_dir=str(tmp_path))
    with pytest.raises(_Stopped):
        cli.run(config)
    (written,) = seen
    assert not written & {"grid_curve.csv", "trajectory.csv"}


def test_output_check_fields_exist():
    import glassotune as gt

    assert issubclass(gt.GlassoTuneError, Exception)
    assert gt.SolverConfig().support_tol > 0.0
    fields = {f.name for f in dataclasses.fields(gt.PrecisionEstimate)}
    assert {"theta", "reg", "gamma", "support", "fixed_point_residual",
            "iterations"} <= fields


def test_estimate_builds_from_the_output_check_keywords():
    # perfbench/run.py's output check builds an estimate from exactly these
    # keywords, so every later field needs a default.
    import numpy as np

    import glassotune as gt

    est = gt.PrecisionEstimate(theta=np.eye(3), reg=gt.Regularization.scalar(0.1),
                               gamma=float("nan"),
                               support=gt.SupportSet.from_matrix_mask(np.eye(3, dtype=bool)),
                               fixed_point_residual=float("nan"), iterations=0)
    assert est.newton_steps == 0


def test_support_length_counts_mask_entries():
    # The tracer reads len() of the support handed to _restricted_kron for
    # implicit.support_size.*, and _descend subtracts two of them for
    # kink_entries.
    import numpy as np

    import glassotune as gt

    for m in (np.eye(4, dtype=bool), np.ones((3, 3), dtype=bool),
              np.zeros((2, 2), dtype=bool),
              np.random.default_rng(0).random((6, 6)) > 0.5):
        assert len(gt.SupportSet.from_matrix_mask(m)) == m.sum()


@pytest.mark.parametrize("mode", sorted(SECTIONS))
def test_summary_carries_the_fields_the_benchmark_reads(tmp_path, mode):
    import glassotune.cli as cli

    config = cli.ExperimentConfig(mode=mode, p=6, n=200, density=0.3, grid_points=5,
                                  max_outer_iter=3, output_dir=str(tmp_path))
    assert cli.run(config) == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="ascii"))
    for section in SECTIONS[mode]:
        assert SUMMARY_FIELDS[section] <= summary[section].keys(), section
