"""The benchmark wraps and calls package functions by name; keep those names."""

import dataclasses
import importlib
import importlib.util
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
