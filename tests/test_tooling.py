"""The benchmark wraps and calls package functions by name; keep those names."""

import ast
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
PACKAGE = ROOT / "src" / "glassotune"

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


def unused_imports(source: str) -> set:
    """Names a module imports but never reads and does not list in __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return imported - read - exported


def test_unused_imports_are_tracer_targets():
    # An import a module does not use is dead unless the tracer wraps that
    # name in that module's namespace.
    targets = {(module, attr) for module, attr, _ in load_tracer().TARGETS}
    assert unused_imports("import os\nfrom a import b\nos.sep\n") == {"b"}
    for path in sorted(PACKAGE.glob("*.py")):
        module = "glassotune" if path.stem == "__init__" else f"glassotune.{path.stem}"
        for name in unused_imports(path.read_text(encoding="utf-8")):
            assert (module, name) in targets, f"{module} imports {name} but never uses it"


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
    assert est.newton_trials == 0


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


def array_dataclasses():
    """Every dataclass of the package with a field annotated as an array."""
    import pkgutil

    import glassotune

    found = []
    for info in pkgutil.iter_modules(glassotune.__path__, "glassotune."):
        module = importlib.import_module(info.name)
        found += [obj for obj in vars(module).values()
                  if dataclasses.is_dataclass(obj) and isinstance(obj, type)
                  and obj.__module__ == module.__name__
                  and any("ndarray" in str(f.type) for f in dataclasses.fields(obj))]
    return found


def own_eq(cls) -> bool:
    # a dataclass's generated __eq__ is compiled from a string, not the module
    eq = cls.__dict__.get("__eq__")
    return eq is not None and eq.__code__.co_filename == sys.modules[cls.__module__].__file__


@pytest.mark.parametrize("cls", array_dataclasses(), ids=lambda c: c.__qualname__)
def test_array_dataclasses_do_not_compare_fieldwise(cls):
    # The generated __eq__ compares fields as a tuple, which raises on arrays
    # ("truth value ... is ambiguous"), and the generated __hash__ of a
    # frozen class hashes them (TypeError).
    assert not cls.__dataclass_params__.eq or own_eq(cls), (
        f"{cls.__qualname__} has an array field: set eq=False or define __eq__"
    )
