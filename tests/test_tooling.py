"""The benchmark tracer wraps package functions by name; keep those names."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", load_tracer().TARGETS)
def test_tracer_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
