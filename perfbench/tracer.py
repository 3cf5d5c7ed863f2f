"""Span tracing of glassotune from outside the package.

The tracer replaces public functions in the module namespaces where they
are called (``glassotune.cli``, ``glassotune.bilevel``, ``glassotune.glasso``,
``glassotune.implicit``) with wrappers that time each call and note any
exception it raises.  Nothing in the package changes: a wrapper calls the
original function with the original arguments and returns its result, so a
traced run computes the same numbers as an untraced one.

Spans are aggregated in memory by (name, parent name, inside a tuning
stage) and written out once when the run ends.  A span's self time is its
duration minus the time of the spans it directly caused.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple

# The tuning stages of a CLI run.  Layer metrics count only spans opened
# while one of these is on the stack, which leaves out set-up and the
# matrix export that follows the stages.
STAGES = ("bilevel.grid_search", "bilevel.tune_scalar", "bilevel.tune_matrix")

# (module, attribute, span name).  Each attribute is wrapped in the module
# whose code calls it, because that module looks the name up in its own
# globals at call time.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("glassotune.cli", "run", "cli.run"),
    ("glassotune.cli", "make_sparse_spd", "datagen.make_sparse_spd"),
    ("glassotune.cli", "sample_gaussian", "datagen.sample_gaussian"),
    ("glassotune.cli", "split_samples", "datagen.split_samples"),
    ("glassotune.cli", "save_matrix_csv", "datagen.save_matrix_csv"),
    ("glassotune.cli", "lambda_init", "bilevel.lambda_init"),
    ("glassotune.cli", "starting_level", "bilevel.starting_level"),
    ("glassotune.cli", "default_grid", "bilevel.default_grid"),
    ("glassotune.cli", "grid_search", "bilevel.grid_search"),
    ("glassotune.cli", "tune_scalar", "bilevel.tune_scalar"),
    ("glassotune.cli", "tune_matrix", "bilevel.tune_matrix"),
    ("glassotune.cli", "solve", "glasso.solve"),
    ("glassotune.bilevel", "solve", "glasso.solve"),
    ("glassotune.bilevel", "criterion_holdout", "implicit.criterion_holdout"),
    ("glassotune.bilevel", "support_from_estimate", "implicit.support_from_estimate"),
    ("glassotune.bilevel", "jacobian_scalar", "implicit.jacobian_scalar"),
    ("glassotune.bilevel", "hypergradient_scalar", "implicit.hypergradient_scalar"),
    ("glassotune.bilevel", "hypergradient_weighted", "implicit.hypergradient_weighted"),
    ("glassotune.bilevel", "relative_error", "implicit.relative_error"),
    ("glassotune.bilevel", "symmetrize", "linalg.symmetrize"),
    ("glassotune.glasso", "cholesky", "linalg.cholesky"),
    ("glassotune.glasso", "spd_inverse", "linalg.spd_inverse"),
    ("glassotune.glasso", "logdet", "linalg.logdet"),
    ("glassotune.glasso", "symmetrize", "linalg.symmetrize"),
    ("glassotune.glasso", "soft_threshold", "glasso.soft_threshold"),
    ("glassotune.implicit", "_restricted_kron", "implicit._restricted_kron"),
    ("glassotune.implicit", "cholesky", "linalg.cholesky"),
    ("glassotune.implicit", "spd_inverse", "linalg.spd_inverse"),
    ("glassotune.implicit", "logdet", "linalg.logdet"),
    ("glassotune.implicit", "symmetrize", "linalg.symmetrize"),
    ("glassotune.implicit", "kron_restricted", "linalg.kron_restricted"),
    ("glassotune.implicit", "solve_symmetric", "linalg.solve_symmetric"),
    ("glassotune.implicit", "vec", "linalg.vec"),
    ("glassotune.implicit", "unvec", "linalg.unvec"),
)


class _Span:
    __slots__ = ("name", "child_s")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0


class Tracer:
    """Aggregated spans plus the few return values the metrics need.

    ``spans`` maps "name|parent|stage" to [calls, seconds, child seconds,
    {exception type: count}], where stage is 1 when a tuning stage was open.
    ``observed`` holds per-call facts read from arguments and results:
    inner iterations of each solve, restricted-system sizes, grid curves
    and trajectory outcomes.
    """

    def __init__(self):
        self._stack: List[_Span] = []
        self._stage_depth = 0
        self.spans: Dict[str, list] = {}
        self.observed: Dict[str, list] = {
            "solve_iterations": [],
            "support_sizes": [],
            "grid_points": [],
            "trajectories": [],
        }
        self._originals: List[Tuple[object, str, Callable]] = []

    def install(self) -> None:
        import importlib

        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, fn: Callable, name: str) -> Callable:
        observe = _OBSERVERS.get(name)
        is_stage = name in STAGES
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1].name if stack else ""
            span = _Span(name)
            stack.append(span)
            if is_stage:
                self._stage_depth += 1
            key = f"{name}|{parent}|{1 if self._stage_depth else 0}"
            error: Optional[str] = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            finally:
                elapsed = clock() - t0
                if is_stage:
                    self._stage_depth -= 1
                stack.pop()
                if stack:
                    stack[-1].child_s += elapsed
                entry = spans.get(key)
                if entry is None:
                    entry = spans[key] = [0, 0.0, 0.0, {}]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += span.child_s
                if error is not None:
                    entry[3][error] = entry[3].get(error, 0) + 1
            if observe is not None:
                observe(self, args, result, None)
            return result

        return wrapper

    def in_stage(self) -> bool:
        return self._stage_depth > 0

    def report(self) -> dict:
        return {"spans": self.spans, "observed": self.observed}


def _observe_solve(tracer: Tracer, args, result, exc) -> None:
    if not tracer.in_stage():
        return
    if exc is None:
        tracer.observed["solve_iterations"].append(int(result.iterations))
    else:
        tracer.observed["solve_iterations"].append(int(getattr(exc, "iterations", 0) or 0))


def _observe_restricted_kron(tracer: Tracer, args, result, exc) -> None:
    if tracer.in_stage():
        tracer.observed["support_sizes"].append(len(args[1]))


def _observe_grid(tracer: Tracer, args, result, exc) -> None:
    if exc is None:
        _, curve = result
        tracer.observed["grid_points"].append(
            [len(curve), int(sum(g.failed for g in curve))]
        )


def _observe_tuner(tracer: Tracer, args, result, exc) -> None:
    if exc is None:
        _, traj = result
        tracer.observed["trajectories"].append([len(traj), traj.stop_reason])


_OBSERVERS = {
    "glasso.solve": _observe_solve,
    "implicit._restricted_kron": _observe_restricted_kron,
    "bilevel.grid_search": _observe_grid,
    "bilevel.tune_scalar": _observe_tuner,
    "bilevel.tune_matrix": _observe_tuner,
}
