"""Checks of the benchmark itself, run by hand after changing it.

    python3 perfbench/audit.py

For each workload of ``SPLIT_EXPECTED`` it makes one untraced run at seed 0, two traced runs at
seed 0 and one traced run at seed 1; then one traced run of
``scalar-p200-1t`` (BLAS at one thread) as the single-threaded reference.
It reports:

* exact counts: the two traced runs at one seed must agree on every count;
* no perturbation: the traced and untraced runs must report identical
  levels, criteria, iteration counts and stop reasons;
* tracing overhead: traced minus untraced tuning seconds;
* the layer split at seeds 0 and 1: ``implicit`` near 0 on the grid
  workloads, the adjoint (restricted build and solve) most of the time on
  matrix-p100 and scalar-p200;
* each stage's results at seed 0, which hold the anchors of README.md.

The report goes to standard output and to .perfbench_out/audit.json.  The
exit code is 1 when a run's outputs fail their checks or an exact-count or
no-perturbation check fails.
"""

from __future__ import annotations

import json
import sys

import run as bench

COUNTS = (
    "glasso.solve.calls", "glasso.solve.failed", "glasso.solve.inner_iters",
    "glasso.solve.backtracks", "linalg.cholesky.calls", "linalg.spd_inverse.calls",
    "glasso.soft_threshold.calls", "implicit.support_size.max", "implicit.support_size.median",
    "implicit.refactorizations", "implicit.support_from_estimate.degenerate",
    "implicit.solve_symmetric.singular", "implicit.jacobian_scalar.calls",
    "implicit.hypergradient_weighted.calls", "bilevel.outer_iters", "bilevel.outer_attempts",
    "bilevel.retries", "bilevel.aborted", "bilevel.grid_search.points",
    "bilevel.grid_search.failed",
)

# The layer split each workload was chosen for: (metric, at most/at least, limit).
SPLIT_EXPECTED = {
    "grid4-p100": ("implicit.adjoint_share", "at most", 0.01),
    "grid-p100": ("implicit.adjoint_share", "at most", 0.01),
    "scalar4-p100": ("implicit.adjoint_share", "at least", 0.2),
    "matrix-p100": ("implicit.adjoint_share", "at least", 0.5),
    "scalar-p200": ("implicit.adjoint_share", "at least", 0.5),
}

# Each audited run is a single pass: measure() always makes one, and makes
# no second one once this many seconds have gone.
ONE_PASS_S = 0.0

SHARES = ("implicit.share", "implicit.adjoint_share", "glasso.share")


def _results(result: dict) -> list:
    return [r["results"] for r in result["passes"][0]["runs"]]


def _split_kept(workload: str, layers: dict) -> bool:
    key, direction, limit = SPLIT_EXPECTED[workload]
    return layers[key] <= limit if direction == "at most" else layers[key] >= limit


def audit_workload(workload: str) -> dict:
    untraced = bench.measure(workload, 0, ONE_PASS_S, trace=False)
    traced = [bench.measure(workload, 0, ONE_PASS_S, trace=True) for _ in range(2)]
    seed1 = bench.measure(workload, 1, ONE_PASS_S, trace=True)

    a, b = (t["metrics"] for t in traced)
    count_diffs = {k: [a[k], b[k]] for k in COUNTS if a[k] != b[k]}
    untraced_s = untraced["passes"][0]["tuning_s"]
    traced_s = [t["passes"][0]["tuning_s"] for t in traced]
    return {
        "correct": all(r["correct"] for r in [untraced, *traced, seed1]),
        "counts_identical": not count_diffs,
        "count_diffs": count_diffs,
        "results_identical": _results(untraced) == _results(traced[0]) == _results(traced[1]),
        "results_seed0": _results(untraced),
        "tuning_s": {"untraced": untraced_s, "traced": traced_s},
        "trace_overhead_s": traced_s[0] - untraced_s,
        "end_to_end_seed0": untraced["metrics"],
        "failed_frac_seed0": untraced["failed"] / untraced["attempted"],
        "layers_seed0": a,
        "layers_seed1": seed1["metrics"],
        "split_expected": SPLIT_EXPECTED.get(workload),
        "split_seed0": {k: a[k] for k in SHARES},
        "split_seed1": {k: seed1["metrics"][k] for k in SHARES},
        "split_kept": [_split_kept(workload, a), _split_kept(workload, seed1["metrics"])],
        "machine": untraced["machine"],
    }


def main() -> int:
    report = {}
    for workload in SPLIT_EXPECTED:
        report[workload] = audit_workload(workload)
        print(workload, json.dumps({k: report[workload][k] for k in (
            "correct", "counts_identical", "results_identical", "tuning_s", "trace_overhead_s",
            "failed_frac_seed0", "split_seed0", "split_seed1", "split_kept")}), flush=True)
    ok = all(r["correct"] and r["counts_identical"] and r["results_identical"]
             for r in report.values())
    # Informational: one BLAS thread may round differently, so its results
    # are compared but do not decide the exit code.
    one = bench.measure("scalar-p200-1t", 0, ONE_PASS_S, trace=True)
    two = report["scalar-p200"]["layers_seed0"]
    layers = one["metrics"]
    report["scalar-p200-1t"] = {
        "correct": one["correct"],
        "tuning_s": one["passes"][0]["tuning_s"],
        "results_identical": _results(one) == report["scalar-p200"]["results_seed0"],
        "layers_seed0": layers,
        "blas_threads": one["machine"]["blas_threads"],
        "us_per_cholesky_in_solve": {
            "one thread": 1e6 * layers["linalg.cholesky.s"] / layers["linalg.cholesky.calls"],
            "default": 1e6 * two["linalg.cholesky.s"] / two["linalg.cholesky.calls"],
        },
        "s_per_solve": {
            "one thread": layers["glasso.solve.s"] / layers["glasso.solve.calls"],
            "default": two["glasso.solve.s"] / two["glasso.solve.calls"],
        },
    }
    print("scalar-p200-1t", json.dumps({k: report["scalar-p200-1t"][k] for k in (
        "correct", "tuning_s", "results_identical", "blas_threads",
        "us_per_cholesky_in_solve", "s_per_solve")}), flush=True)

    bench.OUT.mkdir(exist_ok=True)
    (bench.OUT / "audit.json").write_text(json.dumps(report, indent=1, sort_keys=True),
                                          encoding="ascii")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
