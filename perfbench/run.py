"""Benchmark of the glassotune command-line experiment.

    python3 perfbench/run.py --workload grid4-p100 --seed 0 --seconds 45 --trace 0

Run from the root of a source checkout.  A workload is a set of CLI flags
and a number of data sets.  One pass starts a fresh child process that runs
the CLI experiment (``glassotune.cli.run``) once per data set; every run's
outputs are then checked outside the timed region.  Data set ``j`` of a
workload with ``m`` data sets gets the CLI seed ``m * seed + j``, so each
``--seed`` gives its own inputs and the single-data-set workloads run the
CLI at ``--seed`` itself.  With ``--trace 0`` the child runs the package
untouched and the end-to-end metrics are reported; with ``--trace 1`` it
wraps each layer's public functions (see tracer.py) and the per-layer
metrics are reported.  Passes repeat while another one still fits in
``--seconds``; there is always at least one, and each metric is the median
over passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the stage timings under the names of README.md and a record of the
machine.  Exit code 0 means a result was printed, 1 that no run produced
one, 2 that the program's sources are missing from the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from tracer import STAGES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


@dataclass(frozen=True)
class Workload:
    flags: List[str]
    data_sets: int = 1
    env: Dict[str, str] = field(default_factory=dict)


# Shared by every workload: the CLI defaults for rho and inner-tol, and an
# explicit data size so a change of CLI defaults cannot change a workload.
COMMON = ["--n", "2000", "--density", "0.05", "--split-ratio", "0.5", "--emit-matrices"]

# One BLAS thread: on a shared 2-core machine the default two threads make
# one run of a data set take up to twice as long as the next (README.md).
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1"}

# BENCHMARK.json gates the multi-data-set workloads, whose cost is steady
# from seed to seed.  The single-data-set ones are the full-size runs whose
# cost depends on the data by up to 2x or more; they are informational, run
# at the library's default thread count, by hand or by audit.py.  README.md
# gives the reasons and figures.
WORKLOADS: Dict[str, Workload] = {
    "grid4-p100": Workload(["--mode", "grid", "--p", "100", "--grid-points", "4"], 16,
                           ONE_THREAD),
    "scalar4-p100": Workload(["--mode", "scalar", "--p", "100", "--max-outer-iter", "4"], 24,
                             ONE_THREAD),
    "grid-p100": Workload(["--mode", "grid", "--p", "100"]),
    "matrix-p100": Workload(["--mode", "matrix", "--p", "100"]),
    "scalar-p200": Workload(["--mode", "scalar", "--p", "200", "--max-outer-iter", "3"]),
    "scalar-p200-1t": Workload(["--mode", "scalar", "--p", "200", "--max-outer-iter", "3"],
                               env=ONE_THREAD),
}

# setup_s is the median of this many set-up times per untraced run, each
# in a fresh process that stops once the data is generated.
SETUP_SAMPLES = 5

# Every run must end well within three minutes, children included.
DEADLINE_S = 170.0

# Output checks: stationarity bound of acceptance check 5, and the relative
# gap allowed between the reported criterion and one recomputed from the
# exported estimate (a cold re-solve at the same penalty, tolerance 1e-8).
STATIONARITY_TOL = 1e-6
CRITERION_RTOL = 1e-6

STAGE_KEYS = ("grid", "scalar", "matrix")


class RunFailed(Exception):
    """No usable pass: nothing to report."""


def _spawn(kind: str, workload: Workload, seeds: List[int], out_dir: Path,
           deadline: float) -> dict:
    """Run one child process over the given data seeds and return its report.

    A child that fails or overruns the deadline yields no runs; its output
    is in ``out_dir/<kind>.log``.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{kind}.report.json"
    env = dict(os.environ)
    env.update(workload.env)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), repr(time.time()), kind,
           ",".join(map(str, seeds)), str(out_dir), "--", *workload.flags, *COMMON]
    with open(out_dir / f"{kind}.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not report_path.exists():
        return {"runs": []}
    return json.loads(report_path.read_text(encoding="ascii"))


def _load_glassotune():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import glassotune

    return glassotune


def check_outputs(out_dir: Path, run: Optional[dict], seed: int) -> dict:
    """Check one CLI run's outputs.

    Returns ``failure``, set when the run did not finish (no exit 0, an
    error.json, or no summary.json), which counts as a failed operation;
    ``problems``, the outputs found wrong, which make the result incorrect;
    and the reported criterion.  The data set is regenerated from the seed
    the way the CLI documents it (seed, seed + 1, seed + 2), and the
    exported estimate is checked for stationarity and against the reported
    criterion and penalty.
    """
    problems: List[str] = []
    result = {"problems": problems, "failure": None, "summary": None}
    summary_path = out_dir / "summary.json"
    if run is None:
        result["failure"] = "the child process failed or timed out before this run"
    elif run["exit_code"] != 0 or (out_dir / "error.json").exists():
        error = out_dir / "error.json"
        detail = json.loads(error.read_text(encoding="ascii")) if error.exists() else {}
        result["failure"] = (f"CLI exit code {run['exit_code']}: "
                             f"{detail.get('error')}: {detail.get('message')}")
    elif not summary_path.exists():
        result["failure"] = "no summary.json"
    if result["failure"]:
        return result
    summary = json.loads(summary_path.read_text(encoding="ascii"))
    result["summary"] = summary

    gt = _load_glassotune()
    import numpy as np

    from glassotune.datagen import load_matrix_csv
    from glassotune.linalg import cholesky, logdet

    cfg = summary["config"]
    truth = gt.make_sparse_spd(cfg["p"], cfg["density"], seed)
    samples = gt.sample_gaussian(truth, cfg["n"], seed + 1)
    data = gt.split_samples(samples, cfg["split_ratio"], seed + 2)

    try:
        theta = load_matrix_csv(out_dir / "theta_hat.csv")
        lam = load_matrix_csv(out_dir / "lambda_opt.csv")
    except (OSError, ValueError) as exc:
        problems.append(f"exported matrices unreadable: {exc}")
        return result
    if lam.shape == (1, 1):
        reg = gt.Regularization.scalar(float(lam[0, 0]))
    else:
        reg = gt.Regularization.matrix(lam)
    final = summary[[k for k in STAGE_KEYS if k in summary][-1]]
    reported_lam = final.get("lambda_best", final.get("lambda_opt"))
    if reported_lam is not None and (not reg.is_scalar or reg.lam != reported_lam):
        problems.append(f"lambda_opt.csv does not hold the reported level {reported_lam!r}")

    support = gt.SupportSet.from_matrix_mask(np.abs(theta) > gt.SolverConfig().support_tol)
    est = gt.PrecisionEstimate(theta=theta, reg=reg, gamma=float("nan"), support=support,
                               fixed_point_residual=float("nan"), iterations=0)
    try:
        violation = gt.check_optimality(est, data.cov_train)
        criterion = gt.criterion_holdout(theta, data.cov_test).value
    except gt.GlassoTuneError as exc:
        problems.append(f"exported estimate unusable: {type(exc).__name__}: {exc}")
        return result
    if not violation <= STATIONARITY_TOL:
        problems.append(f"stationarity violation {violation:.3e} > {STATIONARITY_TOL:g}")
    reported = final["criterion"]
    if not abs(criterion - reported) <= CRITERION_RTOL * max(1.0, abs(reported)):
        problems.append(f"criterion recomputed as {criterion!r}, reported {reported!r}")
    # The held-out criterion is minimized over all SPD matrices by the
    # inverse test covariance, at logdet(S_test) + p.
    floor = logdet(cholesky(data.cov_test)) + cfg["p"]
    result.update(criterion=reported, criterion_excess=reported - floor, violation=violation)
    return result


def _span_table(trace: dict) -> List[tuple]:
    rows = []
    for key, (calls, s, child_s, errors) in trace["spans"].items():
        name, parent, stage = key.split("|")
        rows.append((name, parent, stage == "1", calls, s, child_s, errors))
    return rows


def layer_metrics(trace: dict) -> Dict[str, float]:
    """Per-layer metrics of a traced pass (README.md defines each)."""
    rows = _span_table(trace)
    obs = trace["observed"]
    tuners = ("bilevel.tune_scalar", "bilevel.tune_matrix")
    refactoring = ("implicit.criterion_holdout", "implicit.support_from_estimate",
                   "implicit._restricted_kron")
    in_solve = ("glasso.solve",)

    def pick(name=None, parents=None, prefix=None, in_stage=True):
        return [r for r in rows
                if (name is None or r[0] == name)
                and (prefix is None or r[0].startswith(prefix))
                and (parents is None or r[1] in parents)
                and r[2] == in_stage]

    def calls(sel):
        return sum(r[3] for r in sel)

    def secs(sel):
        return sum(r[4] for r in sel)

    def self_secs(sel):
        return sum(r[4] - r[5] for r in sel)

    def errors(sel, kind):
        return sum(r[6].get(kind, 0) for r in sel)

    solve = pick("glasso.solve", parents=STAGES)
    inner_iters = sum(obs["solve_iterations"])
    sizes = obs["support_sizes"]
    trajectories = obs["trajectories"]
    outer_iters = sum(n for n, _ in trajectories)
    attempts = calls(pick("glasso.solve", parents=tuners))
    aborted = sum(reason.startswith("aborted") for _, reason in trajectories)
    stage_s = secs(pick(parents=("cli.run",)))
    implicit_s = secs(pick(prefix="implicit.", parents=STAGES))
    return {
        "datagen.s": secs(pick(prefix="datagen.", parents=("cli.run",), in_stage=False))
        - secs(pick("datagen.save_matrix_csv", in_stage=False)),
        "glasso.solve.calls": calls(solve),
        "glasso.solve.s": secs(solve),
        "glasso.solve.self_s": self_secs(solve),
        "glasso.solve.failed": sum(sum(r[6].values()) for r in solve),
        "glasso.solve.inner_iters": inner_iters,
        "glasso.solve.backtracks": calls(pick("linalg.cholesky", parents=in_solve))
        - calls(pick("linalg.spd_inverse", parents=in_solve)),
        "glasso.solve.us_per_iter": 1e6 * secs(solve) / inner_iters if inner_iters else 0.0,
        "linalg.cholesky.calls": calls(pick("linalg.cholesky", parents=in_solve)),
        "linalg.cholesky.s": secs(pick("linalg.cholesky", parents=in_solve)),
        "linalg.spd_inverse.calls": calls(pick("linalg.spd_inverse", parents=in_solve)),
        "linalg.spd_inverse.s": secs(pick("linalg.spd_inverse", parents=in_solve)),
        "glasso.soft_threshold.calls": calls(pick("glasso.soft_threshold", parents=in_solve)),
        "glasso.soft_threshold.s": secs(pick("glasso.soft_threshold", parents=in_solve)),
        "linalg.symmetrize.s": secs(pick("linalg.symmetrize", parents=in_solve)),
        "implicit.s": implicit_s,
        "implicit.share": implicit_s / stage_s if stage_s else 0.0,
        "implicit.adjoint_share": (secs(pick("implicit.jacobian_scalar", parents=STAGES))
                                   + secs(pick("implicit.hypergradient_weighted", parents=STAGES)))
        / stage_s if stage_s else 0.0,
        "glasso.share": secs(solve) / stage_s if stage_s else 0.0,
        "implicit.criterion_holdout.s": secs(pick("implicit.criterion_holdout", parents=STAGES)),
        "implicit.support_from_estimate.s": secs(pick("implicit.support_from_estimate", parents=STAGES)),
        "implicit.support_from_estimate.degenerate": errors(
            pick("implicit.support_from_estimate", parents=STAGES), "DegenerateSupport"),
        "implicit.kron_restricted.s": secs(pick("linalg.kron_restricted")),
        "implicit.solve_symmetric.s": secs(pick("linalg.solve_symmetric")),
        "implicit.solve_symmetric.singular": errors(pick("linalg.solve_symmetric"), "SingularSystem"),
        "implicit.jacobian_scalar.calls": calls(pick("implicit.jacobian_scalar", parents=STAGES)),
        "implicit.jacobian_scalar.s": secs(pick("implicit.jacobian_scalar", parents=STAGES)),
        "implicit.hypergradient_weighted.calls": calls(pick("implicit.hypergradient_weighted", parents=STAGES)),
        "implicit.hypergradient_weighted.s": secs(pick("implicit.hypergradient_weighted", parents=STAGES)),
        "implicit.support_size.max": max(sizes, default=0),
        "implicit.support_size.median": statistics.median(sizes) if sizes else 0,
        "implicit.system_mb.max": 8.0 * max(sizes, default=0) ** 2 / 2**20,
        "implicit.refactorizations": calls(pick("linalg.cholesky", parents=refactoring)),
        "bilevel.outer_iters": outer_iters,
        "bilevel.outer_attempts": attempts,
        "bilevel.retries": attempts - outer_iters - aborted,
        "bilevel.aborted": aborted,
        "bilevel.grid_search.points": sum(n for n, _ in obs["grid_points"]),
        "bilevel.grid_search.failed": sum(f for _, f in obs["grid_points"]),
        "bilevel.self_s": self_secs(pick(parents=("cli.run",))),
        "cli.self_s": self_secs(pick("cli.run", in_stage=False)),
    }


def _run_record(check: dict, reference_s: Optional[float]) -> dict:
    """Numbers of one CLI run: stage seconds, results and operation counts."""
    summary = check["summary"] or {}
    record = {"problems": check["problems"], "failure": check["failure"],
              "criterion": check.get("criterion"),
              "criterion_excess": check.get("criterion_excess"), "reference_s": reference_s}
    record["stage_s"] = {k: summary[k]["seconds"] for k in STAGE_KEYS if k in summary}
    record["tuning_s"] = sum(record["stage_s"].values())
    # Everything a stage reports except wall-clock: tracing must not move it.
    record["results"] = {k: {f: v for f, v in summary[k].items() if f != "seconds"}
                         for k in STAGE_KEYS if k in summary}
    grid = summary.get("grid", {})
    descents = [summary[k] for k in ("scalar", "matrix") if k in summary]
    aborted = sum(d["stop_reason"].startswith("aborted") for d in descents)
    # Without tracing a retry that succeeded leaves no mark in the outputs;
    # an abort shows as its stop_reason and always follows one retried
    # attempt, so it counts as two failed attempts.
    record["attempted"] = (grid.get("points", 0) + sum(d["outer_iterations"] for d in descents)
                           + 2 * aborted)
    record["failed"] = grid.get("failed_points", 0) + 2 * aborted
    return record


def _pass_record(report: dict, runs: List[dict]) -> dict:
    """One pass over the workload's data sets: medians over its checked runs.

    A run's cost varies with its data set by 20-30% (coefficient of
    variation), with a long upper tail; the median over many data sets is
    what keeps the pass figure steady from seed to seed.
    """
    checked = [r for r in runs if r["criterion_excess"] is not None]
    record: dict = {"runs": runs, "usable": bool(checked)}
    if "trace" in report:
        # Exact counts, retries included.
        record["layers"] = layers = layer_metrics(report["trace"])
        attempted = layers["bilevel.grid_search.points"] + layers["bilevel.outer_attempts"]
        failed = (layers["bilevel.grid_search.failed"] + layers["bilevel.retries"]
                  + layers["bilevel.aborted"])
    else:
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
    # Each run's output check is one more operation.
    record["attempted"] = attempted + len(runs)
    record["failed"] = failed + sum(1 for r in runs if r["problems"] or r["failure"])
    if not record["usable"]:
        return record
    record["ok_frac"] = 1.0 - record["failed"] / record["attempted"]
    record["peak_rss_mb"] = report["peak_rss_kb"] / 1024.0
    for key in ("tuning_s", "criterion", "criterion_excess", "reference_s"):
        record[key] = statistics.median(r[key] for r in checked)
    # The machine's speed drifts by up to ~30% within minutes (README.md);
    # the reference kernel, timed in the same process before and after each
    # run, drifts with it, and the ratio keeps the program's own speed.
    record["tuning_rel"] = statistics.median(r["tuning_s"] / r["reference_s"] for r in checked)
    for stage in STAGE_KEYS:
        values = [r["stage_s"][stage] for r in checked if stage in r["stage_s"]]
        if values:
            record[f"{stage}_s"] = statistics.median(values)
    matrix = [(r["stage_s"]["matrix"], r["results"]["matrix"]["outer_iterations"])
              for r in checked if "matrix" in r["stage_s"]]
    if matrix:
        record["matrix_s_per_outer"] = sum(s for s, _ in matrix) / sum(n for _, n in matrix)
    return record


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one benchmark run plus the metrics derived from them."""
    workload = WORKLOADS[name]
    started = time.monotonic()
    deadline = started + DEADLINE_S
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    data_seeds = [workload.data_sets * seed + j for j in range(workload.data_sets)]

    setup_samples: List[float] = []
    if not trace:
        for i in range(SETUP_SAMPLES):
            report = _spawn("setup", workload, data_seeds[:1], run_dir / f"setup{i}", deadline)
            if "setup_s" in report:
                setup_samples.append(report["setup_s"])

    passes: List[dict] = []
    machine: Optional[dict] = None
    pass_s = 0.0
    while not passes or time.monotonic() - started + pass_s <= seconds:
        t0 = time.monotonic()
        out_dir = run_dir / f"pass{len(passes)}"
        report = _spawn("trace" if trace else "run", workload, data_seeds, out_dir, deadline)
        by_seed = {r["seed"]: r for r in report["runs"]}
        runs = [_run_record(check_outputs(out_dir / f"seed{s}", by_seed.get(s), s),
                            by_seed.get(s, {}).get("reference_s"))
                for s in data_seeds]
        passes.append(_pass_record(report, runs))
        machine = machine or report.get("machine")
        pass_s = time.monotonic() - t0
        if not passes[-1]["usable"]:
            break

    usable = [p for p in passes if p["usable"]]
    if not usable:
        problems = [q for r in passes[-1]["runs"] for q in [r["failure"], *r["problems"]] if q]
        raise RunFailed("; ".join(problems) or "no pass produced results")
    if trace:
        metrics = {k: statistics.median(p["layers"][k] for p in usable)
                   for k in usable[0]["layers"]}
    else:
        if not setup_samples:
            raise RunFailed("no set-up time was measured")
        metrics = {"setup_s": statistics.median(setup_samples)}
        for key in ("tuning_rel", "criterion_excess", "ok_frac", "peak_rss_mb"):
            metrics[key] = statistics.median(p[key] for p in usable)
    return {
        "workload": name,
        "seed": seed,
        "data_seeds": data_seeds,
        "trace": trace,
        "passes": passes,
        "setup_samples": setup_samples,
        "machine": machine,
        "metrics": metrics,
        "correct": all(not r["problems"] for p in passes for r in p["runs"]),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
    }


def _declared(trace: bool) -> Dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _print_report(result: dict, units: Dict[str, str]) -> None:
    first = next(p for p in result["passes"] if p["usable"])
    print(f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}: "
          f"{len(result['passes'])} pass(es) over data seeds {result['data_seeds']}, "
          f"{len(result['setup_samples'])} set-up samples")
    for p in result["passes"]:
        for r in p["runs"]:
            if r["failure"]:
                print(f"  RUN FAILED: {r['failure']}")
            for problem in r["problems"]:
                print(f"  CHECK FAILED: {problem}")
    # Stage timings under their own names, where the stage ran (medians over
    # the data sets of the first pass).
    named = [("tuning_s", first["tuning_s"], "s"), ("reference_s", first["reference_s"], "s"),
             ("grid_s", first.get("grid_s"), "s"), ("tune_s", first.get("scalar_s"), "s"),
             ("matrix_s_per_outer", first.get("matrix_s_per_outer"), "s"),
             ("criterion", first["criterion"], "nll"),
             ("failed_frac", result["failed"] / result["attempted"], "ratio")]
    for name, value, unit in named:
        if value is not None:
            print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value in result["metrics"].items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    if len(first["runs"]) == 1:
        for stage, values in first["runs"][0]["results"].items():
            print(f"  {stage}: " + ", ".join(
                f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                for k, v in sorted(values.items())))
    print("machine " + json.dumps(result["machine"], sort_keys=True))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glassotune" / "cli.py").is_file():
        print(f"error: no glassotune sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    units = _declared(bool(args.trace))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(result["metrics"]) != set(units):
        print(f"error: measured metrics {sorted(result['metrics'])} differ from those "
              f"BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}" / "result.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="ascii")
    _print_report(result, units)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
