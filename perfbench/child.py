"""CLI runs of glassotune in one fresh process, reported as JSON.

Usage (started by run.py, not by hand):

    python3 perfbench/child.py REPORT SPAWN_TIME {run,trace,setup} SEEDS OUT_DIR -- CLI_ARGS...

For each seed in the comma-separated SEEDS the child calls
``glassotune.cli.run`` with CLI_ARGS plus ``--seed`` and an output
directory ``OUT_DIR/seed<seed>``.  ``run`` leaves the package untouched,
``trace`` installs the span wrappers of tracer.py first, and ``setup`` stops
the first run as soon as data generation and ``starting_level`` are done, to
time set-up alone.  SPAWN_TIME is the parent's wall clock just before it
started this process, so set-up time counts interpreter start and imports
as a user pays them.  The report holds each run's exit code, the set-up
time, the process's peak resident memory, a record of the machine and, when
traced, the aggregated spans of all runs.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


class _SetupDone(BaseException):
    """Ends a set-up-only run; not an Exception, so the CLI cannot catch it."""


def _stop_after_setup(cli_module, spawn_time: float, sink: dict) -> None:
    original = cli_module.starting_level

    def starting_level(*args, **kwargs):
        original(*args, **kwargs)
        sink["setup_s"] = time.time() - spawn_time
        raise _SetupDone

    cli_module.starting_level = starting_level


def _openblas_threads() -> dict:
    """Thread count of every OpenBLAS copy loaded in this process.

    numpy and scipy each bundle their own OpenBLAS, with prefixed symbols,
    so both are looked up among the shared objects the process mapped.
    """
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return found
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def reference_seconds() -> float:
    """Time a fixed numpy/scipy kernel shaped like the package's hot loops.

    Forty rounds of a p=100 Cholesky, inverse and soft-threshold (the inner
    solver) and one 600 x 600 Cholesky solve (the restricted adjoint).  The
    package is not called, so no change to it can move this time; only the
    machine's speed at the moment can.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(0)
    g = rng.standard_normal((100, 200))
    small = g @ g.T / 200 + 0.1 * np.eye(100)
    h = rng.standard_normal((600, 700))
    big = h @ h.T / 700 + 0.1 * np.eye(600)
    eye = np.eye(100)
    t0 = time.perf_counter()
    for _ in range(40):
        lower = np.linalg.cholesky(small)
        inv = scipy.linalg.cho_solve((lower, True), eye, check_finite=False)
        np.sign(inv) * np.maximum(np.abs(inv) - 0.01, 0.0)
    scipy.linalg.cho_solve(scipy.linalg.cho_factor(big, check_finite=False), h[:, 0],
                           check_finite=False)
    return time.perf_counter() - t0


def machine_record() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def main(argv) -> int:
    report_path, spawn_time, kind, seeds, out_dir = argv[:5]
    spawn_time = float(spawn_time)
    cli_args = argv[6:] if argv[5:6] == ["--"] else argv[5:]

    import glassotune.cli as cli

    report: dict = {"kind": kind, "runs": []}
    tracer = None
    if kind == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    elif kind == "setup":
        _stop_after_setup(cli, spawn_time, report)

    for seed in seeds.split(","):
        config = cli.parse_config(
            cli_args + ["--seed", seed, "--output-dir", str(Path(out_dir) / f"seed{seed}")])
        run = {"seed": int(seed)}
        before = reference_seconds() if kind != "setup" else None
        try:
            run["exit_code"] = cli.run(config)
        except _SetupDone:
            break
        # Timed on both sides of the run, to follow the machine's speed through it.
        run["reference_s"] = (before + reference_seconds()) / 2
        report["runs"].append(run)
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.report()

    import resource

    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if kind != "setup":
        report["machine"] = machine_record()
    Path(report_path).write_text(json.dumps(report), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
