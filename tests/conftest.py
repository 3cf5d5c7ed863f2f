"""Shared fixtures and helpers for the test suite."""

import os

import numpy as np
import pytest
import scipy.linalg

import glassotune as gt
import glassotune.bilevel
from glassotune.exceptions import DegenerateSupport
from glassotune.linalg import symmetrize, unvec, vec


def make_instance(p: int, n: int, seed: int, density: float = 0.3):
    """Ground truth plus a 50-50 split dataset, seeded like the CLI."""
    truth = gt.make_sparse_spd(p, density, seed=seed)
    samples = gt.sample_gaussian(truth, n, seed=seed + 1)
    data = gt.split_samples(samples, 0.5, seed=seed + 2)
    return truth, data


def cli_env() -> dict:
    """Environment for a ``python -m glassotune.cli`` subprocess that imports
    the package the tests import, with or without PYTHONPATH set."""
    src = os.path.dirname(os.path.dirname(gt.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def random_spd(rng: np.random.Generator, p: int, jitter: float = 0.5) -> np.ndarray:
    """Well-conditioned random SPD matrix."""
    a = rng.standard_normal((p, p))
    return a @ a.T + (p + jitter) * np.eye(p)


def support_indices(support) -> np.ndarray:
    """Positions of a support's entries under the column-major ``vec``:
    the rows and columns of the explicit restricted block."""
    return np.flatnonzero(vec(support.mask))


def naive_weighted_hypergradient(est, support, grad_c) -> np.ndarray:
    """Per-entry oracle for ``hypergradient_weighted``.

    Materializes the derivative of the solution in each support weight as
    a column of the dense restricted inverse and contracts them one by
    one against the criterion gradient: same output as the adjoint solve,
    quadratically more work.  The restricted block is cut out of the full
    Kronecker product and inverted by a dense direct solve, so the oracle
    shares no code with the matrix-free conjugate-gradient path.
    """
    p = est.dim
    idx = support_indices(support)
    k = np.kron(est.theta_inv, est.theta_inv)[np.ix_(idx, idx)]
    k_inv = scipy.linalg.solve(k, np.eye(len(idx)), assume_a="pos")
    sign_s = np.sign(vec(est.theta))[idx]
    rhs = vec(symmetrize(np.asarray(grad_c, dtype=float)))[idx]
    vals = np.empty(len(idx))
    for m in range(len(idx)):
        vals[m] = float(rhs @ (-sign_s[m] * k_inv[:, m]))
    flat = np.zeros(p * p)
    flat[idx] = vals
    return unvec(flat, p)


def reference_kron_restricted(w, support):
    """Oracle for ``linalg.kron_restricted``: symmetrize, then mask.

    The map ``X -> where(mask, symmetrize(w @ X @ w), 0)`` on p x p
    matrices zero off the support, which symmetrizes the whole product and
    then zeroes it off the support.  The package's operator must give the
    same values, bit for bit.
    """
    mask = support.mask

    def apply(x):
        return np.where(mask, symmetrize(w @ x @ w), 0.0)

    return apply


def fail_support_check(monkeypatch, failing):
    """Make the tuners' support check raise on the calls ``failing`` picks.

    ``failing`` takes the 1-based call count; the other calls run the real
    check.
    """
    real = glassotune.bilevel.support_from_estimate
    calls = {"n": 0}

    def patched(est, cov):
        calls["n"] += 1
        if failing(calls["n"]):
            raise DegenerateSupport("simulated failure")
        return real(est, cov)

    monkeypatch.setattr(glassotune.bilevel, "support_from_estimate", patched)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
