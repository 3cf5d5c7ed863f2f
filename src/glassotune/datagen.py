"""Synthetic ground truth, zero-mean Gaussian sampling, and data splits.

Randomness policy: every operation takes an integer seed and builds its own
PCG64-backed generator, and normal variates are produced by the Box-Muller
transform on that uniform stream.  The uniform draws, and with them the
support pattern and the split indices, are the same on every platform for
a given seed.  The normal variates, the matrix products, the triangular
solve and the covariances go through math-library and BLAS/LAPACK
kernels, so their floats are bit for bit the same only on one
numpy/scipy/BLAS build and agree to round-off across builds.  The model
is zero-mean throughout; no covariance computation centers the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .exceptions import DegenerateSplit
from .linalg import cholesky, symmetrize

# Nonzero pattern threshold used to read a sparsity mask off a matrix.
PATTERN_TOL = 1e-12


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _standard_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Box-Muller normals on the generator's uniform stream."""
    count = int(np.prod(shape))
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # in (0, 1], keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(2.0 * np.pi * u2)
    z[1::2] = radius * np.sin(2.0 * np.pi * u2)
    return z[:count].reshape(shape)


@dataclass(frozen=True)
class GroundTruth:
    """A known sparse SPD precision matrix and its off-diagonal support.

    ``support_mask[i, j]`` is true iff ``i != j`` and
    ``|theta_true[i, j]| > PATTERN_TOL``.
    """

    theta_true: np.ndarray = field(repr=False)
    support_mask: np.ndarray = field(repr=False)

    @property
    def dim(self) -> int:
        return self.theta_true.shape[0]

    @classmethod
    def from_matrix(cls, theta: np.ndarray) -> "GroundTruth":
        """Wrap an SPD matrix, reading the mask off its nonzero pattern."""
        theta = symmetrize(theta)
        cholesky(theta)  # SPD guard
        offdiag = ~np.eye(theta.shape[0], dtype=bool)
        mask = (np.abs(theta) > PATTERN_TOL) & offdiag
        return cls(theta_true=theta, support_mask=mask)


@dataclass(frozen=True)
class Dataset:
    """Samples with a train/test partition and the two empirical covariances."""

    p: int
    n: int
    samples: np.ndarray = field(repr=False)
    train_indices: np.ndarray = field(repr=False)
    test_indices: np.ndarray = field(repr=False)
    cov_train: np.ndarray = field(repr=False)
    cov_test: np.ndarray = field(repr=False)


def sparse_cholesky_factor(p: int, density: float, rng: np.random.Generator) -> np.ndarray:
    """Lower-triangular factor with unit-positive diagonal and sparse fill.

    Diagonal entries are uniform in [1, 2].  Each strictly-lower entry is
    nonzero independently with probability ``density``, with value uniform
    in [-1, 1] scaled by ``0.9 / sqrt(p * density)`` to keep the Gram
    matrix moderately conditioned.  Draw order is fixed (diagonal, then
    the nonzero mask, then the values) so outputs are seed-stable.
    """
    diag = 1.0 + rng.random(p)
    mask_draw = rng.random((p, p))
    value_draw = 2.0 * rng.random((p, p)) - 1.0
    lower_mask = np.tril(mask_draw < density, k=-1)
    scale = 0.9 / np.sqrt(p * density)
    factor = np.diag(diag)
    factor += np.where(lower_mask, value_draw * scale, 0.0)
    return factor


def make_sparse_spd(p: int, density: float, seed: int) -> GroundTruth:
    """Random sparse SPD precision matrix built as ``L @ L.T``.

    Sparsity is imposed on the Cholesky factor ``L`` (see
    :func:`sparse_cholesky_factor`); the product is SPD by construction
    since ``L`` has a strictly positive diagonal.  Deterministic given
    ``seed``.

    Parameters
    ----------
    p : int
        Dimension, at least 2.
    density : float
        Probability in (0, 1] that a strictly-lower factor entry is nonzero.
    seed : int
        Seed for the PCG64 stream.
    """
    if p < 2:
        raise ValueError("p must be at least 2")
    if not 0.0 < density <= 1.0:
        raise ValueError("density must lie in (0, 1]")
    rng = _generator(seed)
    factor = sparse_cholesky_factor(p, density, rng)
    theta = symmetrize(factor @ factor.T)
    return GroundTruth.from_matrix(theta)


def sample_gaussian(truth: GroundTruth, n: int, seed: int) -> np.ndarray:
    """``n`` i.i.d. draws from ``N(0, theta_true^{-1})`` as an (n, p) array.

    Samples are realized as ``x = L^{-T} z`` with standard-normal ``z`` and
    ``L`` the Cholesky factor of ``theta_true``, so their covariance is
    ``(L L^T)^{-1}``.  Deterministic given ``seed``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    p = truth.dim
    lower = cholesky(truth.theta_true)
    z = _standard_normal(_generator(seed), (n, p))
    # x_i = L^{-T} z_i, i.e. X = Z @ L^{-1} row-wise.
    x = scipy.linalg.solve_triangular(lower.T, z.T, lower=False, check_finite=False)
    return np.ascontiguousarray(x.T)


def empirical_covariance(samples: np.ndarray) -> np.ndarray:
    """Second-moment matrix ``(1/n) sum_i x_i x_i^T`` (no mean-centering)."""
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("samples must be a nonempty (n, p) array")
    return symmetrize(x.T @ x / x.shape[0])


def split_samples(samples: np.ndarray, ratio: float, seed: int) -> Dataset:
    """Random permutation split at ``floor(n * ratio)`` train samples.

    Both empirical covariances are computed on the way out.  Deterministic
    given ``seed``.

    Raises
    ------
    DegenerateSplit
        If either side of the partition would be empty.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise ValueError("samples must be an (n, p) array")
    n, p = x.shape
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    n_train = int(np.floor(n * ratio))
    if n_train < 1 or n - n_train < 1:
        raise DegenerateSplit(
            f"split of {n} samples at ratio {ratio} leaves an empty side"
        )
    perm = _generator(seed).permutation(n)
    train = perm[:n_train]
    test = perm[n_train:]
    return Dataset(
        p=p,
        n=n,
        samples=x,
        train_indices=train,
        test_indices=test,
        cov_train=empirical_covariance(x[train]),
        cov_test=empirical_covariance(x[test]),
    )


# ---------------------------------------------------------------------------
# CSV layout: one line per row of comma-separated values.  All floats use
# "%.17g", which round-trips doubles exactly, prints integer-valued floats
# the way str() prints ints, and prints nan as nan.
# ---------------------------------------------------------------------------

FLOAT_FORMAT = "%.17g"


def save_matrix_csv(a: np.ndarray, path, header: str = "") -> None:
    """Write a matrix as one line of comma-separated values per row.

    A nonempty ``header`` is written as the first line, unprefixed.
    """
    a = np.asarray(a, dtype=float)
    np.savetxt(path, a, delimiter=",", fmt=FLOAT_FORMAT, header=header, comments="")


def load_matrix_csv(path) -> np.ndarray:
    """Read a matrix written by :func:`save_matrix_csv`."""
    a = np.loadtxt(path, delimiter=",", dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1) if a.size > 1 else a.reshape(1, 1)
    return a

