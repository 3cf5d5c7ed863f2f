"""Dense symmetric linear algebra primitives.

Conventions, fixed package-wide:

* Matrices are dense float64 ``numpy`` arrays of shape ``(p, p)``.
  Symmetry is maintained by symmetrizing writes, ``A <- (A + A.T) / 2``,
  after any operation that could break it.
* ``vec`` is column-major: matrix entry ``(i, j)`` maps to flat index
  ``k = i + j * p`` and back via ``i = k % p``, ``j = k // p``.  This is
  the single place the index map is defined.  No solve uses it: the
  restricted systems hold their vectors as p x p matrices zero off the
  support; it orders the explicit blocks the tests compare them with.
* The Kronecker product uses the standard block layout,
  ``(A kron B)[r, c] = A[r // p, c // p] * B[r % p, c % p]``, so that
  ``vec(B @ X @ A.T) == (A kron B) @ vec(X)`` under the column-major
  ``vec`` above.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .exceptions import NotPositiveDefinite, SingularSystem

# Conjugate gradients stop once the residual norm is at most this fraction
# of the right-hand side's norm.
CG_RTOL = 1e-12

# A linear map given only by its product with a vector.
Operator = Callable[[np.ndarray], np.ndarray]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part ``(a + a.T) / 2`` as a new array."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    return a


def cholesky(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor ``L`` with ``L @ L.T == a`` up to round-off.

    Parameters
    ----------
    a : ndarray, shape (p, p)
        Symmetric matrix; only its lower triangle is read.

    Returns
    -------
    ndarray
        Fortran-ordered lower-triangular factor with strictly positive
        diagonal and exact zeros above it.

    Raises
    ------
    NotPositiveDefinite
        If a pivot <= 0 is encountered, i.e. ``a`` is not SPD, or if the
        factor's diagonal is not finite (a NaN or inf in the lower triangle
        of ``a`` ends up there).
    """
    a = _as_square(a)
    lower, info = scipy.linalg.lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefinite(
            f"matrix is not positive definite: leading minor of order {info}"
        )
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    if not np.isfinite(lower.diagonal()).all():
        raise NotPositiveDefinite("matrix is not positive definite: non-finite factor")
    return lower


def logdet(lower: np.ndarray) -> float:
    """Log-determinant of the matrix factored by a lower Cholesky factor.

    ``logdet(cholesky(A)) == log det A`` for SPD ``A``, computed as
    ``2 * sum_i log lower[i, i]``.
    """
    return float(2.0 * np.sum(np.log(np.diag(lower))))


def spd_inverse(lower: np.ndarray) -> np.ndarray:
    """Inverse of the SPD matrix factored by a lower Cholesky factor.

    Returns an exactly symmetric matrix ``X`` with ``A @ X == I`` up to
    round-off, where ``A = lower @ lower.T``.  ``lower`` must be zero above
    its diagonal, as :func:`cholesky` returns it.  LAPACK ``dpotri`` forms
    one triangle of the inverse from the factor (a third of the flops of
    solving against the identity), and the other triangle is its mirror.

    Raises
    ------
    NotPositiveDefinite
        If the factor has a zero on its diagonal.
    """
    # dpotri overwrites a Fortran-ordered copy of the factor (the order
    # cholesky returns, so the copy needs no transpose) with the lower
    # triangle of the inverse; the strictly upper part keeps the factor's
    # zeros, so adding the transpose mirrors the lower part.
    low, info = scipy.linalg.lapack.dpotri(lower, lower=1)
    if info > 0:
        raise NotPositiveDefinite(f"singular Cholesky factor: zero pivot {info}")
    if info < 0:
        raise ValueError(f"dpotri rejected argument {-info}")
    inv = low + low.T
    np.fill_diagonal(inv, low.diagonal())
    return inv


def vec(a: np.ndarray) -> np.ndarray:
    """Column-major vectorization: entry ``(i, j)`` lands at ``i + j * p``."""
    return np.asarray(a, dtype=float).ravel(order="F")


def unvec(v: np.ndarray, p: int) -> np.ndarray:
    """Inverse of :func:`vec`; exact round trip: ``unvec(vec(A), p) == A``."""
    return np.asarray(v, dtype=float).reshape((p, p), order="F")


@dataclass(frozen=True)
class SupportSet:
    """A set of entries of a p x p matrix, held as a read-only boolean mask.

    ``len()`` counts its entries.  Raises ValueError unless the mask is a
    square 2-d array.
    """

    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        mask = np.array(self.mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"mask must be a square 2-d array, got shape {mask.shape}")
        mask.flags.writeable = False
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_matrix_mask(cls, mask2d: np.ndarray) -> "SupportSet":
        """Build from a ``(p, p)`` boolean mask."""
        return cls(mask2d)

    def as_matrix_mask(self) -> np.ndarray:
        """The ``(p, p)`` boolean mask."""
        return self.mask

    @cached_property
    def _half(self) -> np.ndarray:
        # 0.5 on the set, 0 off it: shared by every kron_restricted on the set
        return np.where(self.mask, 0.5, 0.0)

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def kron_restricted(w: np.ndarray, support: SupportSet) -> Operator:
    """Product with rows and columns ``support`` of ``w kron w``, matrix-free.

    Acts on p x p matrices that are zero off the support, one entry per
    coordinate of the restricted system, and returns the map
    ``X -> mask * (C + C.T) / 2`` with ``C = w @ X @ w``.  For symmetric
    ``w``, a support closed under transposition and symmetric ``X``, this
    is ``(w kron w)[support, support] @ vec(X)[support]`` put back on the
    support; ``C + C.T`` makes the output exactly symmetric.  Each product
    costs two p x p matrix products and O(p**2) memory, against O(|S|**2)
    for the explicit block.  Raises ValueError unless the support's mask
    has the shape of ``w``.
    """
    w = _as_square(w, "w")
    if support.mask.shape != w.shape:
        raise ValueError("support shape does not match the matrix")
    half = support._half

    def apply(x: np.ndarray) -> np.ndarray:
        c = w @ x @ w
        return half * (c + c.T)

    return apply


def solve_symmetric(
    apply: Operator,
    rhs: np.ndarray,
    precondition: Operator,
    rtol: float = CG_RTOL,
    dim: Optional[int] = None,
) -> np.ndarray:
    """Solve ``K x = rhs`` by preconditioned conjugate gradients for SPD ``K``.

    ``K`` is given only through its product ``apply(v) == K @ v``, so it is
    never formed.  ``rhs`` and the solution are vectors, or p x p matrices
    zero off a support, the form :func:`kron_restricted` acts on; inner
    products are ``np.vdot`` either way.  ``precondition`` is the product
    with an SPD approximation ``M`` of ``K^{-1}``; the closer it is, the
    fewer products with ``K`` the solve takes.  For ``K = (W kron W)_SS``
    with ``W = theta^{-1}`` the package passes ``(theta kron theta)_SS``,
    the same block of the exact inverse of the unrestricted ``W kron W``.
    Iterates until the residual norm ``|rhs - K x|`` is at most
    ``rtol * |rhs|``; in exact arithmetic that takes at most ``dim`` steps,
    the dimension of the system and the iteration budget: the length of a
    vector ``rhs`` by default, the support's size for a matrix one, which
    must pass it.  Each iteration takes one product with ``K`` and one with
    ``M``; a residual that has met the tolerance (the last one, or that of
    a zero ``rhs``) is never preconditioned.

    Raises
    ------
    SingularSystem
        When a search direction has ``d . K d <= 0`` or a residual has
        ``r . M r <= 0`` for the preconditioner ``M`` (``K`` or ``M`` is not
        positive definite), or when the budget runs out before the
        tolerance.
    """
    b = np.asarray(rhs, dtype=float)
    if dim is None:
        if b.ndim != 1:
            raise ValueError("a matrix rhs needs dim, the size of its support")
        dim = b.size
    x = np.zeros_like(b)
    r = b.copy()
    rr = bb = float(np.vdot(b, b))
    stop = rtol**2 * bb
    it = 0
    while not rr <= stop:  # a NaN residual keeps iterating and then raises
        if it == dim:
            raise SingularSystem(
                f"conjugate gradients left relative residual {np.sqrt(rr / bb):.3e} "
                f"after {it} iterations"
            )
        z = precondition(r)
        rz_next = float(np.vdot(r, z))
        # The first direction is a copy: an identity preconditioner returns
        # r itself, which the loop updates in place.
        d = z.copy() if it == 0 else z + (rz_next / rz) * d
        rz = rz_next
        kd = apply(d)
        curvature = float(np.vdot(d, kd))
        if not (curvature > 0.0 and rz > 0.0):
            raise SingularSystem(
                f"system or preconditioner is not positive definite: d.Kd = "
                f"{curvature:.3e}, r.Mr = {rz:.3e} at conjugate-gradient iteration {it}"
            )
        alpha = rz / curvature
        x += alpha * d
        r -= alpha * kd
        rr = float(np.vdot(r, r))
        it += 1
    return x
