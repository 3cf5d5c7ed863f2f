"""Dense symmetric linear algebra primitives.

Conventions, fixed package-wide:

* Matrices are dense float64 ``numpy`` arrays of shape ``(p, p)``.
  The one exception is a restricted system solved loosely: a float32
  matrix of a :func:`kron_restricted` product makes that product's two
  gemms float32, and a float32 vector it acts on comes back float32, so a
  float32 right-hand side runs :func:`solve_symmetric` in float32 end to
  end.
  Each public entry point symmetrizes its matrix arguments,
  ``A <- (A + A.T) / 2``, so a covariance is symmetrized again at every
  call; the matrices computed from it are exactly symmetric by
  construction (mirrored inverses, entrywise maps) and are never
  symmetrized again.  The one exception is a :func:`kron_restricted`
  product, symmetric only to round-off: each caller that solves with it
  symmetrizes the solution once instead (see that function).
* A matrix argument must be finite and square 2-d, of the shape of the
  matrix it goes with if any, or ValueError names it; :func:`_as_matrix`
  is the one place that rule lives.
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
from typing import Callable

import numpy as np
import scipy.linalg

from .exceptions import NotPositiveDefinite, SingularSystem

# Conjugate gradients stop once the residual norm is at most this fraction
# of the right-hand side's norm.
CG_RTOL = 1e-12

# A linear map given only by its product with a vector.
Operator = Callable[[np.ndarray], np.ndarray]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """The symmetric part ``(a + a.T) / 2`` of a square ``a``, as a new array."""
    a = _as_square(np.asarray(a, dtype=float))
    return (a + a.T) / 2.0


def _as_float(a) -> np.ndarray:
    # float32 stays float32, the precision kron_restricted and
    # solve_symmetric take from it; anything else becomes float64.
    a = np.asarray(a)
    return a if a.dtype == np.float32 else a.astype(float, copy=False)


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = _as_float(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {a.shape}")
    return a


def _as_matrix(a, name: str, like: np.ndarray | None = None) -> np.ndarray:
    # A float64 array comes back as itself, not a copy.
    a = _as_square(np.asarray(a, dtype=float), name)
    if like is not None and a.shape != like.shape:
        raise ValueError(f"{name} must have shape {like.shape}, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} must be finite")
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


@dataclass(frozen=True, eq=False)
class SupportSet:
    """A set of entries of a p x p matrix, held as a read-only boolean mask.

    ``len()`` counts its entries.  Raises ValueError unless the mask is a
    square 2-d array.  It holds no state besides the mask: a
    :func:`kron_restricted` operator on the set masks its products
    itself, and exact symmetry of a solve on the set comes from the one
    symmetrization of its solution (see there), not from the set.
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

    def __len__(self) -> int:
        return int(np.count_nonzero(self.mask))


def kron_restricted(w: np.ndarray, support: SupportSet) -> Operator:
    """Product with rows and columns ``support`` of ``w kron w``, matrix-free.

    Acts on p x p matrices that are zero off the support, one entry per
    coordinate of the restricted system, and returns the map
    ``X -> mask * (w @ X @ w)``.  For symmetric ``w``, a support closed
    under transposition and symmetric ``X``, this is
    ``(w kron w)[support, support] @ vec(X)[support]`` put back on the
    support.  Each product costs two p x p matrix products and O(p**2)
    memory, against O(|S|**2) for the explicit block.  Raises ValueError
    unless the support's mask has the shape of ``w``.

    The output is exactly zero off the support but symmetric only to
    round-off, a few ulp of its largest entry, since the matrix products
    round entries (i, j) and (j, i) differently; that perturbs a
    conjugate-gradient solve far below any stop the package uses.  Exact
    symmetry comes from the solves instead: the Newton step of
    :func:`~glassotune.glasso.solve` and
    :func:`~glassotune.implicit.hypergradient_weighted` each symmetrize
    their solution once.

    The caller picks the precision of the two matrix products through the
    dtype of ``w``, and that of the output through the dtype of ``X``: a
    float32 ``w`` stays float32, ``X`` is rounded to it and the product and
    its masking are formed in it; the output takes ``X``'s dtype, float32
    or else float64, cast from the masked product.  A float64 ``w`` and
    ``X`` give the float64 product; a float32 ``w`` or ``X`` agrees with it
    to float32 round-off, about 1e-7 relative.  Any other ``w`` or ``X`` is
    read as float64.
    """
    w = _as_square(w, "w")
    if support.mask.shape != w.shape:
        raise ValueError("support shape does not match the matrix")

    mask = support.mask.astype(w.dtype)

    def apply(x: np.ndarray) -> np.ndarray:
        x = _as_float(x)
        c = w @ x.astype(w.dtype, copy=False) @ w
        c *= mask
        return c.astype(x.dtype, copy=False)

    return apply


def solve_symmetric(
    apply: Operator,
    rhs: np.ndarray,
    precondition: Operator,
    rtol: float = CG_RTOL,
    *,
    dim: int,
) -> np.ndarray:
    """Solve ``K x = rhs`` by preconditioned conjugate gradients for SPD ``K``.

    ``K`` is given only through its product ``apply(v) == K @ v``, so it is
    never formed.  ``rhs`` and the solution are p x p matrices zero off a
    support, the form :func:`kron_restricted` acts on, and inner products
    are ``np.vdot``.  ``precondition`` is the product with an SPD
    approximation ``M`` of ``K^{-1}``; the closer it is, the fewer products
    with ``K`` the solve takes.  For ``K = (W kron W)_SS`` with
    ``W = theta^{-1}`` the package passes ``(theta kron theta)_SS``, the
    same block of the exact inverse of the unrestricted ``W kron W``.
    Iterates until the residual norm ``|rhs - K x|`` is at most
    ``rtol * |rhs|``; in exact arithmetic that takes at most ``dim`` steps,
    the dimension of the system (the support's size), which is also the
    iteration budget.  Each iteration takes one product with ``K`` and one
    with ``M``; a residual that has met the tolerance (the last one, or
    that of a zero ``rhs``) is never preconditioned.

    The vectors take the dtype of ``rhs``: float32 stays float32 and
    anything else becomes float64, and :func:`kron_restricted` products
    return the dtype they are given, so a float32 ``rhs`` runs the solve
    in float32 end to end and returns a float32 solution.  ``x``, ``r``
    and ``d`` are updated in place through one work buffer, with the
    arithmetic of the allocating updates, so a float64 solve's bits do not
    depend on it.  The stop reads the recursively updated residual: with a
    float32 ``K`` or float32 vectors that residual still falls to
    ``rtol``, while the true float64 residual levels off near float32
    round-off, about 1e-7 relative, so such a solve suits only an
    approximate solution.  A float32 ``M`` with float64 vectors only
    changes the iterates, never what the stop reads.

    Raises
    ------
    SingularSystem
        When a search direction has ``d . K d <= 0`` or a residual has
        ``r . M r <= 0`` for the preconditioner ``M`` (``K`` or ``M`` is not
        positive definite), or when the budget runs out before the
        tolerance.
    """
    b = _as_float(rhs)
    x = np.zeros_like(b)
    r = b.copy()
    d = np.empty_like(b)
    work = np.empty_like(b)
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
        # d is a buffer of its own: an identity preconditioner returns r
        # itself, which the loop updates in place.
        if it == 0:
            np.copyto(d, z)
        else:
            d *= rz_next / rz
            d += z
        rz = rz_next
        kd = apply(d)
        curvature = float(np.vdot(d, kd))
        if not (curvature > 0.0 and rz > 0.0):
            raise SingularSystem(
                f"system or preconditioner is not positive definite: d.Kd = "
                f"{curvature:.3e}, r.Mr = {rz:.3e} at conjugate-gradient iteration {it}"
            )
        alpha = rz / curvature
        x += np.multiply(d, alpha, out=work)
        r -= np.multiply(kd, alpha, out=work)
        rr = float(np.vdot(r, r))
        it += 1
    return x
