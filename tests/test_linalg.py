"""Dense symmetric linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glassotune.exceptions import NotPositiveDefinite, SingularSystem
from glassotune.linalg import (
    CG_RTOL,
    SupportSet,
    cholesky,
    kron_restricted,
    logdet,
    solve_symmetric,
    spd_inverse,
    symmetrize,
    unvec,
    vec,
)

from conftest import (
    random_spd,
    reference_kron_restricted,
    reference_solve_symmetric,
    support_indices,
)


def brute_force_det(a: np.ndarray) -> float:
    """Cofactor expansion along the first row; oracle for p <= 4."""
    p = a.shape[0]
    if p == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(p):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * brute_force_det(minor)
    return total


def dense_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A kron B)[r, c] = A[r//p, c//p] * B[r%p, c%p], by double loop."""
    p = a.shape[0]
    out = np.empty((p * p, p * p))
    for r in range(p * p):
        for c in range(p * p):
            out[r, c] = a[r // p, c // p] * b[r % p, c % p]
    return out


def on_support(support: SupportSet, x: np.ndarray) -> np.ndarray:
    """``x`` with its entries off the support set to zero."""
    return np.where(support.mask, x, 0.0)


def pair_symmetric(rng: np.random.Generator, support: SupportSet) -> np.ndarray:
    """Random symmetric matrix, zero off a symmetric support."""
    return on_support(support, symmetrize(rng.standard_normal(support.mask.shape)))


def assert_roundoff_symmetric(m: np.ndarray, dtype) -> None:
    """``max|m - m.T| <= p * eps(dtype) * max|m|``.

    A restricted Kronecker product of a pair-symmetric input is symmetric
    only to the round-off of its matrix products in ``dtype``.
    """
    m = m.astype(float)
    bound = m.shape[0] * np.finfo(dtype).eps * float(np.max(np.abs(m)))
    assert float(np.max(np.abs(m - m.T))) <= bound


def symmetric_support(rng: np.random.Generator, p: int) -> SupportSet:
    mask = rng.random((p, p)) > 0.5
    return SupportSet.from_matrix_mask(mask | mask.T | np.eye(p, dtype=bool))


def support_of_kind(rng: np.random.Generator, p: int, kind: str) -> SupportSet:
    if kind == "diagonal":
        return SupportSet.from_matrix_mask(np.eye(p, dtype=bool))
    if kind == "symmetric":
        return symmetric_support(rng, p)
    return SupportSet.from_matrix_mask(np.ones((p, p), dtype=bool))


def restricted_product(w: np.ndarray, s: SupportSet, x: np.ndarray) -> np.ndarray:
    """Oracle: the block ``(w kron w)[S, S]`` times ``vec(x)[S]``, on the support.

    The block's entries come from the layout rule, entry (k, l) of
    ``w kron w`` is ``w[k // p, l // p] * w[k % p, l % p]``, a few hundred
    rows at a time, so it is never held whole.
    """
    p = w.shape[0]
    idx = support_indices(s)
    rows, cols = idx % p, idx // p
    xs = vec(x)[idx]
    out = np.empty(len(idx))
    for start in range(0, len(idx), 200):
        k = slice(start, start + 200)
        block = w[np.ix_(cols[k], cols)] * w[np.ix_(rows[k], rows)]
        out[k] = block @ xs
    flat = np.zeros(p * p)
    flat[idx] = out
    return unvec(flat, p)


def assert_rel_close(got: np.ndarray, expected: np.ndarray, rtol: float = 1e-12):
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_reconstructs(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        lower = cholesky(a)
        assert np.max(np.abs(lower @ lower.T - a)) <= 1e-12

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.diag([1.0, -1.0]))

    def test_lower_triangular_positive_diagonal(self, rng):
        a = random_spd(rng, 6)
        lower = cholesky(a)
        assert np.allclose(lower, np.tril(lower))
        assert np.all(np.diag(lower) > 0)


    @pytest.mark.parametrize(
        "a",
        [
            [[np.nan, 0.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, np.nan]],
            [[1.0, np.nan], [np.nan, 1.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[1.0, np.inf], [np.inf, 1.0]],
        ],
        ids=["nan-first-diagonal", "nan-last-diagonal", "nan-off-diagonal",
             "inf-diagonal", "inf-off-diagonal"],
    )
    def test_non_finite_raises(self, a):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array(a))

    def test_fortran_ordered_with_zero_upper_triangle(self, rng):
        lower = cholesky(random_spd(rng, 5))
        assert lower.flags.f_contiguous
        assert np.all(np.triu(lower, 1) == 0.0)


class TestLogdet:
    def test_identity(self):
        assert logdet(cholesky(np.eye(5))) == 0.0

    def test_diagonal(self):
        assert logdet(cholesky(np.diag([2.0, 2.0]))) == pytest.approx(2 * np.log(2))

    def test_two_by_two(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        assert logdet(cholesky(a)) == pytest.approx(np.log(8.0))

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_against_cofactor_expansion(self, p, rng):
        a = random_spd(rng, p)
        expected = np.log(brute_force_det(a))
        assert abs(logdet(cholesky(a)) - expected) <= 1e-10


class TestSpdInverse:
    def test_identity(self):
        np.testing.assert_allclose(spd_inverse(cholesky(np.eye(4))), np.eye(4))

    def test_diagonal(self):
        inv = spd_inverse(cholesky(np.diag([2.0, 4.0])))
        np.testing.assert_allclose(inv, np.diag([0.5, 0.25]))

    def test_multiply_back(self, rng):
        a = random_spd(rng, 5)
        x = spd_inverse(cholesky(a))
        assert np.max(np.abs(a @ x - np.eye(5))) <= 1e-10

    def test_involution(self, rng):
        a = random_spd(rng, 5)
        twice = spd_inverse(cholesky(spd_inverse(cholesky(a))))
        assert np.max(np.abs(twice - a)) <= 1e-8

    def test_output_symmetric(self, rng):
        a = random_spd(rng, 7)
        x = spd_inverse(cholesky(a))
        np.testing.assert_array_equal(x, x.T)

    def test_p100_symmetric_and_matches_numpy(self, rng):
        a = random_spd(rng, 100)
        x = spd_inverse(cholesky(a))
        np.testing.assert_array_equal(x, x.T)
        ref = np.linalg.inv(a)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_c_and_fortran_ordered_factors_agree(self, rng):
        lower = cholesky(random_spd(rng, 30))
        np.testing.assert_array_equal(
            spd_inverse(np.ascontiguousarray(lower)),
            spd_inverse(np.asfortranarray(lower)),
        )

    def test_leaves_the_factor_untouched(self, rng):
        lower = cholesky(random_spd(rng, 6))
        before = lower.copy()
        spd_inverse(lower)
        np.testing.assert_array_equal(lower, before)

    def test_singular_factor_raises(self):
        with pytest.raises(NotPositiveDefinite):
            spd_inverse(np.array([[1.0, 0.0], [1.0, 0.0]]))


class TestVec:
    def test_column_major(self):
        a = np.array([[1.0, 3.0], [2.0, 4.0]])
        np.testing.assert_array_equal(vec(a), [1.0, 2.0, 3.0, 4.0])

    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1.0, 0.0, 0.0, 1.0])

    def test_round_trip(self, rng):
        a = rng.standard_normal((5, 5))
        np.testing.assert_array_equal(unvec(vec(a), 5), a)

    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_bitwise(self, p, seed):
        a = np.random.default_rng(seed).standard_normal((p, p))
        assert np.array_equal(unvec(vec(a), p), a)


class TestSupportSet:
    def test_matrix_mask_round_trip(self, rng):
        m = rng.random((4, 4)) > 0.5
        s = SupportSet.from_matrix_mask(m)
        np.testing.assert_array_equal(s.mask, m)

    def test_column_major_indexing(self):
        # entry (i, j) lives at flat index i + j*p
        m = np.zeros((3, 3), dtype=bool)
        m[1, 2] = True
        s = SupportSet.from_matrix_mask(m)
        assert list(np.flatnonzero(vec(s.mask))) == [1 + 2 * 3]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square 2-d"):
            SupportSet.from_matrix_mask(np.ones((2, 3), dtype=bool))

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_rejects_non_2d(self, shape):
        # A flat mask of length 4 is not read as 2 x 2.
        with pytest.raises(ValueError, match="square 2-d"):
            SupportSet.from_matrix_mask(np.ones(shape, dtype=bool))

    def test_mask_is_a_read_only_copy(self):
        m = np.eye(3, dtype=bool)
        s = SupportSet.from_matrix_mask(m)
        m[0, 1] = True
        assert len(s) == 3
        assert not s.mask.flags.writeable


class TestKronRestricted:
    def test_identity_pair(self):
        s = SupportSet.from_matrix_mask(np.eye(2, dtype=bool))
        x = np.diag([2.0, -3.0])
        np.testing.assert_array_equal(kron_restricted(np.eye(2), s)(x), x)

    def test_full_support_equals_dense(self, rng):
        w = random_spd(rng, 3)
        s = SupportSet.from_matrix_mask(np.ones((3, 3), dtype=bool))
        x = pair_symmetric(rng, s)
        assert_rel_close(vec(kron_restricted(w, s)(x)), dense_kron(w, w) @ vec(x))

    def test_single_index(self, rng):
        w = random_spd(rng, 3)
        for i in range(3):
            m = np.zeros((3, 3), dtype=bool)
            m[i, i] = True  # diagonal entries are their own transpose pair
            s = SupportSet.from_matrix_mask(m)
            out = kron_restricted(w, s)(m.astype(float))
            assert out[i, i] == w[i, i] * w[i, i]
            assert np.all(out[~m] == 0.0)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_arbitrary_support_matches_extraction(self, p, rng):
        w = spd_inverse(cholesky(random_spd(rng, p)))
        for _ in range(5):
            s = symmetric_support(rng, p)
            x = pair_symmetric(rng, s)
            assert_rel_close(kron_restricted(w, s)(x), restricted_product(w, s, x))

    def test_matches_kron_vec_identity(self, rng):
        # vec(W X W) == (W kron W) vec(X) under the column-major vec
        w = random_spd(rng, 3)
        x = symmetrize(rng.standard_normal((3, 3)))
        s = SupportSet.from_matrix_mask(np.ones((3, 3), dtype=bool))
        assert_rel_close(vec(kron_restricted(w, s)(x)), vec(w @ x @ w))

    def test_pairs_exactly_symmetric(self, rng):
        # A pair-symmetric input maps to (i, j), (j, i) outputs equal to
        # round-off; the solves, not the product, make them exactly equal.
        p = 6
        w = random_spd(rng, p)
        s = symmetric_support(rng, p)
        m = kron_restricted(w, s)(pair_symmetric(rng, s))
        assert_roundoff_symmetric(m, np.float64)

    @pytest.mark.parametrize("p", [1, 2, 7, 100])
    @pytest.mark.parametrize("kind", ["diagonal", "symmetric", "full"])
    def test_bit_identical_to_symmetrize_reference(self, rng, p, kind):
        w = spd_inverse(cholesky(random_spd(rng, p)))
        s = support_of_kind(rng, p, kind)
        x_sym = pair_symmetric(rng, s)
        for x in (x_sym, on_support(s, rng.standard_normal((p, p)))):
            m = kron_restricted(w, s)(x)
            assert np.array_equal(m, reference_kron_restricted(w, s)(x))
        assert_roundoff_symmetric(kron_restricted(w, s)(x_sym), np.float64)

    @pytest.mark.parametrize("p", [1, 2, 7, 100])
    @pytest.mark.parametrize("kind", ["diagonal", "symmetric", "full"])
    def test_equals_explicit_block(self, rng, p, kind):
        # The masked product is the explicit block (W kron W)[S, S] applied
        # to the support entries, exactly zero off the support and
        # symmetric to round-off.
        w = spd_inverse(cholesky(random_spd(rng, p)))
        s = support_of_kind(rng, p, kind)
        x = pair_symmetric(rng, s)
        m = kron_restricted(w, s)(x)
        assert_rel_close(m, restricted_product(w, s, x))
        assert np.all(m[~s.mask] == 0.0)
        assert_roundoff_symmetric(m, np.float64)

    @pytest.mark.parametrize("p", [2, 7, 100])
    @pytest.mark.parametrize("kind", ["diagonal", "symmetric", "full"])
    def test_float32_matrix_gives_float32_products(self, rng, p, kind):
        # A float32 w takes float32 matrix products and returns float64,
        # zero off the support and, for a pair-symmetric x, symmetric to
        # float32 round-off, within float32 round-off of the float64
        # product but not equal to it (a silent upcast to float64 would be).
        w = spd_inverse(cholesky(random_spd(rng, p)))
        w32 = w.astype(np.float32)
        s = support_of_kind(rng, p, kind)
        x_sym = pair_symmetric(rng, s)
        for x in (x_sym, on_support(s, rng.standard_normal((p, p)))):
            m = kron_restricted(w32, s)(x)
            exact = kron_restricted(w, s)(x)
            assert m.dtype == np.float64
            if x is x_sym:
                assert_roundoff_symmetric(m, np.float32)
            assert np.all(m[~s.mask] == 0.0)
            assert_rel_close(m, exact, rtol=1e-6)
            assert not np.array_equal(m, exact)
            assert np.array_equal(m, reference_kron_restricted(w32, s)(x))

    @pytest.mark.parametrize("p", [1, 2, 7, 100])
    @pytest.mark.parametrize("kind", ["diagonal", "symmetric", "full"])
    def test_float32_vector_gives_float32_output(self, rng, p, kind):
        # The output takes x's dtype: a float32 x comes back float32, zero
        # off the support and, for a pair-symmetric x, symmetric to float32
        # round-off, within float32 round-off of the float64 product, for
        # either dtype of w; with a float32 w it is the float32 reference,
        # bit for bit.
        w = spd_inverse(cholesky(random_spd(rng, p)))
        w32 = w.astype(np.float32)
        s = support_of_kind(rng, p, kind)
        x_sym = pair_symmetric(rng, s)
        for x in (x_sym, on_support(s, rng.standard_normal((p, p)))):
            x32 = x.astype(np.float32)
            exact = kron_restricted(w, s)(x32.astype(float))
            for matrix in (w, w32):
                m = kron_restricted(matrix, s)(x32)
                assert m.dtype == np.float32
                if x is x_sym:
                    assert_roundoff_symmetric(m, np.float32)
                assert np.all(m[~s.mask] == 0.0)
                assert_rel_close(m, exact, rtol=1e-6)
            assert np.array_equal(kron_restricted(w32, s)(x32),
                                  reference_kron_restricted(w32, s)(x32))

    def test_rejects_mismatched_support(self, rng):
        with pytest.raises(ValueError):
            kron_restricted(random_spd(rng, 3),
                            SupportSet.from_matrix_mask(np.ones((2, 2), dtype=bool)))


def matrix_operator(m: np.ndarray):
    return lambda v: m @ v


def identity(v: np.ndarray) -> np.ndarray:
    """The trivial preconditioner: plain conjugate gradients."""
    return v


class TestSolveSymmetric:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        x = solve_symmetric(matrix_operator(np.eye(3)), b, identity, dim=b.size)
        np.testing.assert_array_equal(x, b)

    def test_diagonal(self):
        x = solve_symmetric(matrix_operator(np.diag([2.0, 5.0])), np.array([4.0, 10.0]),
                            identity, dim=2)
        np.testing.assert_allclose(x, [2.0, 2.0])

    def test_residual(self, rng):
        m = random_spd(rng, 6)
        b = rng.standard_normal(6)
        x = solve_symmetric(matrix_operator(m), b, identity, dim=b.size)
        assert np.max(np.abs(m @ x - b)) <= 1e-10

    def test_zero_rhs(self, rng):
        x = solve_symmetric(matrix_operator(random_spd(rng, 4)), np.zeros(4), identity,
                            dim=4)
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_restricted_kron_system(self, rng):
        p = 5
        w = spd_inverse(cholesky(random_spd(rng, p)))
        s = symmetric_support(rng, p)
        b = pair_symmetric(rng, s)
        x = solve_symmetric(kron_restricted(w, s), b, identity, dim=len(s))
        assert np.linalg.norm(restricted_product(w, s, x) - b) <= 1e-11 * np.linalg.norm(b)

    @pytest.mark.parametrize("kind", ["diagonal", "symmetric", "full"])
    def test_solution_takes_the_dtype_of_the_rhs(self, rng, kind):
        # A float32 rhs runs the whole solve in float32, with the arithmetic
        # of the reference solver, bit for bit; at rtol 1e-10 its true
        # float64 residual sits at float32 round-off.  A float64 rhs gives
        # a float64 solution.
        p = 30
        theta = random_spd(rng, p)
        w = spd_inverse(cholesky(theta))
        s = support_of_kind(rng, p, kind)
        b = pair_symmetric(rng, s)
        k32 = kron_restricted(w.astype(np.float32), s)
        m32 = kron_restricted(theta.astype(np.float32), s)
        x = solve_symmetric(k32, b.astype(np.float32), m32, rtol=1e-10, dim=len(s))
        assert x.dtype == np.float32
        assert np.array_equal(
            x, reference_solve_symmetric(k32, b.astype(np.float32), m32, 1e-10, dim=len(s)))
        residual = b - kron_restricted(w, s)(x.astype(float))
        assert np.linalg.norm(residual) <= 1e-6 * np.linalg.norm(b)
        assert solve_symmetric(k32, b, m32, dim=len(s)).dtype == np.float64

    def test_singular_raises(self):
        # rank one: the direction (1, -1, 0) has zero curvature
        m = np.ones((3, 3))
        with pytest.raises(SingularSystem):
            solve_symmetric(matrix_operator(m), np.array([1.0, -1.0, 0.0]), identity, dim=3)

    def test_budget_exhausted_raises(self, rng):
        # condition number 1e10: in floating point, len(rhs) steps fall short
        n = 20
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * np.logspace(0, 10, n)) @ q.T
        with pytest.raises(SingularSystem):
            solve_symmetric(matrix_operator(m), np.ones(n), identity, dim=n)

    def test_indefinite_raises(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularSystem):
            solve_symmetric(matrix_operator(m), np.array([1.0, 2.0]), identity, dim=2)


def counting(apply):
    """Wrap an operator so the test can read how many products it took."""
    calls = {"n": 0}

    def counted(v):
        calls["n"] += 1
        return apply(v)

    return counted, calls


class TestPreconditionedSolve:
    # K = (W kron W)_SS with W = theta^{-1}; (theta kron theta)_SS, a block
    # of the exact inverse of the unrestricted matrix, preconditions it.
    P = 20

    def _system(self, rng, which):
        theta = random_spd(rng, self.P)
        w = spd_inverse(cholesky(theta))
        if which == "diagonal":
            s = SupportSet.from_matrix_mask(np.eye(self.P, dtype=bool))
        elif which == "partial":
            s = symmetric_support(rng, self.P)
        else:
            s = SupportSet.from_matrix_mask(np.ones((self.P, self.P), dtype=bool))
        return theta, w, s, pair_symmetric(rng, s)

    @pytest.mark.parametrize("which", ["diagonal", "partial", "full"])
    def test_matches_plain_cg_with_fewer_products(self, rng, which):
        for _ in range(3):
            theta, w, s, b = self._system(rng, which)
            plain_op, plain = counting(kron_restricted(w, s))
            pre_op, pre = counting(kron_restricted(w, s))
            x = solve_symmetric(plain_op, b, identity, dim=len(s))
            y = solve_symmetric(pre_op, b, precondition=kron_restricted(theta, s),
                                dim=len(s))
            assert np.linalg.norm(y - x) <= 1e-9 * np.linalg.norm(x)
            assert pre["n"] < plain["n"]

    def test_loose_rtol_honoured(self, rng):
        theta, w, s, b = self._system(rng, "full")
        k = kron_restricted(w, s)
        for rtol in (0.5, 0.1, 1e-3):
            for pre in (identity, kron_restricted(theta, s)):
                x = solve_symmetric(k, b, precondition=pre, rtol=rtol, dim=len(s))
                assert np.linalg.norm(b - k(x)) <= rtol * np.linalg.norm(b)

    def test_loose_rtol_takes_fewer_products(self, rng):
        theta, w, s, b = self._system(rng, "full")
        loose_op, loose = counting(kron_restricted(w, s))
        tight_op, tight = counting(kron_restricted(w, s))
        solve_symmetric(tight_op, b, identity, dim=len(s))
        solve_symmetric(loose_op, b, identity, rtol=0.1, dim=len(s))
        assert loose["n"] < tight["n"]

    @pytest.mark.parametrize("which", ["diagonal", "partial", "full"])
    @pytest.mark.parametrize("rtol", [CG_RTOL, 1e-3])
    def test_one_product_with_each_operator_per_iteration(self, rng, which, rtol):
        # k iterations take k products with K and k with M: the residual
        # that meets the tolerance is not preconditioned.
        theta, w, s, b = self._system(rng, which)
        k_op, k = counting(kron_restricted(w, s))
        m_op, m = counting(kron_restricted(theta, s))
        solve_symmetric(k_op, b, m_op, rtol=rtol, dim=len(s))
        assert k["n"] > 0
        assert m["n"] == k["n"]

    def test_zero_rhs_takes_no_products(self, rng):
        theta, w, s, _ = self._system(rng, "partial")
        k_op, k = counting(kron_restricted(w, s))
        m_op, m = counting(kron_restricted(theta, s))
        x = solve_symmetric(k_op, np.zeros((self.P, self.P)), m_op, dim=len(s))
        np.testing.assert_array_equal(x, np.zeros((self.P, self.P)))
        assert k["n"] == m["n"] == 0

    def test_indefinite_system_raises(self):
        m = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(SingularSystem):
            solve_symmetric(matrix_operator(m), np.array([1.0, 2.0]),
                            precondition=matrix_operator(np.diag([1.0, 0.5])), dim=2)

    def test_indefinite_preconditioner_raises(self):
        m = np.diag([1.0, 2.0])
        with pytest.raises(SingularSystem):
            solve_symmetric(matrix_operator(m), np.array([1.0, 0.0]),
                            precondition=matrix_operator(np.diag([-1.0, 1.0])), dim=2)

    def test_budget_exhausted_raises(self, rng):
        # condition number 1e10 and a preconditioner that only rescales it
        n = 20
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * np.logspace(0, 10, n)) @ q.T
        with pytest.raises(SingularSystem, match="after 20 iterations"):
            solve_symmetric(matrix_operator(m), np.ones(n),
                            precondition=lambda v: 2.0 * v, dim=n)


class TestMatrixRightHandSides:
    # The restricted system's vectors are p x p matrices zero off a support
    # S; its dimension, and so the iteration budget, is |S|, which is
    # neither len(rhs) = p nor rhs.size = p**2.
    def test_dim_is_a_required_keyword(self, rng):
        s = symmetric_support(rng, 4)
        k, b = kron_restricted(random_spd(rng, 4), s), pair_symmetric(rng, s)
        with pytest.raises(TypeError):
            solve_symmetric(k, b, identity)
        with pytest.raises(TypeError):
            solve_symmetric(k, b, identity, CG_RTOL, len(s))

    def test_singular_operator_raises_within_support_size(self, rng):
        # K acts on the off-diagonal support entries only and maps the
        # diagonal ones to zero: positive semidefinite, not definite, and
        # the diagonal part of the rhs is out of its range.
        p = 12
        s = symmetric_support(rng, p)
        off = s.mask & ~np.eye(p, dtype=bool)
        k = kron_restricted(spd_inverse(cholesky(random_spd(rng, p))),
                            SupportSet.from_matrix_mask(off))
        op, products = counting(lambda x: k(np.where(off, x, 0.0)))
        assert p < len(s) < p * p
        with pytest.raises(SingularSystem, match=f"after {len(s)} iterations"):
            solve_symmetric(op, pair_symmetric(rng, s), identity, dim=len(s))
        assert products["n"] == len(s)

    def test_vector_callers_unchanged(self, rng):
        # Bit for bit the same solutions, products and failures as the
        # reference solver on vectors, with and without a preconditioner.
        n = 30
        for rtol in (CG_RTOL, 1e-3):
            m = random_spd(rng, n)
            pre = np.diag(1.0 / np.diagonal(m))
            b = rng.standard_normal(n)
            for precondition in (identity, matrix_operator(pre)):
                got_op, got = counting(matrix_operator(m))
                ref_op, ref = counting(matrix_operator(m))
                x = solve_symmetric(got_op, b, precondition, rtol=rtol, dim=b.size)
                assert np.array_equal(
                    x, reference_solve_symmetric(ref_op, b, precondition, rtol, dim=b.size))
                assert got["n"] == ref["n"] > 0
        q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
        failing = [
            (matrix_operator((q * np.logspace(0, 10, 20)) @ q.T), np.ones(20)),
            (matrix_operator(np.diag([1.0, -1.0])), np.array([1.0, 2.0])),
            (matrix_operator(np.ones((3, 3))), np.array([1.0, -1.0, 0.0])),
        ]
        for op, b in failing:
            with pytest.raises(SingularSystem) as got:
                solve_symmetric(op, b, identity, dim=b.size)
            with pytest.raises(SingularSystem) as ref:
                reference_solve_symmetric(op, b, identity, dim=b.size)
            assert str(got.value) == str(ref.value)


def test_symmetrize(rng):
    a = rng.standard_normal((4, 4))
    s = symmetrize(a)
    np.testing.assert_array_equal(s, s.T)
    np.testing.assert_allclose(s, (a + a.T) / 2)


def test_symmetrize_rejects_non_square():
    # (a + a.T) / 2 would broadcast a row or a column to a square matrix.
    for a in (np.ones((1, 5)), np.ones((5, 1)), np.ones((2, 3))):
        with pytest.raises(ValueError, match="square 2-d"):
            symmetrize(a)
