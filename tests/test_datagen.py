import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glassotune.datagen import (
    Dataset,
    GroundTruth,
    empirical_covariance,
    load_matrix_csv,
    make_sparse_spd,
    sample_gaussian,
    save_matrix_csv,
    sparse_cholesky_factor,
    split_samples,
)
from glassotune.exceptions import DegenerateSplit, NotPositiveDefinite
from glassotune.linalg import cholesky

# The threshold that reads the off-diagonal nonzero pattern off theta_true.
PATTERN_TOL = 1e-12


def support_mask(truth: GroundTruth) -> np.ndarray:
    """Entry (i, j) is true iff i != j and |theta_true[i, j]| > PATTERN_TOL."""
    theta = truth.theta_true
    return (np.abs(theta) > PATTERN_TOL) & ~np.eye(truth.dim, dtype=bool)


def split_rows(n: int, ratio: float, seed: int):
    """The train and test rows of ``split_samples``, by its documented scheme:
    the first ``floor(n * ratio)`` entries of ``PCG64(seed).permutation(n)``."""
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    n_train = int(np.floor(n * ratio))
    return perm[:n_train], perm[n_train:]


def assert_covariances_of(ds, x, train, test):
    np.testing.assert_array_equal(ds.cov_train, empirical_covariance(x[train]))
    np.testing.assert_array_equal(ds.cov_test, empirical_covariance(x[test]))


class TestGroundTruth:
    def test_mask_excludes_diagonal(self):
        theta = np.array([[2.0, 0.5], [0.5, 1.0]])
        truth = GroundTruth.from_matrix(theta)
        assert support_mask(truth).tolist() == [[False, True], [True, False]]

    def test_diagonal_matrix_has_empty_mask(self):
        truth = GroundTruth.from_matrix(np.diag([1.0, 2.0, 3.0]))
        assert not support_mask(truth).any()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            GroundTruth.from_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_symmetrizes_input(self):
        theta = np.array([[2.0, 0.3], [0.1, 1.0]])
        truth = GroundTruth.from_matrix(theta)
        np.testing.assert_array_equal(truth.theta_true, truth.theta_true.T)
        assert truth.theta_true[0, 1] == pytest.approx(0.2)

    def test_dim(self):
        assert GroundTruth.from_matrix(np.eye(5)).dim == 5

    def test_keeps_the_factor_of_its_spd_check(self):
        truth = GroundTruth.from_matrix(np.array([[2.0, 0.3], [0.1, 1.0]]))
        assert "lower" in vars(truth)  # computed by the check, not on first use
        np.testing.assert_array_equal(truth.lower, cholesky(truth.theta_true))
        assert truth.lower is truth.lower


class TestMakeSparseSpd:
    def test_output_is_spd(self):
        truth = make_sparse_spd(8, 0.3, seed=0)
        np.testing.assert_array_equal(truth.theta_true, truth.theta_true.T)
        assert np.linalg.eigvalsh(truth.theta_true).min() > 0

    def test_deterministic(self):
        a = make_sparse_spd(6, 0.4, seed=11)
        b = make_sparse_spd(6, 0.4, seed=11)
        np.testing.assert_array_equal(a.theta_true, b.theta_true)

    def test_seeds_differ(self):
        a = make_sparse_spd(6, 0.4, seed=1)
        b = make_sparse_spd(6, 0.4, seed=2)
        assert not np.array_equal(a.theta_true, b.theta_true)

    def test_full_density_allowed(self):
        truth = make_sparse_spd(4, 1.0, seed=3)
        # With density 1 every strictly-lower factor entry is nonzero, so the
        # product has a fully dense off-diagonal.
        assert support_mask(truth).sum() == 4 * 3

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            make_sparse_spd(1, 0.5, seed=0)

    def test_rejects_bad_density(self):
        with pytest.raises(ValueError):
            make_sparse_spd(4, 0.0, seed=0)
        with pytest.raises(ValueError):
            make_sparse_spd(4, 1.5, seed=0)

    def test_factor_fill_matches_density(self):
        # Count of nonzero strictly-lower factor entries is Binomial(m, q)
        # with m = p(p-1)/2; a 4-sigma band around the mean is a safe check.
        p, q = 40, 0.2
        rng = np.random.Generator(np.random.PCG64(5))
        factor = sparse_cholesky_factor(p, q, rng)
        count = np.count_nonzero(np.tril(factor, k=-1))
        m = p * (p - 1) // 2
        slack = 4.0 * np.sqrt(m * q * (1 - q))
        assert abs(count - m * q) <= slack

    def test_factor_diagonal_in_range(self):
        rng = np.random.Generator(np.random.PCG64(9))
        factor = sparse_cholesky_factor(10, 0.3, rng)
        d = np.diag(factor)
        assert np.all(d >= 1.0) and np.all(d <= 2.0)
        assert np.count_nonzero(np.triu(factor, k=1)) == 0


class TestSampleGaussian:
    def test_shape(self):
        truth = make_sparse_spd(3, 0.5, seed=0)
        assert sample_gaussian(truth, 7, seed=1).shape == (7, 3)

    def test_deterministic(self):
        truth = make_sparse_spd(3, 0.5, seed=0)
        a = sample_gaussian(truth, 20, seed=4)
        b = sample_gaussian(truth, 20, seed=4)
        np.testing.assert_array_equal(a, b)

    def test_single_sample_allowed(self):
        truth = make_sparse_spd(2, 0.5, seed=0)
        assert sample_gaussian(truth, 1, seed=2).shape == (1, 2)

    def test_rejects_nonpositive_n(self):
        truth = make_sparse_spd(2, 0.5, seed=0)
        with pytest.raises(ValueError):
            sample_gaussian(truth, 0, seed=2)

    def test_covariance_converges_to_inverse_precision(self):
        # Law of large numbers: the empirical second moment of many draws
        # approaches theta_true^{-1}.
        truth = make_sparse_spd(4, 0.5, seed=7)
        x = sample_gaussian(truth, 200000, seed=8)
        cov = empirical_covariance(x)
        target = np.linalg.inv(truth.theta_true)
        err = np.linalg.norm(cov - target) / np.linalg.norm(target)
        assert err < 0.03


class TestEmpiricalCovariance:
    def test_hand_computed(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array([[5.0, 7.0], [7.0, 10.0]])
        np.testing.assert_array_equal(empirical_covariance(x), expected)

    def test_no_centering(self):
        # Constant samples give c c^T, not zero: the model is zero-mean.
        c = np.array([1.0, -2.0])
        x = np.tile(c, (5, 1))
        np.testing.assert_allclose(empirical_covariance(x), np.outer(c, c))

    def test_symmetric_output(self):
        rng = np.random.default_rng(0)
        cov = empirical_covariance(rng.normal(size=(11, 4)))
        np.testing.assert_array_equal(cov, cov.T)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            empirical_covariance(np.ones(3))
        with pytest.raises(ValueError):
            empirical_covariance(np.ones((0, 3)))


class TestSplitSamples:
    def test_floor_rule(self):
        x = np.arange(14.0).reshape(7, 2)
        ds = split_samples(x, 0.5, seed=0)
        train, test = split_rows(7, 0.5, seed=0)
        assert len(train) == 3
        assert len(test) == 4
        assert_covariances_of(ds, x, train, test)

    def test_partition(self):
        x = np.random.default_rng(1).normal(size=(10, 3))
        ds = split_samples(x, 0.6, seed=2)
        train, test = split_rows(10, 0.6, seed=2)
        merged = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(merged, np.arange(10))
        assert_covariances_of(ds, x, train, test)

    def test_covariances_match_partition(self):
        x = np.random.default_rng(3).normal(size=(9, 2))
        ds = split_samples(x, 0.5, seed=4)
        assert_covariances_of(ds, x, *split_rows(9, 0.5, seed=4))

    def test_deterministic(self):
        x = np.random.default_rng(5).normal(size=(8, 2))
        a = split_samples(x, 0.5, seed=6)
        b = split_samples(x, 0.5, seed=6)
        np.testing.assert_array_equal(a.cov_train, b.cov_train)
        np.testing.assert_array_equal(a.cov_test, b.cov_test)

    def test_empty_side_raises(self):
        x = np.ones((3, 2))
        with pytest.raises(DegenerateSplit):
            split_samples(x, 0.2, seed=0)  # floor(0.6) = 0 train samples
        with pytest.raises(DegenerateSplit):
            split_samples(np.ones((1, 2)), 0.5, seed=0)

    def test_rejects_bad_ratio(self):
        x = np.ones((4, 2))
        with pytest.raises(ValueError):
            split_samples(x, 0.0, seed=0)
        with pytest.raises(ValueError):
            split_samples(x, 1.0, seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_partition_invariant_over_seeds(self, seed):
        x = np.arange(21.0).reshape(7, 3)
        ds = split_samples(x, 0.43, seed=seed)
        train, test = split_rows(7, 0.43, seed=seed)
        merged = np.sort(np.concatenate([train, test]))
        np.testing.assert_array_equal(merged, np.arange(7))
        assert_covariances_of(ds, x, train, test)
        assert isinstance(ds, Dataset)


class TestCsvRoundTrip:
    def test_matrix_exact(self, tmp_path):
        a = np.random.default_rng(0).normal(size=(5, 5))
        path = tmp_path / "m.csv"
        save_matrix_csv(a, path)
        np.testing.assert_array_equal(load_matrix_csv(path), a)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (1, 1), (2, 2)])
    def test_shape_round_trip(self, tmp_path, shape):
        a = np.arange(1.0, 1.0 + np.prod(shape)).reshape(shape) / 7.0
        path = tmp_path / "m.csv"
        save_matrix_csv(a, path)
        b = load_matrix_csv(path)
        assert b.shape == shape
        np.testing.assert_array_equal(b, a)

    def test_matrix_scalar(self, tmp_path):
        path = tmp_path / "s.csv"
        save_matrix_csv(np.array([[0.3]]), path)
        b = load_matrix_csv(path)
        assert b.shape == (1, 1)
        assert b[0, 0] == 0.3


class TestGoldenValues:
    """Outputs recorded at fixed seeds, so the benchmark inputs cannot drift.

    Integer and boolean outputs (support pattern, split indices) must match
    exactly; floats to 1e-12 relative, which leaves room for a different
    BLAS summation order but not for a changed draw or formula.
    """

    THETA_5 = [
        [2.64093527557904, -0.619267699975664, 0.0, 0.5000811657747822, 0.0],
        [-0.619267699975664, 3.744631067218738, 0.0, -1.1037026848760334, 0.0],
        [0.0, 0.0, 3.1530596705415497, 0.0, 0.0],
        [0.5000811657747822, -1.1037026848760334, 0.0, 1.8661656897117547, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.690432368419858],
    ]
    MASK_5 = [
        [0, 1, 0, 1, 0],
        [1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 0, 0, 0],
    ]
    SAMPLES_5 = [
        [-0.16177975789204013, 1.1285517996421766, -0.07467222310066046,
         2.4089429321094964, 0.2686530824122682],
        [0.4891674725526391, 0.49732341545108527, 0.9316391102090631,
         0.643492653678767, -1.430101721740052],
        [-0.5947948748595043, 0.484180352470396, -0.022480963318811144,
         0.8754522249569355, -0.624938234087896],
        [-0.29753206630175855, -0.3529750590697789, -0.16320551946691844,
         -0.5625843238297398, -0.7001925848244911],
    ]
    COV_TEST_DIAG_5 = [
        0.2965328796813352, 0.2408805966371448, 0.43422841269143825,
        0.5902496967602952, 1.2178693654743795,
    ]

    @staticmethod
    def assert_rel(got, expected):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_make_sparse_spd(self):
        truth = make_sparse_spd(5, 0.4, seed=7)
        np.testing.assert_array_equal(support_mask(truth), np.array(self.MASK_5, dtype=bool))
        self.assert_rel(truth.theta_true, self.THETA_5)

    def test_sample_gaussian(self):
        truth = make_sparse_spd(5, 0.4, seed=7)
        self.assert_rel(sample_gaussian(truth, 4, seed=8), self.SAMPLES_5)

    def test_split_samples(self):
        x = np.array(self.SAMPLES_5)
        data = split_samples(x, 0.5, seed=9)
        train, test = split_rows(4, 0.5, seed=9)
        np.testing.assert_array_equal(train, [3, 0])
        np.testing.assert_array_equal(test, [2, 1])
        assert_covariances_of(data, x, train, test)
        self.assert_rel(data.cov_train[1, 3], 1.4585975581015038)
        self.assert_rel(np.diagonal(data.cov_test), self.COV_TEST_DIAG_5)

    def test_benchmark_sized_inputs(self):
        # p=100, n=2000, density 0.05, split 0.5 at CLI seed 0: the shape
        # every benchmark workload generates.
        truth = make_sparse_spd(100, 0.05, seed=0)
        flat = np.flatnonzero(support_mask(truth).ravel())
        assert flat.size == 1252
        assert int(flat.sum()) == 6839316
        np.testing.assert_array_equal(flat[:10], [5, 9, 14, 20, 30, 72, 106, 158, 163, 183])
        self.assert_rel(np.trace(truth.theta_true), 262.0659837592069)
        self.assert_rel(np.linalg.norm(truth.theta_true), 28.97868328729225)
        samples = sample_gaussian(truth, 2000, seed=1)
        self.assert_rel(samples.sum(), 327.2598744232457)
        self.assert_rel((samples * samples).sum(), 101064.94221713854)
        data = split_samples(samples, 0.5, seed=2)
        train, test = split_rows(2000, 0.5, seed=2)
        np.testing.assert_array_equal(train[:8], [1843, 273, 150, 461, 1384, 1995, 558, 601])
        assert int(train.sum()) == 1018108
        assert_covariances_of(data, samples, train, test)
        self.assert_rel(np.trace(data.cov_train), 50.54184689671901)
        self.assert_rel(np.trace(data.cov_test), 50.52309532041954)
