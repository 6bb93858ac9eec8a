import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp.errors import EmptySample, NotHermitian, RankDeficient
from aircomp.numerics import (
    Rng,
    hermitian_eigenvalues,
    ks_distance,
    pseudo_inverse,
    qr_orthonormal,
    regularized_lower_gamma,
    sample_complex_gaussian,
)


def random_complex(rng, rows, cols):
    return sample_complex_gaussian(rng, rows * cols, 1.0).reshape(rows, cols)


class TestRng:
    def test_same_key_replays(self):
        a = Rng(123, 4).gen.standard_normal(16)
        b = Rng(123, 4).gen.standard_normal(16)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = Rng(123, 0).gen.standard_normal(16)
        b = Rng(123, 1).gen.standard_normal(16)
        assert not np.array_equal(a, b)

    def test_derive_rebases_on_master_seed(self):
        child = Rng(9, 5).derive(17)
        assert child.master_seed == 9
        assert child.stream == 17
        direct = Rng(9, 17).gen.standard_normal(4)
        assert np.array_equal(child.gen.standard_normal(4), direct)

    def test_algorithm_identifier(self):
        assert Rng.algorithm == "philox4x64-10"


class TestQrOrthonormal:
    def test_already_orthonormal_column(self):
        q = qr_orthonormal([[1.0], [0.0]])
        assert np.allclose(q, [[1.0], [0.0]], atol=1e-15)

    def test_single_column_normalized(self):
        # norm of (3, 4) is 5
        q = qr_orthonormal([[3.0], [4.0]])
        assert np.allclose(q, [[0.6], [0.8]], atol=1e-15)

    def test_random_complex_orthonormality(self):
        a = random_complex(Rng(0), 4, 2)
        q = qr_orthonormal(a)
        assert q.shape == a.shape
        assert np.max(np.abs(q.conj().T @ q - np.eye(2))) < 1e-10

    def test_preserves_column_span(self):
        a = random_complex(Rng(3), 6, 3)
        q = qr_orthonormal(a)
        # projecting a onto span(q) must reproduce a
        assert np.allclose(q @ (q.conj().T @ a), a, atol=1e-10)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            qr_orthonormal([[1.0, 1.0], [1.0, 1.0]])

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficient):
            qr_orthonormal([[1.0, 0.0]])

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cols=st.integers(1, 6),
        extra=st.integers(0, 6),
    )
    def test_property_orthonormal_columns(self, seed, cols, extra):
        a = random_complex(Rng(seed), cols + extra, cols)
        q = qr_orthonormal(a)
        assert np.max(np.abs(q.conj().T @ q - np.eye(cols))) < 1e-10


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_diagonal(self):
        assert np.allclose(hermitian_eigenvalues(np.diag([2.0, 3.0])), [2.0, 3.0])

    def test_two_by_two_by_characteristic_polynomial(self):
        # det([[2-x, 1], [1, 2-x]]) = 0  =>  x in {1, 3}
        vals = hermitian_eigenvalues([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_sum_matches_trace(self):
        a = random_complex(Rng(5), 4, 4)
        m = a + a.conj().T
        vals = hermitian_eigenvalues(m)
        assert np.isclose(vals.sum(), np.trace(m).real, rtol=1e-8)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues([[1.0, 0.0]])

    def test_ascending_order(self):
        a = random_complex(Rng(6), 5, 5)
        vals = hermitian_eigenvalues(a @ a.conj().T)
        assert np.all(np.diff(vals) >= 0)


class TestPseudoInverse:
    def test_identity(self):
        assert np.allclose(pseudo_inverse(np.eye(3)), np.eye(3))

    def test_orthonormal_columns_give_hermitian_transpose(self):
        q = qr_orthonormal(random_complex(Rng(7), 5, 2))
        assert np.max(np.abs(pseudo_inverse(q) - q.conj().T)) < 1e-10

    def test_single_column(self):
        # (m^H m)^-1 m^H = (1/4) * [2, 0] = [0.5, 0]
        assert np.allclose(pseudo_inverse([[2.0], [0.0]]), [[0.5, 0.0]])

    def test_left_inverse_property(self):
        m = random_complex(Rng(8), 6, 3)
        assert np.max(np.abs(pseudo_inverse(m) @ m - np.eye(3))) < 1e-8

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            pseudo_inverse([[1.0, 1.0], [1.0, 1.0]])


class TestSampleComplexGaussian:
    def test_power_law_of_large_numbers(self):
        z = sample_complex_gaussian(Rng(10), 10**6, 1.0)
        assert 0.997 <= np.mean(np.abs(z) ** 2) <= 1.003

    def test_scales_with_variance(self):
        z = sample_complex_gaussian(Rng(11), 10**5, 4.0)
        mean_power = np.mean(np.abs(z) ** 2)
        # 3 standard errors: sd of |z|^2 is 4, so 3 * 4 / sqrt(n)
        assert abs(mean_power - 4.0) <= 3 * 4.0 / math.sqrt(10**5)

    def test_real_and_imaginary_parts_split_variance(self):
        z = sample_complex_gaussian(Rng(12), 10**5, 2.0)
        assert np.var(z.real) == pytest.approx(1.0, rel=0.05)
        assert np.var(z.imag) == pytest.approx(1.0, rel=0.05)

    def test_single_draw_shape(self):
        z = sample_complex_gaussian(Rng(13), 1, 1.0)
        assert z.shape == (1,)
        assert np.isfinite(z).all()

    def test_determinism(self):
        a = sample_complex_gaussian(Rng(14), 64, 0.5)
        b = sample_complex_gaussian(Rng(14), 64, 0.5)
        assert np.array_equal(a, b)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(Rng(15), 4, 0.0)


class TestRegularizedLowerGamma:
    def test_exponential_special_case(self):
        # P(1, x) = 1 - exp(-x), so P(1, ln 2) = 1/2
        assert regularized_lower_gamma(1.0, math.log(2.0)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_zero_argument(self):
        assert regularized_lower_gamma(3.7, 0.0) == 0.0

    def test_integer_shape_closed_form(self):
        # P(2, x) = 1 - (1 + x) e^-x; at x = 2 this is 1 - 3 e^-2
        assert regularized_lower_gamma(2.0, 2.0) == pytest.approx(
            0.5939941502901619, abs=1e-12
        )

    def test_against_scipy(self):
        for shape in (0.3, 1.0, 2.5, 5.0, 20.0, 80.0):
            for x in (0.01, 0.5, 1.0, 3.0, 10.0, 40.0, 200.0):
                assert regularized_lower_gamma(shape, x) == pytest.approx(
                    scipy.special.gammainc(shape, x), abs=1e-10
                )

    @pytest.mark.parametrize(
        "shape, expected", [(5000.0, 0.50188), (50000.0, 0.50059)]
    )
    def test_large_shape_near_mode(self, shape, expected):
        # the series needs O(sqrt(shape)) terms at x = shape
        value = regularized_lower_gamma(shape, shape)
        assert value == pytest.approx(scipy.special.gammainc(shape, shape), abs=1e-9)
        assert value == pytest.approx(expected, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.floats(1.0, 1e5),
        offset=st.floats(-5.0, 5.0),
    )
    def test_property_matches_scipy_near_mode(self, shape, offset):
        x = max(0.0, shape + offset * math.sqrt(shape))
        assert regularized_lower_gamma(shape, x) == pytest.approx(
            scipy.special.gammainc(shape, x), abs=1e-9
        )

    def test_limits(self):
        assert regularized_lower_gamma(5.0, 1e4) == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(1.0, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(shape=st.floats(0.05, 50.0), scale=st.floats(0.1, 10.0))
    def test_property_monotone_in_x(self, shape, scale):
        xs = scale * np.linspace(0.0, 8.0, 33)
        values = [regularized_lower_gamma(shape, x) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestKsDistance:
    def test_exact_quantiles(self):
        n = 100
        probs = (np.arange(1, n + 1) - 0.5) / n
        samples = -np.log1p(-probs)  # Exp(1) quantile function
        cdf = lambda x: 1.0 - math.exp(-x)
        assert ks_distance(samples, cdf) == pytest.approx(0.5 / n, abs=1e-12)

    def test_single_sample_at_median(self):
        assert ks_distance([0.0], lambda x: 0.5) == pytest.approx(0.5)

    def test_true_distribution_below_critical(self):
        n = 10**4
        samples = np.sort(Rng(16).gen.exponential(size=n))
        cdf = lambda x: 1.0 - math.exp(-x)
        assert ks_distance(samples, cdf) < 1.63 / math.sqrt(n)

    def test_matches_scipy(self):
        samples = np.sort(Rng(17).gen.exponential(size=500))
        ours = ks_distance(samples, lambda x: 1.0 - math.exp(-x))
        theirs = scipy.stats.kstest(samples, scipy.stats.expon.cdf).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_distance([], lambda x: 0.5)

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            ks_distance([1.0, 0.0], lambda x: 0.5)
