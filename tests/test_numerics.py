import itertools
import math
import pickle
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp import analysis, channel, coding
from aircomp.errors import EmptySample, InvalidShape, RankDeficient
from aircomp.numerics import (
    Rng,
    finite_float,
    finite_floats,
    ks_distance,
    ks_two_sample,
    lexicographic_subsets,
    qr_orthonormal,
    regularized_lower_gamma,
    sample_complex_gaussian,
    sample_subsets,
)

U64 = (1 << 64) - 1

# Purpose-tagged stream keys as the trial harness builds them:
# (purpose << 48) + index.
TAGGED_STREAMS = [0, 1, (1 << 48) + 7, (2 << 48) + 12345, (5 << 48)]


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

    def test_algorithm_identifier(self):
        assert Rng.algorithm == "philox4x64-10"

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
    @pytest.mark.parametrize("stream", TAGGED_STREAMS)
    def test_draws_equal_philox_keyed_directly(self, seed, stream):
        key = np.array([seed & U64, stream & U64], dtype=np.uint64)
        twin = np.random.Generator(np.random.Philox(key=key))
        gen = Rng(seed, stream).gen
        assert np.array_equal(
            gen.standard_normal(64).view(np.uint64),
            twin.standard_normal(64).view(np.uint64),
        )
        assert np.array_equal(
            gen.bit_generator.random_raw(8), twin.bit_generator.random_raw(8)
        )

    @pytest.mark.parametrize("seed, stream", [(0, 0), (-1, (5 << 48) + 3)])
    def test_state_equals_philox_keyed_directly(self, seed, stream):
        # the constant zero-counter array sets the same state as counter 0
        key = np.array([seed & U64, stream & U64], dtype=np.uint64)
        ours = Rng(seed, stream).gen.bit_generator.state
        twin = np.random.Philox(key=key).state
        assert ours["state"]["counter"].tolist() == [0, 0, 0, 0]
        for part in ("counter", "key"):
            assert np.array_equal(ours["state"][part], twin["state"][part])
        assert np.array_equal(ours["buffer"], twin["buffer"])
        assert (ours["buffer_pos"], ours["has_uint32"], ours["uinteger"]) == (
            twin["buffer_pos"], twin["has_uint32"], twin["uinteger"]
        )

    def test_pickled_stream_resumes(self):
        gen = Rng(3, 4).gen
        gen.standard_normal(5)
        clone = pickle.loads(pickle.dumps(gen))
        assert np.array_equal(clone.standard_normal(8), gen.standard_normal(8))


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

    def test_zero_matrix_rejected_without_warning(self):
        # sv[0] == 0: the message must not format the ratio 0 / 0
        with warnings.catch_warnings(), pytest.raises(RankDeficient):
            warnings.simplefilter("error")
            qr_orthonormal(np.zeros((3, 2)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(RankDeficient):
            qr_orthonormal([[1.0, 0.0]])

    def test_vector_rejected(self):
        with pytest.raises(ValueError, match="2-D matrix"):
            qr_orthonormal([1.0, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            qr_orthonormal([[1.0], [math.nan]])

    def test_applies_the_one_rank_rule(self):
        # singular values 1, 1e-5 and 1e-10: a ratio of 1e-10 fails
        # sigma_min > RANK_TOLERANCE * sigma_max, as EncodingMatrix's check does
        u, _ = np.linalg.qr(random_complex(Rng(5), 6, 3))
        v, _ = np.linalg.qr(random_complex(Rng(6), 3, 3))
        a = (u * [1.0, 1e-5, 1e-10]) @ v.conj().T
        sv = np.linalg.svd(a, compute_uv=False)
        assert sv[-1] / sv[0] == pytest.approx(1e-10, rel=1e-3)
        with pytest.raises(RankDeficient):
            coding.EncodingMatrix(a).require_full_rank()
        with pytest.raises(RankDeficient):
            qr_orthonormal(a)

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

    @pytest.mark.parametrize("n", [1, 10, 4096])
    @pytest.mark.parametrize("variance", [1.0, 0.3, 7.5])
    def test_bitwise_equal_to_scaled_sum_of_parts(self, n, variance):
        z = Rng(14, 2).gen.standard_normal((2, n))
        expected = math.sqrt(variance / 2.0) * (z[0] + 1j * z[1])
        got = sample_complex_gaussian(Rng(14, 2), n, variance)
        assert got.dtype == np.complex128 and got.shape == (n,)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_determinism(self):
        a = sample_complex_gaussian(Rng(14), 64, 0.5)
        b = sample_complex_gaussian(Rng(14), 64, 0.5)
        assert np.array_equal(a, b)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            sample_complex_gaussian(Rng(15), 4, 0.0)

    def test_zero_draws_rejected(self):
        with pytest.raises(ValueError, match="at least one draw"):
            sample_complex_gaussian(Rng(15), 0, 1.0)


class TestSampleSubsets:
    def test_uniform_over_six_choose_three(self):
        # Pearson chi-square over all C(6, 3) = 20 subsets at 10000 expected
        # draws each, gated at its upper 1e-6 point with 19 degrees of
        # freedom: a uniform sampler fails one seed in about a million
        n = 200_000
        rows = sample_subsets(Rng(16), n, 6, 3)
        masks = (1 << rows).sum(axis=1)
        cells = {sum(1 << i for i in c) for c in itertools.combinations(range(6), 3)}
        keys, counts = np.unique(masks, return_counts=True)
        assert set(keys.tolist()) == cells
        expected = n / len(cells)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 < scipy.stats.chi2.isf(1e-6, len(cells) - 1)

    @pytest.mark.parametrize(
        "n, size, k", [(500, 10, 5), (200, 64, 32), (300, 7, 3), (50, 9, 1), (50, 6, 6)]
    )
    def test_rows_sorted_distinct_and_in_range(self, n, size, k):
        rows = sample_subsets(Rng(17), n, size, k)
        assert rows.shape == (n, k)
        assert np.issubdtype(rows.dtype, np.integer)
        # strictly increasing: sorted, with no entry repeated
        assert (np.diff(rows, axis=1) > 0).all()
        assert rows.min() >= 0 and rows.max() < size

    @pytest.mark.parametrize("size, k", [(10, 5), (64, 32), (7, 3)])
    @pytest.mark.parametrize("split", [1, 3, 7])
    def test_rows_do_not_depend_on_the_split(self, size, k, split):
        whole = sample_subsets(Rng(18, 5), 40, size, k)
        rng = Rng(18, 5)
        parts = [sample_subsets(rng, min(split, 40 - a), size, k)
                 for a in range(0, 40, split)]
        assert np.array_equal(np.concatenate(parts), whole)

    @pytest.mark.parametrize("k", [-1, 7])
    def test_subset_size_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match="k <= size"):
            sample_subsets(Rng(19), 4, 6, k)


def unrank_one_at_a_time(rank, size, k):
    """The subset of lexicographic ``rank``, one entry at a time, in Python ints."""
    row, low = [], 0
    for j in range(k):
        c = low
        while rank >= (block := math.comb(size - 1 - c, k - 1 - j)):
            rank -= block
            c += 1
        row.append(c)
        low = c + 1
    return row


class TestLexicographicSubsets:
    @pytest.mark.parametrize(
        "size, k",
        # l = 1, l = l_tilde, the benchmark's 16x8, and 70x68, whose binomial
        # tables hold C(69, 35) ~ 5.6e19, beyond int64, clipped at C(70, 68)
        [(9, 1), (1, 1), (6, 6), (16, 8), (70, 68), (12, 0)],
    )
    def test_matches_itertools_combinations(self, size, k):
        total = math.comb(size, k)
        rows = lexicographic_subsets(size, k)(0, total)
        expected = np.array(list(itertools.combinations(range(size), k)))
        assert rows.dtype == np.intp and rows.shape == (total, k)
        assert np.array_equal(rows, expected.reshape(total, k))

    @pytest.mark.parametrize("size, k", [(16, 8), (70, 68), (447, 2), (11, 4)])
    @pytest.mark.parametrize("split", [1, 7, 83, 498])
    def test_rows_do_not_depend_on_the_split(self, size, k, split):
        # pieces of any size, their boundaries falling anywhere: every row
        # depends on its rank alone
        subsets = lexicographic_subsets(size, k)
        total = min(math.comb(size, k), 2000)
        parts = [subsets(a, min(split, total - a)) for a in range(0, total, split)]
        assert np.array_equal(np.concatenate(parts), subsets(0, total))

    def test_far_ranks_match_python_ints(self):
        # C(64, 32) ~ 1.8e18 subsets: ranks at both ends and across the range
        size, k = 64, 32
        total = math.comb(size, k)
        subsets = lexicographic_subsets(size, k)
        starts = [0, total // 3 - 2, total // 2, total - 5]
        for start in starts:
            rows = subsets(start, 5)
            expected = [unrank_one_at_a_time(start + i, size, k) for i in range(5)]
            assert rows.tolist() == expected
        assert subsets(total - 1, 1).tolist() == [list(range(size - k, size))]

    @pytest.mark.parametrize("start, n", [(-1, 2), (0, 21), (20, 1), (19, 2)])
    def test_ranks_out_of_range_rejected(self, start, n):
        with pytest.raises(ValueError, match="outside 0 to 19"):
            lexicographic_subsets(6, 3)(start, n)

    @pytest.mark.parametrize("k", [-1, 7])
    def test_subset_size_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match="k <= size"):
            lexicographic_subsets(6, k)

    def test_more_subsets_than_int64_ranks_rejected(self):
        # C(67, 33) ~ 1.4e19 is the first C(n, n // 2) beyond int64
        lexicographic_subsets(66, 33)
        with pytest.raises(ValueError, match="too many to rank"):
            lexicographic_subsets(67, 33)


class TestFiniteFloats:
    """finite_floats is finite_float applied to every entry, value for value
    and error for error, whichever path it takes."""

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [1.5, -0.0, 5e-324, -1.7976931348623157e308],
            [1, -2],
            [1.5, 2],
            [10**300, 0.0],
            (0.5, 1.5),
        ],
    )
    def test_values_match_the_per_entry_rule(self, values):
        expected = np.array([finite_float(v, "re") for v in values])
        got = finite_floats(values, "re")
        assert got.dtype == expected.dtype == np.float64
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "values, bad",
        [
            ([1.5, math.nan], math.nan),
            ([math.inf, 1.5], math.inf),
            ([1.5, -math.inf, math.nan], -math.inf),
            ([1.5, True], True),
            ([False, math.nan], False),
            ([1.5, "1"], "1"),
            ([10**400], 10**400),
            ([1.5, None], None),
        ],
    )
    def test_errors_name_the_first_bad_entry(self, values, bad):
        with pytest.raises(ValueError) as expected:
            finite_float(bad, "re")
        with pytest.raises(ValueError) as got:
            finite_floats(values, "re")
        assert str(got.value) == str(expected.value)


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
        assert value == pytest.approx(scipy.special.gammainc(shape, shape), abs=1e-13)
        assert value == pytest.approx(expected, abs=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.floats(1.0, 1e5),
        offset=st.floats(-5.0, 5.0),
    )
    def test_property_matches_scipy_near_mode(self, shape, offset):
        x = max(0.0, shape + offset * math.sqrt(shape))
        assert regularized_lower_gamma(shape, x) == pytest.approx(
            scipy.special.gammainc(shape, x), abs=1e-13
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

    @pytest.mark.parametrize(
        "shape, x", [(5.0, 4.5e11), (5.0, 1e300), (1000.0, 2e16), (1.0, math.inf)]
    )
    def test_underflowing_upper_tail_is_one(self, shape, x):
        # the continued fraction once ran out of iterations here: its step
        # settled one ulp from 1, which the stopping test never accepts
        assert regularized_lower_gamma(shape, x) == 1.0

    def test_argument_far_below_a_large_shape_is_zero(self):
        # (x - shape) / shape rounds to -1 here, where log1p raised
        assert regularized_lower_gamma(30.0, 7.5e-42) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.integers(1, 1000),
        xs=st.lists(st.floats(0.0, 1e300), max_size=20),
    )
    def test_property_upper_tail_up_to_float_max(self, shape, xs):
        grid = np.geomspace(shape + 1.0, 1e300, 30).tolist()
        xs = sorted(xs + grid) + [math.inf]
        values = [regularized_lower_gamma(float(shape), x) for x in xs]
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

    def test_cdf_receives_floats_with_float64_result(self):
        # the incomplete-gamma CDF on Python floats gives the bits it gives
        # on np.float64 scalars, so the statistic is the float64 one
        samples = np.sort(Rng(18).gen.gamma(5.0, 0.01, size=2000))
        seen = set()

        def cdf(x):
            seen.add(type(x))
            return regularized_lower_gamma(5.0, x / 0.01)

        ours = ks_distance(samples, cdf)
        assert seen == {float}
        f = np.array([regularized_lower_gamma(5.0, x / 0.01) for x in samples])
        steps = np.arange(1, samples.size + 1) / samples.size
        expected = max(
            np.max(steps - f), np.max(f - (steps - 1.0 / samples.size)), 0.0
        )
        assert ours == float(expected)

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_distance([], lambda x: 0.5)

    def test_order_does_not_matter(self):
        samples = Rng(19).gen.gamma(5.0, 0.01, size=2000)
        cdf = lambda x: regularized_lower_gamma(5.0, x / 0.01)
        shuffled = ks_distance(samples, cdf)
        assert shuffled == ks_distance(np.sort(samples), cdf)
        assert shuffled == ks_distance(samples[::-1].tolist(), cdf)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            ks_distance([[0.0, 1.0]], lambda x: 0.5)


class TestKsTwoSample:
    def test_matches_scipy(self):
        a = Rng(24).gen.exponential(size=400)
        b = Rng(25).gen.exponential(size=300)
        ours = ks_two_sample(a, b)
        theirs = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_disjoint_samples(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])


def _precode(p):
    code = coding.construct_repetition(2)
    return channel.encode_and_precode(code, np.ones(2, dtype=complex), 1.0 + 0j, p)


def _decode(p):
    return channel.decode_sum(coding.construct_repetition(2), np.ones(2), p)


def _unit_law_cdf(x):
    return analysis.DistortionLaw(np.ones(2), 1.0).cdf(x)


# (call, the range rule's message): NaN fails every rule written as a
# negated comparison, and so do an infinite shape and power scaling.
NON_NUMBER_INPUTS = {
    "epsilon-rate-bound": (
        lambda: analysis.epsilon_rate_bound(math.nan, 10.0, 1.0, 1.0),
        "epsilon must be positive",
    ),
    "chernoff-tail": (
        lambda: analysis.chernoff_tail(math.nan, 1.0), "shape must be positive"
    ),
    "min-source-length": (
        lambda: analysis.min_source_length(0.2, math.nan), "eta must be positive"
    ),
    "gamma-x-nan": (
        lambda: regularized_lower_gamma(1.0, math.nan), "x must be nonnegative"
    ),
    "gamma-shape-nan": (
        lambda: regularized_lower_gamma(math.nan, 1.0), "shape must be positive"
    ),
    "gamma-shape-inf": (
        lambda: regularized_lower_gamma(math.inf, 1.0), "shape must be positive"
    ),
    "law-cdf": (lambda: _unit_law_cdf(math.nan), "x must be nonnegative"),
    "complex-gaussian": (
        lambda: sample_complex_gaussian(Rng(0), 2, math.nan),
        "variance must be positive",
    ),
    "precode-p-nan": (lambda: _precode(math.nan), "power scaling must be positive"),
    "precode-p-inf": (lambda: _precode(math.inf), "power scaling must be positive"),
    "decode-p-nan": (lambda: _decode(math.nan), "power scaling must be positive"),
    "decode-p-inf": (lambda: _decode(math.inf), "power scaling must be positive"),
    "ks-two-sample-first": (
        lambda: ks_two_sample([0.1, math.nan], [0.1, 0.2]), "must not be NaN"
    ),
    "ks-two-sample-second": (
        lambda: ks_two_sample([0.1, 0.2], [math.nan, 0.1]), "must not be NaN"
    ),
    "ks-distance": (
        lambda: ks_distance([0.1, math.nan], _unit_law_cdf), "must not be NaN"
    ),
}


@pytest.mark.parametrize(
    "call, message", NON_NUMBER_INPUTS.values(), ids=NON_NUMBER_INPUTS.keys()
)
def test_non_numbers_fail_the_range_rules(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_gamma_cdf_at_infinity_is_one():
    assert _unit_law_cdf(math.inf) == 1.0


# A wide code, l_tilde = 4 < l = 5, at every entry point that takes a shape
WIDE_SHAPE_INPUTS = {
    "system-config": lambda: channel.SystemConfig(l=5, l_tilde=4),
    "encoding-matrix": lambda: coding.EncodingMatrix(np.ones((4, 5))),
    "random-orthonormal": lambda: coding.construct_random_orthonormal(4, 5, Rng(0)),
    "optimal-law": lambda: analysis.DistortionLaw.optimal(5, 4, 1.0, 10.0, 1.0),
}


@pytest.mark.parametrize(
    "call", WIDE_SHAPE_INPUTS.values(), ids=WIDE_SHAPE_INPUTS.keys()
)
def test_one_shape_rule(call):
    with pytest.raises(InvalidShape) as info:
        call()
    assert isinstance(info.value, ValueError)
    assert str(info.value) == "need l_tilde >= l >= 1, got (4, 5)"
