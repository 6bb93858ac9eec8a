import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp.analysis import (
    DistortionLaw,
    _tail_exponent,
    chernoff_tail,
    epsilon_rate_bound,
    min_source_length,
    sample_general_mse,
)
from aircomp.numerics import Rng, ks_distance, regularized_lower_gamma

positive = st.floats(1e-3, 1e3)
optimal = DistortionLaw.optimal


def gamma_law(l: int, scale: float) -> DistortionLaw:
    """The Gamma(l, scale) law: a unit spectrum of size l at rho = 1 / (l scale)."""
    return DistortionLaw(np.ones(l), 1.0 / (l * scale))


class TestDistortionLaw:
    def test_moments_of_skewed_spectrum(self):
        # (1/2) * (1/0.5 + 1/1.5) = 4/3 at rho = 1, and 4/30 at rho = 10
        law = DistortionLaw([0.5, 1.5], 10.0)
        assert law.mean == pytest.approx(4.0 / 30.0, rel=1e-15)
        assert law.shape == 2.0
        assert law.scale == law.mean / 2.0
        assert law.variance == law.shape * law.scale**2

    def test_mean_is_stored_at_construction(self):
        law = DistortionLaw(np.array([0.5, 1.5]), 1.0)
        assert "mean" in vars(law) and "variance" in vars(law)
        with pytest.raises(AttributeError):
            law.mean = 1.0

    def test_cdf_is_mean_matched_gamma(self):
        law = DistortionLaw([0.5, 1.5], 2.0)
        for x in (0.1, 0.5, 2.0):
            assert law.cdf(x) == regularized_lower_gamma(2.0, x / law.scale)

    def test_cdf_domain(self):
        with pytest.raises(ValueError):
            gamma_law(2, 1.0).cdf(-1.0)

    def test_optimal_is_unit_spectrum_at_effective_snr(self):
        law = optimal(5, 10, 2.0, 10.0, 0.5)
        assert law.spectrum.tolist() == [1.0] * 5
        assert law.rho == 10.0 * 0.5 / (0.5 * 2.0)

    @pytest.mark.parametrize(
        "spectrum", [[], [[1.0]], [1.0, -1.0], [1.0, float("nan")]]
    )
    def test_spectrum_domain(self, spectrum):
        with pytest.raises(ValueError):
            DistortionLaw(spectrum, 1.0)


class TestGammaOpt:
    def test_direct_evaluation(self):
        assert optimal(5, 10, 1.0, 10.0, 1.0).mean == pytest.approx(0.05)

    def test_uncoded_rate_one(self):
        for rho in (1.0, 10.0, 100.0):
            assert optimal(5, 5, 1.0, rho, 1.0).mean == pytest.approx(1.0 / rho)

    def test_linear_in_rate(self):
        assert optimal(5, 20, 1.0, 10.0, 1.0).mean == pytest.approx(
            0.5 * optimal(5, 10, 1.0, 10.0, 1.0).mean
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal(3, 2, 1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            optimal(5, 10, 1.0, 0.0, 1.0)


class TestOptimalMseGamma:
    def test_reference_point(self):
        params = optimal(5, 10, 1.0, 10.0, 1.0)
        assert params.shape == 5
        assert params.scale == pytest.approx(0.01)
        assert params.mean == pytest.approx(0.05)
        # rate * p_w / (rho_x * min_gain)
        assert params.mean == pytest.approx(0.5 * 1.0 / (10.0 * 1.0))

    def test_variance(self):
        params = optimal(5, 10, 1.0, 10.0, 1.0)
        assert params.variance == pytest.approx(5e-4)

    def test_blocklength_scaling(self):
        base = optimal(5, 10, 1.0, 10.0, 1.0)
        doubled = optimal(5, 20, 1.0, 10.0, 1.0)
        assert doubled.mean == pytest.approx(base.mean / 2)
        assert doubled.variance == pytest.approx(base.variance / 4)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            optimal(5, 4, 1.0, 10.0, 1.0)


class TestRateBounds:
    def test_fifteen_db_point(self):
        rho = 10**1.5
        assert epsilon_rate_bound(0.02, rho, 1.0, 1.0) == pytest.approx(
            0.6324555320336759, rel=1e-12
        )

    def test_cap_at_one(self):
        assert epsilon_rate_bound(1.0, 10.0, 1.0, 1.0) == 1.0

    def test_boundary_consistency(self):
        # an uncapped bound hits expected distortion epsilon exactly
        epsilon = 0.02
        rho = 10**1.5
        r_max = epsilon_rate_bound(epsilon, rho, 1.0, 1.0)
        assert r_max < 1.0
        # the law at rate r_max has effective SNR rho * min_gain / (r_max * p_w)
        assert DistortionLaw([1.0], rho / r_max).mean == pytest.approx(
            epsilon, rel=1e-12
        )

    def test_probabilistic_bound_is_halved_at_unit_slack(self):
        rho = 10**1.5
        assert epsilon_rate_bound(0.02 / (1 + 1.0), rho, 1.0, 1.0) == pytest.approx(
            0.31622776601683794, rel=1e-12
        )

    def test_small_slack_recovers_expected_bound(self):
        strict = epsilon_rate_bound(0.02 / (1 + 1e-12), 10.0, 1.0, 1.0)
        assert strict == pytest.approx(
            epsilon_rate_bound(0.02, 10.0, 1.0, 1.0), rel=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(epsilon=positive, eta=positive, rho=positive, g=positive, p_w=positive)
    def test_property_region_nesting(self, epsilon, eta, rho, g, p_w):
        loose = epsilon_rate_bound(epsilon, rho, g, p_w)
        tight = epsilon_rate_bound(epsilon / (1 + eta), rho, g, p_w)
        assert 0.0 <= tight <= loose <= 1.0


class TestMinSourceLength:
    def test_reference_points(self):
        assert min_source_length(0.2, 1.0) == 6
        assert min_source_length(0.2, 0.5) == 18

    def test_clamped_to_one(self):
        assert min_source_length(1 - 1e-12, 5.0) == 1

    def test_monotone(self):
        assert min_source_length(0.1, 1.0) >= min_source_length(0.2, 1.0)
        assert min_source_length(0.2, 0.5) >= min_source_length(0.2, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            min_source_length(0.0, 1.0)
        with pytest.raises(ValueError):
            min_source_length(1.0, 1.0)
        with pytest.raises(ValueError):
            min_source_length(0.2, 0.0)

    def test_subnormal_delta(self):
        # 1 / delta overflows here; -log(delta) = 736.83, / (1 - ln 2) = 2401.24
        assert min_source_length(1e-320, 1.0) == 2402

    def test_small_slack_is_exact(self):
        # -ln(0.2) / (eta - ln(1 + eta)) = 3218877970785.24 at eta = 1e-6;
        # the direct difference used to give 3218877971214
        assert min_source_length(0.2, 1e-6) == 3218877970786
        assert min_source_length(0.2, 1e-20) == math.ceil(
            -math.log(0.2) / 5e-41
        )

    @pytest.mark.parametrize("eta", [1e-160, 1e-200, 5e-324])
    def test_bound_beyond_float_range_is_value_error(self, eta):
        with pytest.raises(ValueError, match="float range"):
            min_source_length(0.2, eta)


def tail_exponent_reference(eta: float) -> float:
    """eta - ln(1 + eta) from 60 exact series terms (eta <= 0.5)."""
    x = Fraction(eta)
    return float(sum((-1) ** k * x**k / k for k in range(2, 62)))


class TestTailExponent:
    @pytest.mark.parametrize(
        "eta", [1e-150, 1e-20, 1e-6, 3.3e-3, 0.0999999, 0.1, 0.1000001, 0.37]
    )
    def test_matches_exact_series(self, eta):
        assert _tail_exponent(eta) == pytest.approx(
            tail_exponent_reference(eta), rel=4e-15
        )

    @pytest.mark.parametrize("eta", [0.1, 0.5, 1.0, 2.0, 4.0])
    def test_direct_form_from_threshold_on(self, eta):
        # the values dist-test, figures 3 and the CLI defaults use keep their bits
        assert _tail_exponent(eta) == eta - math.log1p(eta)

    def test_chernoff_tail_shares_it(self):
        eta = 1e-6
        assert chernoff_tail(2e12, eta) == pytest.approx(
            math.exp(-2e12 * tail_exponent_reference(eta)), rel=1e-14
        )


class TestChernoffTail:
    def test_reference_point(self):
        assert chernoff_tail(5.0, 1.0) == pytest.approx(
            0.21561430397073494, rel=1e-12
        )

    def test_vacuous_at_small_slack(self):
        assert chernoff_tail(5.0, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_strictly_decreasing(self):
        assert chernoff_tail(5.0, 2.0) < chernoff_tail(5.0, 1.0)
        assert chernoff_tail(10.0, 1.0) < chernoff_tail(5.0, 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        delta=st.floats(0.01, 0.99),
        eta=st.floats(0.05, 10.0),
    )
    def test_property_source_length_meets_target(self, delta, eta):
        assert chernoff_tail(min_source_length(delta, eta), eta) <= delta

    def test_source_length_grid(self):
        for delta in (0.01, 0.05, 0.1, 0.2, 0.3):
            for eta in (0.25, 0.5, 1.0, 2.0, 4.0):
                l_min = min_source_length(delta, eta)
                assert chernoff_tail(l_min, eta) <= delta


class TestGammaCdf:
    def test_zero(self):
        assert gamma_law(3, 2.0).cdf(0.0) == 0.0

    def test_exponential_special_case(self):
        assert gamma_law(1, 1.0).cdf(math.log(2.0)) == pytest.approx(0.5)

    def test_scale_invariance(self):
        a = gamma_law(3, 1.0).cdf(3.0)
        b = gamma_law(3, 4.0).cdf(12.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_probabilistic_criterion_met_at_min_source_length(self):
        # at the boundary rate with l >= l_min, Pr(d <= eps) >= 1 - delta
        delta, eta = 0.2, 1.0
        p_w, rho_x, g = 1.0, 10**1.5, 1.0
        l = min_source_length(delta, eta)
        l_tilde = 2 * l
        params = optimal(l, l_tilde, p_w, rho_x, g)
        epsilon = (1 + eta) * params.mean
        assert params.cdf(epsilon) >= 1 - delta


class TestSampleGeneralMse:
    def test_unit_spectrum_matches_gamma_law(self):
        # spectrum of all ones at rho*: samples ~ Gamma(l, 1 / (l rho*))
        l, rho = 5, 20.0
        rng = Rng(50)
        n = 10**4
        law = DistortionLaw(np.ones(l), rho)
        samples = np.sort([sample_general_mse(law, rng) for _ in range(n)])
        params = gamma_law(l, 1.0 / (l * rho))
        assert ks_distance(samples, params.cdf) < 1.63 / math.sqrt(n)

    def test_single_eigenvalue_is_unit_exponential(self):
        rng = Rng(51)
        law = DistortionLaw([1.0], 1.0)
        samples = np.fromiter(
            (sample_general_mse(law, rng) for _ in range(10**6)),
            dtype=float,
        )
        assert np.mean(samples) == pytest.approx(1.0, rel=0.004)

    def test_snr_scaling(self):
        a = sample_general_mse(DistortionLaw([0.5, 1.5], 1.0), Rng(52))
        b = sample_general_mse(DistortionLaw([0.5, 1.5], 10.0), Rng(52))
        assert b == pytest.approx(a / 10.0, rel=1e-12)

    def test_mean_matches_spectrum_formula(self):
        spectrum = np.array([0.5, 1.5])
        rho = 2.0
        rng = Rng(53)
        law = DistortionLaw(spectrum, rho)
        samples = np.fromiter(
            (sample_general_mse(law, rng) for _ in range(10**5)),
            dtype=float,
        )
        expected = np.sum(1.0 / spectrum) / (rho * spectrum.size)
        assert np.mean(samples) == pytest.approx(expected, rel=0.02)
        assert law.mean == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("size", [1, 2, 5, 40, 1000])
    def test_bits_equal_previous_expression(self, size):
        spectrum = Rng(55, size).gen.uniform(0.1, 3.0, size=size)
        rho = 17.5
        rng = Rng(56, size)
        law = DistortionLaw(spectrum, rho)
        ours = [sample_general_mse(law, rng) for _ in range(3)]
        rng = Rng(56, size)
        previous = []
        for _ in range(3):
            z = rng.gen.exponential(scale=1.0, size=size)
            previous.append(float(np.sum(z / spectrum) / (rho * size)))
        assert ours == previous

    def test_domain(self):
        # the law checks its inputs once, before any draw
        with pytest.raises(ValueError):
            DistortionLaw([0.0, 1.0], 1.0)
        with pytest.raises(ValueError):
            DistortionLaw([1.0], 0.0)

