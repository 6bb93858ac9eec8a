import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp.analysis import (
    GammaParams,
    chernoff_tail,
    epsilon_delta_rate_bound,
    epsilon_rate_bound,
    gamma_cdf,
    gamma_opt,
    min_source_length,
    optimal_mse_gamma,
    sample_general_mse,
)
from aircomp.numerics import Rng, ks_distance

positive = st.floats(1e-3, 1e3)


class TestGammaOpt:
    def test_direct_evaluation(self):
        assert gamma_opt(0.5, 1.0, 10.0, 1.0) == pytest.approx(0.05)

    def test_uncoded_rate_one(self):
        for rho in (1.0, 10.0, 100.0):
            assert gamma_opt(1.0, 1.0, rho, 1.0) == pytest.approx(1.0 / rho)

    def test_linear_in_rate(self):
        assert gamma_opt(0.25, 1.0, 10.0, 1.0) == pytest.approx(
            0.5 * gamma_opt(0.5, 1.0, 10.0, 1.0)
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_opt(1.5, 1.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            gamma_opt(0.5, 1.0, 0.0, 1.0)


class TestOptimalMseGamma:
    def test_reference_point(self):
        params = optimal_mse_gamma(5, 10, 1.0, 10.0, 1.0)
        assert params.shape == 5
        assert params.scale == pytest.approx(0.01)
        assert params.mean == pytest.approx(0.05)
        assert params.mean == pytest.approx(gamma_opt(0.5, 1.0, 10.0, 1.0))

    def test_variance(self):
        params = optimal_mse_gamma(5, 10, 1.0, 10.0, 1.0)
        assert params.variance == pytest.approx(5e-4)

    def test_blocklength_scaling(self):
        base = optimal_mse_gamma(5, 10, 1.0, 10.0, 1.0)
        doubled = optimal_mse_gamma(5, 20, 1.0, 10.0, 1.0)
        assert doubled.mean == pytest.approx(base.mean / 2)
        assert doubled.variance == pytest.approx(base.variance / 4)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            optimal_mse_gamma(5, 4, 1.0, 10.0, 1.0)


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
        assert gamma_opt(r_max, 1.0, rho, 1.0) == pytest.approx(
            epsilon, rel=1e-12
        )

    def test_probabilistic_bound_is_halved_at_unit_slack(self):
        rho = 10**1.5
        assert epsilon_delta_rate_bound(0.02, 1.0, rho, 1.0, 1.0) == pytest.approx(
            0.31622776601683794, rel=1e-12
        )

    def test_small_slack_recovers_expected_bound(self):
        strict = epsilon_delta_rate_bound(0.02, 1e-12, 10.0, 1.0, 1.0)
        assert strict == pytest.approx(
            epsilon_rate_bound(0.02, 10.0, 1.0, 1.0), rel=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(epsilon=positive, eta=positive, rho=positive, g=positive, p_w=positive)
    def test_property_region_nesting(self, epsilon, eta, rho, g, p_w):
        loose = epsilon_rate_bound(epsilon, rho, g, p_w)
        tight = epsilon_delta_rate_bound(epsilon, eta, rho, g, p_w)
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
        assert gamma_cdf(GammaParams(3.0, 2.0), 0.0) == 0.0

    def test_exponential_special_case(self):
        assert gamma_cdf(GammaParams(1.0, 1.0), math.log(2.0)) == pytest.approx(0.5)

    def test_scale_invariance(self):
        a = gamma_cdf(GammaParams(2.5, 1.0), 3.0)
        b = gamma_cdf(GammaParams(2.5, 4.0), 12.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_probabilistic_criterion_met_at_min_source_length(self):
        # at the boundary rate with l >= l_min, Pr(d <= eps) >= 1 - delta
        delta, eta = 0.2, 1.0
        p_w, rho_x, g = 1.0, 10**1.5, 1.0
        l = min_source_length(delta, eta)
        l_tilde = 2 * l
        params = optimal_mse_gamma(l, l_tilde, p_w, rho_x, g)
        epsilon = (1 + eta) * params.mean
        assert gamma_cdf(params, epsilon) >= 1 - delta


class TestSampleGeneralMse:
    def test_unit_spectrum_matches_gamma_law(self):
        # spectrum of all ones at rho*: samples ~ Gamma(l, 1 / (l rho*))
        l, rho = 5, 20.0
        rng = Rng(50)
        n = 10**4
        samples = np.sort(
            [sample_general_mse(np.ones(l), rho, rng) for _ in range(n)]
        )
        params = GammaParams(shape=l, scale=1.0 / (l * rho))
        assert ks_distance(samples, lambda x: gamma_cdf(params, x)) < 1.63 / math.sqrt(n)

    def test_single_eigenvalue_is_unit_exponential(self):
        rng = Rng(51)
        samples = np.fromiter(
            (sample_general_mse([1.0], 1.0, rng) for _ in range(10**6)),
            dtype=float,
        )
        assert np.mean(samples) == pytest.approx(1.0, rel=0.004)

    def test_snr_scaling(self):
        a = sample_general_mse([0.5, 1.5], 1.0, Rng(52))
        b = sample_general_mse([0.5, 1.5], 10.0, Rng(52))
        assert b == pytest.approx(a / 10.0, rel=1e-12)

    def test_mean_matches_spectrum_formula(self):
        spectrum = np.array([0.5, 1.5])
        rho = 2.0
        rng = Rng(53)
        samples = np.fromiter(
            (sample_general_mse(spectrum, rho, rng) for _ in range(10**5)),
            dtype=float,
        )
        expected = np.sum(1.0 / spectrum) / (rho * spectrum.size)
        assert np.mean(samples) == pytest.approx(expected, rel=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_general_mse([0.0, 1.0], 1.0, Rng(54))
        with pytest.raises(ValueError):
            sample_general_mse([1.0], 0.0, Rng(54))

