import json
import math

import numpy as np
import pytest

from aircomp.channel import (
    ChannelRealization,
    SystemConfig,
    all_ones_channel,
    db_to_linear,
    decode_sum,
    encode_and_precode,
    max_power_scaling,
    run_round,
    sample_rician,
    sample_sources,
    superpose,
)
from aircomp.coding import (
    EncodingMatrix,
    construct_identity,
    construct_random_orthonormal,
)
from aircomp.errors import (
    FloorUnsatisfiable,
    ShapeMismatch,
    ZeroChannel,
)
from aircomp.numerics import Rng

NEGLIGIBLE_NOISE = 1e-300


def write_config(path, **overrides):
    blob = {
        "k_users": 10,
        "l": 5,
        "l_tilde": 10,
        "p_w": 1.0,
        "n0": 1.0,
        "snr_db": 10.0,
        "rician_kappa_db": 5.0,
        "min_gain_floor": 1e-6,
        "master_seed": 0,
    }
    blob.update(overrides)
    path.write_text(json.dumps(blob))
    return blob


class TestSystemConfig:
    def test_defaults_match_reference_regime(self):
        cfg = SystemConfig()
        assert (cfg.k_users, cfg.l, cfg.p_w, cfg.n0) == (10, 5, 1.0, 1.0)
        assert cfg.rician_kappa_db == 5.0

    def test_rate_and_snr(self):
        cfg = SystemConfig(l=5, l_tilde=20, p_x=10.0, n0=1.0)
        assert cfg.rate == 0.25
        assert cfg.rho_x == 10.0
        assert cfg.snr_db == pytest.approx(10.0)

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, snr_db=15.0, l_tilde=20)
        cfg = SystemConfig.from_json(path)
        assert cfg.p_x == pytest.approx(10**1.5)
        assert cfg.l_tilde == 20
        assert cfg.master_seed == 0

    def test_from_json_rejects_missing_key(self, tmp_path):
        path = tmp_path / "config.json"
        blob = write_config(path)
        del blob["n0"]
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="n0"):
            SystemConfig.from_json(path)

    def test_from_json_rejects_extra_key(self, tmp_path):
        path = tmp_path / "config.json"
        blob = write_config(path)
        blob["p_x"] = 3.0
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="p_x"):
            SystemConfig.from_json(path)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SystemConfig(k_users=0)
        with pytest.raises(ValueError):
            SystemConfig(l=6, l_tilde=5)
        with pytest.raises(ValueError):
            SystemConfig(p_w=0.0)

    @pytest.mark.parametrize(
        "name", ["p_w", "n0", "p_x", "rician_kappa_db", "min_gain_floor"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_float_fields_must_be_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SystemConfig(**{name: value})


class TestChannelRealization:
    def test_from_coefficients(self):
        ch = ChannelRealization([3.0 + 4.0j, 1.0])
        assert ch.min_gain == pytest.approx(1.0)
        assert ch.k_users == 2

    def test_zero_gain_rejected(self):
        with pytest.raises(ZeroChannel):
            ChannelRealization([0.0, 1.0])

    def test_all_ones_channel(self):
        ch = all_ones_channel(4)
        assert ch.min_gain == 1.0
        assert np.array_equal(ch.coefficients, np.ones(4))


class TestSampleRician:
    def test_unit_mean_power(self):
        # kappa/(kappa+1) + 1/(kappa+1) = 1 regardless of kappa
        cfg = SystemConfig(k_users=10**6, rician_kappa_db=5.0)
        ch = sample_rician(cfg, Rng(20))
        gains = np.abs(ch.coefficients) ** 2
        kappa = db_to_linear(5.0)
        assert kappa == pytest.approx(3.1622776601683795)
        se = math.sqrt((1 + 2 * kappa) / (kappa + 1) ** 2 / 10**6)
        assert abs(np.mean(gains) - 1.0) <= 3 * se

    def test_line_of_sight_limit(self):
        cfg = SystemConfig(rician_kappa_db=100.0)
        ch = sample_rician(cfg, Rng(21))
        assert np.allclose(ch.coefficients, 1.0, atol=1e-4)
        assert ch.min_gain == pytest.approx(1.0, abs=1e-4)

    def test_deterministic(self):
        cfg = SystemConfig()
        a = sample_rician(cfg, Rng(22))
        b = sample_rician(cfg, Rng(22))
        assert np.array_equal(a.coefficients, b.coefficients)
        assert a.min_gain == b.min_gain

    def test_floor_enforced(self):
        cfg = SystemConfig(k_users=2000, rician_kappa_db=-30.0, min_gain_floor=0.05)
        ch = sample_rician(cfg, Rng(23))
        assert np.min(np.abs(ch.coefficients) ** 2) >= cfg.min_gain_floor
        assert ch.redraws > 0

    def test_unsatisfiable_floor(self):
        cfg = SystemConfig(k_users=2, rician_kappa_db=100.0, min_gain_floor=5.0)
        with pytest.raises(FloorUnsatisfiable):
            sample_rician(cfg, Rng(24))


class TestSampleSources:
    def test_power_law_of_large_numbers(self):
        cfg = SystemConfig(k_users=200, l=5000, l_tilde=5000, p_w=1.0)
        w = sample_sources(cfg, Rng(25))
        assert 0.997 <= np.mean(np.abs(w) ** 2) <= 1.003

    def test_shape(self):
        cfg = SystemConfig(k_users=1, l=5, l_tilde=5)
        assert sample_sources(cfg, Rng(26)).shape == (1, 5)

    def test_deterministic(self):
        cfg = SystemConfig()
        assert np.array_equal(
            sample_sources(cfg, Rng(27)), sample_sources(cfg, Rng(27))
        )


class TestMaxPowerScaling:
    def test_direct_evaluation(self):
        cfg = SystemConfig(l=5, l_tilde=10, p_x=10.0, p_w=1.0)
        assert max_power_scaling(all_ones_channel(10), cfg) == pytest.approx(20.0)

    def test_uncoded_case(self):
        cfg = SystemConfig(l=5, l_tilde=5, p_x=10.0, p_w=1.0)
        assert max_power_scaling(all_ones_channel(10), cfg) == pytest.approx(10.0)

    def test_inverse_rate_scaling(self):
        a = SystemConfig(l=5, l_tilde=10, p_x=10.0)
        b = SystemConfig(l=5, l_tilde=20, p_x=10.0)
        ch = all_ones_channel(10)
        assert max_power_scaling(ch, b) == pytest.approx(
            2 * max_power_scaling(ch, a)
        )

    def test_scales_with_min_gain(self):
        cfg = SystemConfig(l=5, l_tilde=10, p_x=10.0)
        ch = ChannelRealization([2.0 + 0j, 0.5])
        assert max_power_scaling(ch, cfg) == pytest.approx(20.0 * 0.25)


class TestEncodeAndPrecode:
    def test_identity_chain(self):
        enc = construct_identity(3)
        w = np.array([1.0 + 1j, 2.0, -1.0])
        x = encode_and_precode(enc, w, 1.0, 1.0)
        assert np.allclose(x, w)

    def test_scaling_cancellation(self):
        # sqrt(4) / 2 = 1, so the signal is phi @ w unscaled
        enc = construct_random_orthonormal(4, 2, Rng(28))
        w = np.array([1.0, 1j])
        x = encode_and_precode(enc, w, 2.0, 4.0)
        assert np.allclose(x, enc.phi @ w)

    def test_power_tightness_at_max_scaling(self):
        # the weakest-channel user transmits at exactly p_x per dimension
        cfg = SystemConfig(k_users=3, l=5, l_tilde=10, p_x=10.0, p_w=1.0)
        ch = ChannelRealization([2.0, 0.8 + 0.6j, 3.0j])
        p_star = max_power_scaling(ch, cfg)
        enc = construct_random_orthonormal(10, 5, Rng(29))
        argmin = int(np.argmin(np.abs(ch.coefficients) ** 2))
        rng = Rng(30)
        powers = np.empty(10**4)
        for i in range(powers.size):
            w = sample_sources(cfg, rng)[argmin]
            x = encode_and_precode(enc, w, ch.coefficients[argmin], p_star)
            powers[i] = np.sum(np.abs(x) ** 2) / cfg.l_tilde
        assert np.mean(powers) == pytest.approx(cfg.p_x, rel=0.01)
        # expected per-dimension power of every other user sits strictly below
        for k in range(3):
            expected = (
                p_star * cfg.l * cfg.p_w
                / (cfg.l_tilde * abs(ch.coefficients[k]) ** 2)
            )
            if k == argmin:
                assert expected == pytest.approx(cfg.p_x, rel=1e-12)
            else:
                assert expected < cfg.p_x

    def test_zero_channel_rejected(self):
        enc = construct_identity(2)
        with pytest.raises(ZeroChannel):
            encode_and_precode(enc, np.zeros(2), 1e-8, 1.0)

    def test_shape_mismatch(self):
        enc = construct_identity(2)
        with pytest.raises(ShapeMismatch):
            encode_and_precode(enc, np.zeros(3), 1.0, 1.0)


class TestSuperpose:
    def test_single_user_pass_through(self):
        ch = all_ones_channel(1)
        w = np.array([1.0 + 2j, -3.0, 0.5j])
        y = superpose([w], ch, NEGLIGIBLE_NOISE, Rng(31))
        assert np.allclose(y, w, atol=1e-12)

    def test_channel_inversion_cancels_fading(self):
        ch = ChannelRealization([2.0 + 1j, 0.5 - 0.25j])
        w1 = np.array([1.0, 1j, -2.0])
        w2 = np.array([0.5, -1.0, 3.0j])
        signals = [w1 / ch.coefficients[0], w2 / ch.coefficients[1]]
        y = superpose(signals, ch, NEGLIGIBLE_NOISE, Rng(32))
        assert np.allclose(y, w1 + w2, atol=1e-12)

    def test_noise_only_variance(self):
        ch = all_ones_channel(1)
        n = 10**6
        y = superpose([np.zeros(n)], ch, 2.0, Rng(33))
        assert np.mean(np.abs(y) ** 2) == pytest.approx(2.0, rel=0.01)

    def test_shape_mismatch(self):
        ch = all_ones_channel(2)
        with pytest.raises(ShapeMismatch):
            superpose([np.zeros(3)], ch, 1.0, Rng(34))


class TestDecodeSum:
    def test_noise_free_round_is_exact(self):
        enc = construct_random_orthonormal(10, 5, Rng(35))
        cfg = SystemConfig(n0=NEGLIGIBLE_NOISE, p_x=10.0)
        out = run_round(enc, cfg, all_ones_channel(10), 20.0, Rng(36))
        assert out.distortion < 1e-20

    def test_orthonormal_decode_is_hermitian_transpose(self):
        enc = construct_random_orthonormal(8, 4, Rng(37))
        y = np.arange(8) + 1j * np.arange(8)
        assert np.allclose(
            decode_sum(enc, y, 4.0), enc.phi.conj().T @ y / 2.0, atol=1e-12
        )

    def test_identity_pass_through(self):
        enc = construct_identity(3)
        y = np.array([1.0, 2.0 + 1j, -0.5])
        assert np.allclose(decode_sum(enc, y, 1.0), y)

    def test_shape_mismatch(self):
        enc = construct_identity(3)
        with pytest.raises(ShapeMismatch):
            decode_sum(enc, np.zeros(4), 1.0)


class TestRunRound:
    def test_noise_free(self):
        cfg = SystemConfig(n0=NEGLIGIBLE_NOISE, p_x=10.0, master_seed=3)
        enc = construct_random_orthonormal(cfg.l_tilde, cfg.l, Rng(38))
        ch = all_ones_channel(cfg.k_users)
        p = max_power_scaling(ch, cfg)
        out = run_round(enc, cfg, ch, p, Rng(39))
        assert out.distortion < 1e-20
        # stored distortion is exactly the recomputed one
        recomputed = float(
            np.sum(np.abs(out.estimate - out.true_sum) ** 2) / cfg.l
        )
        assert out.distortion == recomputed

    def test_mean_distortion_matches_theory(self):
        # fixed unit-gain channel, 10 dB, rate 1/2 -> expected MSE 0.05
        cfg = SystemConfig(p_x=10.0)
        enc = construct_random_orthonormal(10, 5, Rng(40))
        ch = all_ones_channel(10)
        p = max_power_scaling(ch, cfg)
        distortions = np.empty(2 * 10**4)
        for i in range(distortions.size):
            distortions[i] = run_round(enc, cfg, ch, p, Rng(41, i)).distortion
        assert np.mean(distortions) == pytest.approx(0.05, rel=0.02)

    def test_relabeling_symmetry(self):
        # which user holds which source cannot change the decoded sum
        cfg = SystemConfig(k_users=4, l=3, l_tilde=6, p_x=10.0)
        enc = construct_random_orthonormal(6, 3, Rng(42))
        ch = ChannelRealization([1.0, 2.0j, 0.5 + 0.5j, -1.5])
        p = max_power_scaling(ch, cfg)
        sources = sample_sources(cfg, Rng(43))

        def distortion(assignment):
            signals = [
                encode_and_precode(enc, sources[assignment[k]], ch.coefficients[k], p)
                for k in range(cfg.k_users)
            ]
            y = superpose(signals, ch, cfg.n0, Rng(44))
            w_hat = decode_sum(enc, y, p)
            w = sources.sum(axis=0)
            return float(np.sum(np.abs(w_hat - w) ** 2) / cfg.l)

        base = distortion([0, 1, 2, 3])
        shuffled = distortion([2, 0, 3, 1])
        assert shuffled == pytest.approx(base, rel=1e-9)

    def test_config_mismatch_rejected(self):
        cfg = SystemConfig()
        enc = construct_random_orthonormal(8, 4, Rng(45))
        with pytest.raises(ShapeMismatch):
            run_round(enc, cfg, all_ones_channel(10), 1.0, Rng(46))
        enc_ok = construct_random_orthonormal(10, 5, Rng(45))
        with pytest.raises(ShapeMismatch):
            run_round(enc_ok, cfg, all_ones_channel(3), 1.0, Rng(46))

    def test_error_covariance_matches_closed_form(self):
        # decoded-sum error covariance is (phi^H phi)^-1 / rho
        cfg = SystemConfig(k_users=4, l=2, l_tilde=2, p_x=10.0)
        enc = EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
        ch = all_ones_channel(4)
        p = max_power_scaling(ch, cfg)
        n = 10**4
        errors = np.empty((n, 2), dtype=complex)
        for i in range(n):
            out = run_round(enc, cfg, ch, p, Rng(99, i))
            errors[i] = out.estimate - out.true_sum
        empirical = errors.conj().T @ errors / n
        theory = np.linalg.inv(enc.gram) * cfg.n0 / p
        assert np.allclose(np.diag(empirical).real, np.diag(theory).real, rtol=0.05)
        assert abs(empirical[0, 1]) < 0.01

    def test_noise_free_received_vector_identity(self):
        # with channel inversion the received vector is sqrt(p) * phi * sum w_k
        cfg = SystemConfig(k_users=3, l=2, l_tilde=4, p_x=5.0)
        enc = construct_random_orthonormal(4, 2, Rng(47))
        ch = ChannelRealization([1.0 + 1j, -2.0, 0.3j])
        p = 7.0
        sources = sample_sources(cfg, Rng(48))
        signals = [
            encode_and_precode(enc, sources[k], ch.coefficients[k], p)
            for k in range(3)
        ]
        y = superpose(signals, ch, NEGLIGIBLE_NOISE, Rng(49))
        expected = math.sqrt(p) * enc.phi @ sources.sum(axis=0)
        assert np.max(np.abs(y - expected)) < 1e-10
