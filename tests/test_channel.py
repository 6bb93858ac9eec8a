import json
import math
from dataclasses import replace

import numpy as np
import pytest

from aircomp import channel, experiments
from aircomp.analysis import DistortionLaw
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
    construct_random_orthonormal,
    construct_repetition,
)
from aircomp.errors import (
    FloorUnsatisfiable,
    ShapeMismatch,
    ZeroChannel,
)
from aircomp.experiments import (
    ChannelMode,
    ExperimentPlan,
    Purpose,
    fixed_channel_for,
    run_trials,
    stream_id,
    summarize,
)
from aircomp.numerics import Rng, qr_orthonormal, sample_complex_gaussian

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

    def test_snr_db_falls_back_to_the_plain_log(self):
        # no dB value within two ulps of 10 log10(rho_x) maps back to this p_x
        cfg = SystemConfig(p_x=134.45080768798996)
        db = channel.linear_to_db(cfg.rho_x)
        ulp = math.ulp(db)
        assert all(
            cfg.n0 * db_to_linear(db + k * ulp) != cfg.p_x for k in range(-2, 3)
        )
        assert cfg.snr_db == db

    def test_from_json(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, snr_db=15.0, l_tilde=20)
        cfg = SystemConfig.from_json(path)
        assert cfg.p_x == pytest.approx(10**1.5)
        assert cfg.l_tilde == 20
        assert cfg.master_seed == 0

    @pytest.mark.parametrize("n0", [1.0, 0.37, 25.0])
    def test_config_echo_replays_its_run(self, tmp_path, n0):
        # at n0 = 1, 2.4 dB used to echo as 2.3999999999999995, whose p_x is
        # one ulp off; every 0.1 dB step from -30 to 60 dB must round-trip
        path = tmp_path / "config.json"
        for tenths in range(-300, 601):
            write_config(path, n0=n0, snr_db=tenths / 10)
            cfg = SystemConfig.from_json(path)
            path.write_text(json.dumps(cfg.to_json()))
            assert SystemConfig.from_json(path) == cfg, tenths / 10
        write_config(path, n0=n0, snr_db=2.4)
        assert SystemConfig.from_json(path).snr_db == 2.4

    def test_at_snr_db_is_the_inverse_of_snr_db(self, tmp_path):
        cfg = SystemConfig(n0=2.0).at_snr_db(10.0)
        assert cfg.p_x == 2.0 * db_to_linear(10.0)
        assert cfg.snr_db == 10.0
        path = tmp_path / "config.json"
        write_config(path, n0=0.37, snr_db=2.4)
        assert SystemConfig.from_json(path) == SystemConfig(n0=0.37).at_snr_db(2.4)

    def test_from_json_reports_a_bad_field_before_a_bad_snr_db(self, tmp_path):
        path = tmp_path / "config.json"
        write_config(path, p_w=-1.0, snr_db=4000.0)
        with pytest.raises(ValueError, match="p_w must be positive"):
            SystemConfig.from_json(path)

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

    def test_rician_factor_beyond_float_range_rejected(self):
        # 10^(3100 / 10) overflows; -3100 dB underflows to a pure-scatter 0
        with pytest.raises(ValueError, match="3100 dB is beyond the float range"):
            SystemConfig(rician_kappa_db=3100)
        assert SystemConfig(rician_kappa_db=-3100).rician_kappa_db == -3100


class TestChannelRealization:
    def test_from_coefficients(self):
        ch = ChannelRealization([3.0 + 4.0j, 1.0])
        assert ch.min_gain == pytest.approx(1.0)
        assert ch.k_users == 2

    def test_zero_gain_rejected(self):
        with pytest.raises(ZeroChannel):
            ChannelRealization([0.0, 1.0])

    @pytest.mark.parametrize("coefficients", [[], [[1.0, 1.0]]])
    def test_empty_or_matrix_rejected(self, coefficients):
        with pytest.raises(ShapeMismatch, match="nonempty vector"):
            ChannelRealization(coefficients)

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, complex(0.0, math.nan), complex(-math.inf, 1.0)]
    )
    def test_non_finite_rejected(self, bad):
        # min() alone gives NaN for a NaN gain and skips an infinite one
        with pytest.raises(ValueError, match="finite"):
            ChannelRealization([1.0, bad])

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

    def test_draw_above_floor_is_one_plain_draw(self):
        # no redraw: the coefficients are the first K draws of the stream
        cfg = SystemConfig(rician_kappa_db=5.0, master_seed=4)
        ch = sample_rician(cfg, Rng(cfg.master_seed, 25))
        assert ch.redraws == 0
        assert ch.min_gain >= cfg.min_gain_floor
        kappa = db_to_linear(cfg.rician_kappa_db)
        los = math.sqrt(kappa / (kappa + 1.0))
        replay = los + sample_complex_gaussian(
            Rng(cfg.master_seed, 25), cfg.k_users, 1.0 / (kappa + 1.0)
        )
        assert np.array_equal(bits(ch.coefficients), bits(replay))

    @staticmethod
    def los_and_scatter(cfg):
        kappa = db_to_linear(cfg.rician_kappa_db)
        return math.sqrt(kappa / (kappa + 1.0)), 1.0 / (kappa + 1.0)

    def test_redraws_replay_entry_by_entry(self):
        # replay: K draws, then the entries below the floor redrawn one at a
        # time in index order, pass after pass, until none is left
        cfg = SystemConfig(k_users=50, rician_kappa_db=-10.0, min_gain_floor=0.3)
        los, scatter = self.los_and_scatter(cfg)
        total = 0
        for seed in range(20):
            ch = sample_rician(cfg, Rng(seed, 9))
            rng = Rng(seed, 9)
            coeffs = los + sample_complex_gaussian(rng, cfg.k_users, scatter)
            redraws = 0
            while True:
                bad = np.flatnonzero(np.abs(coeffs) ** 2 < cfg.min_gain_floor)
                if bad.size == 0:
                    break
                fresh = los + sample_complex_gaussian(rng, bad.size, scatter)
                for index, value in zip(bad.tolist(), fresh):
                    coeffs[index] = value
                redraws += bad.size
            assert np.array_equal(bits(ch.coefficients), bits(coeffs))
            assert ch.redraws == redraws
            total += redraws
        assert total == 359

    def test_unsatisfiable_floor(self):
        # 1 + _REDRAW_LIMIT passes of 2 draws each, then the error; the
        # stream is left exactly where the replay leaves it
        cfg = SystemConfig(k_users=2, rician_kappa_db=100.0, min_gain_floor=5.0)
        los, scatter = self.los_and_scatter(cfg)
        rng = Rng(24)
        with pytest.raises(FloorUnsatisfiable) as caught:
            sample_rician(cfg, rng)
        assert str(caught.value) == (
            "2 coefficient(s) violated the gain floor 5.0 for 1000 consecutive draws"
        )
        replay = Rng(24)
        for _ in range(1 + channel._REDRAW_LIMIT):
            coeffs = los + sample_complex_gaussian(replay, 2, scatter)
            assert np.all(np.abs(coeffs) ** 2 < cfg.min_gain_floor)
        assert rng.gen.standard_normal() == replay.gen.standard_normal()


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
        assert max_power_scaling(1.0, cfg) == pytest.approx(20.0)

    def test_uncoded_case(self):
        cfg = SystemConfig(l=5, l_tilde=5, p_x=10.0, p_w=1.0)
        assert max_power_scaling(1.0, cfg) == pytest.approx(10.0)

    def test_inverse_rate_scaling(self):
        a = SystemConfig(l=5, l_tilde=10, p_x=10.0)
        b = SystemConfig(l=5, l_tilde=20, p_x=10.0)
        assert max_power_scaling(1.0, b) == pytest.approx(
            2 * max_power_scaling(1.0, a)
        )

    def test_scales_with_min_gain(self):
        cfg = SystemConfig(l=5, l_tilde=10, p_x=10.0)
        ch = ChannelRealization([2.0 + 0j, 0.5])
        assert max_power_scaling(ch.min_gain, cfg) == pytest.approx(20.0 * 0.25)


class TestEncodeAndPrecode:
    def test_identity_chain(self):
        enc = construct_repetition(3)
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
        p_star = max_power_scaling(ch.min_gain, cfg)
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

    def test_shape_mismatch(self):
        enc = construct_repetition(2)
        with pytest.raises(ShapeMismatch):
            encode_and_precode(enc, np.zeros(3), 1.0, 1.0)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_non_positive_power_rejected(self, p):
        with pytest.raises(ValueError, match="power scaling must be positive"):
            encode_and_precode(construct_repetition(2), np.zeros(2), 1.0, p)


class TestSuperpose:
    def test_faded_sum_plus_noise(self):
        # the stage draws nothing: its output is its inputs' arithmetic, bit
        # for bit
        ch = ChannelRealization([2.0 + 1j, 0.5 - 0.25j, -1.5j])
        rng = Rng(33)
        x = sample_complex_gaussian(rng, 3 * 4, 1.0).reshape(3, 4)
        noise = sample_complex_gaussian(rng, 4, 0.5)
        expected = (ch.coefficients[:, None] * x).sum(axis=0) + noise
        assert np.array_equal(bits(superpose(x, ch, noise)), bits(expected))

    def test_single_user_pass_through(self):
        ch = all_ones_channel(1)
        w = np.array([[1.0 + 2j, -3.0, 0.5j]])
        assert np.array_equal(superpose(w, ch, np.zeros(3, complex)), w[0])

    def test_channel_inversion_cancels_fading(self):
        ch = ChannelRealization([2.0 + 1j, 0.5 - 0.25j])
        w1 = np.array([1.0, 1j, -2.0])
        w2 = np.array([0.5, -1.0, 3.0j])
        x = np.array([w1 / ch.coefficients[0], w2 / ch.coefficients[1]])
        y = superpose(x, ch, np.zeros(3, complex))
        assert np.allclose(y, w1 + w2, atol=1e-12)

    def test_shape_mismatch(self):
        ch = all_ones_channel(2)
        noise = np.zeros(3, complex)
        for x, n in [
            (np.zeros(3, complex), noise),  # not a matrix
            (np.zeros((1, 3), complex), noise),  # one signal for two users
            (np.zeros((2, 3), complex), np.zeros(4, complex)),  # noise too long
        ]:
            with pytest.raises(ShapeMismatch):
                superpose(x, ch, n)


class TestDecodeSum:
    def test_noise_free_round_is_exact(self):
        enc = construct_random_orthonormal(10, 5, Rng(35))
        cfg = SystemConfig(n0=NEGLIGIBLE_NOISE, p_x=10.0)
        assert run_round(enc, cfg, all_ones_channel(10), Rng(36)) < 1e-20

    def test_orthonormal_decode_is_hermitian_transpose(self):
        enc = construct_random_orthonormal(8, 4, Rng(37))
        y = np.arange(8) + 1j * np.arange(8)
        assert np.allclose(
            decode_sum(enc, y, 4.0), enc.phi.conj().T @ y / 2.0, atol=1e-12
        )

    def test_identity_pass_through(self):
        enc = construct_repetition(3)
        y = np.array([1.0, 2.0 + 1j, -0.5])
        assert np.allclose(decode_sum(enc, y, 1.0), y)

    def test_shape_mismatch(self):
        enc = construct_repetition(3)
        with pytest.raises(ShapeMismatch):
            decode_sum(enc, np.zeros(4), 1.0)

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_non_positive_power_rejected(self, p):
        with pytest.raises(ValueError, match="power scaling must be positive"):
            decode_sum(construct_repetition(3), np.zeros(3), p)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def staged_round(enc, cfg, ch, p, rng, holders=None):
    """run_round's chain stage by stage on its stream: (sources, noise, estimate).

    User k transmits source ``holders[k]``, by default its own.
    """
    sources = sample_sources(cfg, rng)
    noise = sample_complex_gaussian(rng, cfg.l_tilde, cfg.n0)
    held = sources if holders is None else sources[list(holders)]
    transmit = np.array([
        encode_and_precode(enc, w_k, h_k, p)
        for w_k, h_k in zip(held, ch.coefficients)
    ])
    return sources, noise, decode_sum(enc, superpose(transmit, ch, noise), p)


def chain_identity_holds(enc, sources, noise, estimate, p):
    """Whether each round's decoded error is its noise, decoded, up to rounding.

    The chain is linear: a round that sends sources w_k with noise n decodes
    exactly D phi sum_k w_k + D n / sqrt(p) for the decoder D. So the
    residual estimate - sum_k w_k - D n / sqrt(p) is rounding plus
    (D phi - I) sum_k w_k, and any precode or fade bug breaks it at once.
    Arguments may carry a leading round axis; the result is per round.

    The bound is entrywise. Write u for the unit round-off, gamma_m for
    m u / (1 - m u), a = |phi| sum_k |w_k| and b = |n| / sqrt(p), and use
    (1 + theta_i)(1 + theta_j) = 1 + theta_{i+j} (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, sec. 3.1-3.6):
    - a complex product rounds within sqrt(2) gamma_2 <= gamma_3, a complex
      inner product of length n within sqrt(2) gamma_{2n+2} <= gamma_{3n+3}
      of the |.|-weighted sum (in complex or real arithmetic), a sum of K
      terms within gamma_{K-1}, and a square root or a division by a real
      within u;
    - precode: sqrt(p) / h_k, a square root and Smith's division of a real
      numerator, gamma_8; phi w_k, gamma_{3l+3}; their product, gamma_3.
      Fade h_k x_k, gamma_3; the sum over K users and + n, gamma_K. So
      y / sqrt(p) is phi sum_k w_k + n / sqrt(p) within gamma_{K+3l+17} a
      + u b;
    - decode: D y, gamma_{3 l_tilde + 3}, over sqrt(p), gamma_2;
    - here: sum_k w_k, gamma_{K-1}; D n / sqrt(p), gamma_{3 l_tilde + 5};
      D phi, gamma_{3 l_tilde + 3} |D| a; two subtractions; and the
      bound's own nonnegative evaluation, gamma_{K+l+l_tilde+5}.
    Summed, |residual| <= gamma_m (|D| (a + b) + sum_k |w_k|) with
    m = 2K + 4l + 10 l_tilde + 32, plus (1 + gamma_3) |fl(D phi) - I|
    sum_k |w_k| <= 2 |fl(D phi) - I| sum_k |w_k|. That last term is the
    SVD decoder's own residual as a left inverse of phi: a property of the
    matrix (of LAPACK and phi's condition), not of the round, so it enters
    as computed. The bound is deterministic: a correct chain never fails it.
    """
    k_users, l = sources.shape[-2:]
    u = np.finfo(float).eps / 2
    m = 2 * k_users + 4 * l + 10 * enc.l_tilde + 32
    gamma = m * u / (1 - m * u)
    root_p = np.sqrt(np.asarray(p, dtype=float))[..., np.newaxis]
    residual = estimate - sources.sum(axis=-2) - noise @ enc.decoder.T / root_p
    w_abs = np.abs(sources).sum(axis=-2)
    a_plus_b = w_abs @ np.abs(enc.phi).T + np.abs(noise) / root_p
    left_inverse = np.abs(enc.decoder @ enc.phi - np.eye(l))
    bound = gamma * (a_plus_b @ np.abs(enc.decoder).T + w_abs)
    bound += 2 * w_abs @ left_inverse.T
    return (np.abs(residual) <= bound).all(axis=-1)


class TestMatrixProducts:
    """encode_and_precode and decode_sum agree with ``m @ v`` up to rounding.

    Two computations of a complex product ``m @ v`` with inner length n
    each lie within about sqrt(2) (n + 2) u of the exact one, entrywise
    relative to ``|m| @ |v|`` (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.6), and multiplying both by one complex scalar adds
    at most 2 sqrt(2) u of their size each. So the two results differ by
    less than 4 (n + 4) u, relative to ``|s| |m| @ |v|`` for the scalar s.
    """

    DRAWS = 50

    @staticmethod
    def assert_close(got, scalar, m, v):
        bound = 4 * (m.shape[1] + 4) * np.finfo(float).eps
        size = abs(scalar) * (np.abs(m) @ np.abs(v))
        assert np.all(np.abs(got - scalar * (m @ v)) <= bound * size)

    @pytest.mark.parametrize(
        "layout, l_tilde, l",
        [
            ("c", 2, 2),
            ("c", 10, 5),
            ("c", 80, 40),
            ("c", 3, 1),
            ("fortran", 10, 5),
            ("strided", 10, 5),
        ],
    )
    def test_within_rounding_of_matmul(self, layout, l_tilde, l):
        width = l if layout == "c" else 2 * l
        a = sample_complex_gaussian(Rng(l_tilde, l), l_tilde * width, 1.0)
        a = a.reshape(l_tilde, width)
        phi = {
            "c": a,
            "fortran": np.asfortranarray(a[:, :l]),
            "strided": a[:, ::2],
        }[layout]
        enc = EncodingMatrix(phi)
        assert enc.phi.flags.c_contiguous == (layout == "c")
        rng = Rng(l_tilde * 100 + l)
        h = sample_complex_gaussian(rng, self.DRAWS, 1.0) + 1.0
        w = sample_complex_gaussian(rng, self.DRAWS * l, 1.0).reshape(-1, l)
        y = sample_complex_gaussian(rng, self.DRAWS * l_tilde, 1.0)
        p = 7.3
        for h_i, w_i, y_i in zip(h, w, y.reshape(-1, l_tilde)):
            got = encode_and_precode(enc, w_i, h_i, p)
            self.assert_close(got, math.sqrt(p) / h_i, enc.phi, w_i)
            got = decode_sum(enc, y_i, p)
            self.assert_close(got, 1 / math.sqrt(p), enc.decoder, y_i)


class TestRunRound:
    def test_noise_free(self):
        cfg = SystemConfig(n0=NEGLIGIBLE_NOISE, p_x=10.0, master_seed=3)
        enc = construct_random_orthonormal(cfg.l_tilde, cfg.l, Rng(38))
        ch = all_ones_channel(cfg.k_users)
        p = max_power_scaling(ch.min_gain, cfg)
        distortion = run_round(enc, cfg, ch, Rng(39))
        assert distortion < 1e-20
        # the staged chain on the same stream decodes the true sum, and its
        # error gives exactly the returned distortion
        sources, _, estimate = staged_round(enc, cfg, ch, p, Rng(39))
        true_sum = sources.sum(axis=0)
        assert np.allclose(estimate, true_sum, rtol=0, atol=1e-10)
        assert distortion == float(np.sum(np.abs(estimate - true_sum) ** 2) / cfg.l)

    def test_mean_distortion_matches_theory(self):
        # fixed unit-gain channel, 10 dB, rate 1/2 -> expected MSE 0.05
        cfg = SystemConfig(p_x=10.0)
        enc = construct_random_orthonormal(10, 5, Rng(40))
        ch = all_ones_channel(10)
        distortions = np.empty(2 * 10**4)
        for i in range(distortions.size):
            distortions[i] = run_round(enc, cfg, ch, Rng(41, i))
        assert np.mean(distortions) == pytest.approx(0.05, rel=0.02)

    def test_relabeling_symmetry(self):
        # which user holds which source cannot change the decoded sum
        cfg = SystemConfig(k_users=4, l=3, l_tilde=6, p_x=10.0)
        enc = construct_random_orthonormal(6, 3, Rng(42))
        ch = ChannelRealization([1.0, 2.0j, 0.5 + 0.5j, -1.5])
        p = max_power_scaling(ch.min_gain, cfg)

        def distortion(holders):
            sources, _, w_hat = staged_round(enc, cfg, ch, p, Rng(43), holders)
            return float(np.sum(np.abs(w_hat - sources.sum(axis=0)) ** 2) / cfg.l)

        base = distortion([0, 1, 2, 3])
        shuffled = distortion([2, 0, 3, 1])
        assert shuffled == pytest.approx(base, rel=1e-9)

    def test_zero_channel_rejected(self):
        # the gain floor is checked once per round, before any user precodes
        cfg = SystemConfig(k_users=2, l=2, l_tilde=2)
        enc = construct_repetition(2)
        with pytest.raises(ZeroChannel):
            run_round(enc, cfg, ChannelRealization([1e-8, 1.0]), Rng(50))

    @pytest.mark.parametrize(
        "coefficients, floor, rejected",
        [
            # weak user last: 1e-4 has gain 1e-8, below the default 1e-6
            ([1.0, 1.0, 1e-4], None, True),
            # a min_gain equal to the floor runs
            ([1.0, 1e-3, 2.0j], "min_gain", False),
            # gain 0.25 passes the default floor but not a floor of 0.5
            ([1.0, 0.5], None, False),
            ([1.0, 0.5], 0.5, True),
        ],
    )
    def test_configured_floor_checked_per_round(self, coefficients, floor, rejected):
        ch = ChannelRealization(coefficients)
        cfg = SystemConfig(k_users=ch.k_users, l=2, l_tilde=2)
        if floor is not None:
            floor = ch.min_gain if floor == "min_gain" else floor
            cfg = replace(cfg, min_gain_floor=floor)
        enc = construct_repetition(2)
        if rejected:
            with pytest.raises(ZeroChannel):
                run_round(enc, cfg, ch, Rng(51))
        else:
            assert math.isfinite(run_round(enc, cfg, ch, Rng(51)))

    @pytest.mark.parametrize("floor, rejected", [(1.0, False), (2.0, True)])
    def test_fixed_channel_meets_the_floor(self, floor, rejected):
        # the all-ones channel has min_gain 1; the plan rejects it, as
        # run_round would, before any trial
        plan = ExperimentPlan(
            config=SystemConfig(min_gain_floor=floor),
            channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
        )
        if rejected:
            with pytest.raises(ZeroChannel, match=r"below floor 2\.000e\+00"):
                fixed_channel_for(plan)
        else:
            assert fixed_channel_for(plan).min_gain == 1.0

    @pytest.mark.parametrize(
        "case", ["rician-10x5", "skewed-diag", "single-column", "one-user"]
    )
    def test_round_equals_staged_chain(self, case):
        # the hot path is the readable chain: same draws, same float bits;
        # and the chain's error is its noise, decoded (see chain_identity_holds)
        if case == "skewed-diag":
            cfg = SystemConfig(k_users=3, l=2, l_tilde=2, master_seed=54)
            enc = EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
        else:
            k, l, l_tilde = {
                "rician-10x5": (10, 5, 10),
                "single-column": (10, 1, 3),  # the __matmul__ path
                "one-user": (1, 5, 10),
            }[case]
            cfg = SystemConfig(k_users=k, l=l, l_tilde=l_tilde, master_seed=54)
            enc = construct_random_orthonormal(l_tilde, l, Rng(55))
        ch = sample_rician(cfg, Rng(cfg.master_seed, 56))
        p = max_power_scaling(ch.min_gain, cfg)
        out = run_round(enc, cfg, ch, Rng(cfg.master_seed, 57))
        assert type(out) is float

        sources, noise, estimate = staged_round(
            enc, cfg, ch, p, Rng(cfg.master_seed, 57)
        )
        error = estimate - sources.sum(axis=0)
        distortion = float((np.abs(error) ** 2).sum() / cfg.l)
        assert np.array_equal(bits(out), bits(distortion))
        assert chain_identity_holds(enc, sources, noise, estimate, p)

    def test_config_mismatch_rejected(self):
        cfg = SystemConfig()
        enc = construct_random_orthonormal(8, 4, Rng(45))
        with pytest.raises(ShapeMismatch):
            run_round(enc, cfg, all_ones_channel(10), Rng(46))
        enc_ok = construct_random_orthonormal(10, 5, Rng(45))
        with pytest.raises(ShapeMismatch):
            run_round(enc_ok, cfg, all_ones_channel(3), Rng(46))

    def test_error_covariance_matches_closed_form(self):
        # decoded-sum error covariance is (phi^H phi)^-1 / rho
        cfg = SystemConfig(k_users=4, l=2, l_tilde=2, p_x=10.0)
        enc = EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
        ch = all_ones_channel(4)
        p = max_power_scaling(ch.min_gain, cfg)
        n = 10**4
        errors = np.empty((n, 2), dtype=complex)
        for i in range(n):
            # the staged chain on run_round's stream for round i
            sources, _, estimate = staged_round(enc, cfg, ch, p, Rng(99, i))
            errors[i] = estimate - sources.sum(axis=0)
        empirical = errors.conj().T @ errors / n
        theory = np.linalg.inv(enc.phi.conj().T @ enc.phi) * cfg.n0 / p
        assert np.allclose(np.diag(empirical).real, np.diag(theory).real, rtol=0.05)
        assert abs(empirical[0, 1]) < 0.01

    def test_noise_free_received_vector_identity(self):
        # with channel inversion the received vector is sqrt(p) * phi * sum w_k
        cfg = SystemConfig(k_users=3, l=2, l_tilde=4, p_x=5.0)
        enc = construct_random_orthonormal(4, 2, Rng(47))
        ch = ChannelRealization([1.0 + 1j, -2.0, 0.3j])
        p = 7.0
        sources = sample_sources(cfg, Rng(48))
        x = np.array([
            encode_and_precode(enc, sources[k], ch.coefficients[k], p)
            for k in range(3)
        ])
        y = superpose(x, ch, np.zeros(4, complex))
        expected = math.sqrt(p) * enc.phi @ sources.sum(axis=0)
        assert np.max(np.abs(y - expected)) < 1e-10


def chernoff_mean_gate(shape, alpha):
    """Ratios (lo, hi) that the mean of Gamma draws of total shape ``shape``
    leaves, relative to its expectation, with probability at most ``alpha``.

    The mean of n Gamma(l, theta) draws is Gamma(n l, theta / n). For shape
    a, Chernoff's bound gives P(mean >= (1 + e) mu) <= exp(-a (e - ln(1 + e)))
    and P(mean <= (1 - e) mu) <= exp(-a (-e - ln(1 - e))); each side gets
    alpha / 2.
    """
    target = math.log(2 / alpha) / shape

    def margin(exponent, top):
        lo, hi = 0.0, top  # exponent rises on (0, top); hi keeps its >= target
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if exponent(mid) < target else (lo, mid)
        return hi

    down = margin(lambda e: -e - math.log1p(-e), 1.0)
    up = margin(lambda e: e - math.log1p(e), 10.0)
    return 1 - down, 1 + up


def record_rounds(monkeypatch):
    """Record each run_round's sources, noise, power scaling and estimate.

    run_round reaches its stages through the channel module, so wrapping
    them there observes the engine itself. Arrays are stored as copies, so
    an engine that later writes into a stage's result in place (a reused
    buffer, an in-place subtraction) leaves the record as the stage made it.
    """
    rounds = {"sources": [], "noise": [], "estimate": [], "p": []}

    def spy(name, record):
        original = getattr(channel, name)

        def recorded(*args):
            out = original(*args)
            for key, value in record(args, out).items():
                rounds[key].append(value)
            return out

        monkeypatch.setattr(channel, name, recorded)

    spy("sample_sources", lambda args, out: {"sources": out.copy()})
    spy("superpose", lambda args, out: {"noise": args[2].copy()})
    spy("decode_sum", lambda args, out: {"estimate": out.copy(), "p": args[2]})
    return rounds


# Each bug wraps the original stage; ``fixed`` is the run's channel.
CHAIN_BUGS = {
    "conjugate-precode": (
        "encode_and_precode",
        lambda f, fixed: lambda enc, w, h, p: f(enc, w, np.conj(h), p),
    ),
    "h-for-inverse-h": (
        "encode_and_precode",
        lambda f, fixed: lambda enc, w, h, p: f(enc, w, 1 / h, p),
    ),
    "root-p-for-p": (
        "encode_and_precode",
        lambda f, fixed: lambda enc, w, h, p: f(enc, w, h, math.sqrt(p)),
    ),
    "noise-at-2-n0": (
        "run_round",
        lambda f, fixed: lambda enc, cfg, ch, rng: f(
            enc, replace(cfg, n0=2 * cfg.n0), ch, rng
        ),
    ),
    "largest-gain-power": (
        "max_power_scaling",
        lambda f, fixed: lambda gain, cfg: f(
            float(np.max(np.abs(fixed.coefficients) ** 2)), cfg
        ),
    ),
}


class TestMutationTable:
    """Each of five chain bugs fails the chain identity or a mean gate.

    The run is fixed-from-seed at 10 users and an orthonormal 10x5 code,
    where the distortion is exactly Gamma(l, mean / l). A precode or fade
    bug fails chain_identity_holds, which is deterministic, at the first
    trial. A wrong noise power or power scaling keeps the identity, so a
    two-sided Chernoff gate on the mean of TRIALS distortions catches it.
    Its law is built from the unpatched channel, before any patch, and its
    false-alarm rate is at most FALSE_ALARM = 1e-6.

    Every bug also breaks a deterministic check. The phase relation
    (TestMetamorphicRelations) catches conjugate-precode and
    h-for-inverse-h; the SNR relation catches root-p-for-p, which moves a
    distortion by up to 5.33 relative at its seed; the per-user cap
    (TestPerUserCap) catches largest-gain-power at the first trial; and
    the replay below, which recomputes each trial stage by stage at the
    configured n0, catches noise-at-2-n0 at the first trial, where every
    distortion moves by a factor of 2 up to rounding.
    """

    SEED = 4
    TRIALS = 2000
    FALSE_ALARM = 1e-6

    def run(self, monkeypatch, bug=None, trials=TRIALS):
        """Per-trial identity verdicts and whether the mean gate passes."""
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=self.SEED),
            trials=trials,
            channel_mode=ChannelMode.FIXED_FROM_SEED,
        )
        cfg = plan.config
        enc, fixed = plan.enc, plan.fixed
        law = DistortionLaw.optimal(
            cfg.l, cfg.l_tilde, cfg.p_w, cfg.rho_x, fixed.min_gain
        )
        lo, hi = chernoff_mean_gate(trials * law.shape, self.FALSE_ALARM)
        rounds = record_rounds(monkeypatch)
        if bug is not None:
            name, mutate = CHAIN_BUGS[bug]
            monkeypatch.setattr(channel, name, mutate(getattr(channel, name), fixed))
        samples = run_trials(plan).samples
        holds = chain_identity_holds(enc, *map(np.array, rounds.values()))
        return holds, lo <= samples.mean() / law.mean <= hi

    def replay_matches(self, monkeypatch, bug=None, trials=5):
        """Per trial, whether run_trials' sample is the correct chain's, bit for bit.

        Each trial is replayed by staged_round on its own stream, at the
        configured n0 and the unpatched max_power_scaling.
        """
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=self.SEED),
            trials=trials,
            channel_mode=ChannelMode.FIXED_FROM_SEED,
        )
        cfg, enc, fixed = plan.config, plan.enc, plan.fixed
        p = max_power_scaling(fixed.min_gain, cfg)
        if bug is not None:
            name, mutate = CHAIN_BUGS[bug]
            monkeypatch.setattr(channel, name, mutate(getattr(channel, name), fixed))
        samples = run_trials(plan).samples
        replayed = []
        for i in range(trials):
            rng = Rng(cfg.master_seed, stream_id(Purpose.TRIAL, i))
            sources, _, estimate = staged_round(enc, cfg, fixed, p, rng)
            error = estimate - sources.sum(axis=0)
            replayed.append(float((np.abs(error) ** 2).sum() / cfg.l))
        return bits(samples) == bits(np.array(replayed))

    def test_correct_chain_matches_its_replay(self, monkeypatch):
        assert self.replay_matches(monkeypatch).all()

    def test_noise_bug_fails_replay_at_first_trial(self, monkeypatch):
        assert not self.replay_matches(monkeypatch, "noise-at-2-n0", trials=1)[0]

    def test_seed_gains_are_distinct(self):
        # the largest-gain bug moves the mean by the max/min gain ratio
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=self.SEED),
            channel_mode=ChannelMode.FIXED_FROM_SEED,
        )
        gains = np.abs(fixed_channel_for(plan).coefficients) ** 2
        assert gains.max() / gains.min() >= 1.5
        lo, hi = chernoff_mean_gate(self.TRIALS * plan.config.l, self.FALSE_ALARM)
        assert hi < 2 and lo > gains.min() / gains.max()

    def test_correct_chain_passes_every_gate(self, monkeypatch):
        holds, mean_ok = self.run(monkeypatch)
        assert holds.shape == (self.TRIALS,) and holds.all()
        assert mean_ok

    @pytest.mark.parametrize(
        "bug", ["conjugate-precode", "h-for-inverse-h", "root-p-for-p"]
    )
    def test_precode_bug_fails_identity_at_first_trial(self, monkeypatch, bug):
        holds, _ = self.run(monkeypatch, bug, trials=1)
        assert not holds[0]

    @pytest.mark.parametrize("bug", ["noise-at-2-n0", "largest-gain-power"])
    def test_power_bug_fails_mean_gate(self, monkeypatch, bug):
        holds, mean_ok = self.run(monkeypatch, bug)
        assert holds.all()
        assert not mean_ok


class TestMetamorphicRelations:
    """Runs of the chain that must agree by a known rule.

    Scaling p_w, n0 and p_x by one power of 4 leaves the power scaling p
    unchanged and scales every transmitted and received quantity by an
    exact power of two (sqrt(4 x) = 2 sqrt(x) in IEEE arithmetic), so every
    distortion scales by exactly that factor. Scaling n0 and p_x alone by
    4 scales p by 4 and the noise by 2, which a correct decoder divides
    back out, so every distortion is unchanged. Both hold bit for bit in
    every channel mode. Turning each fixed channel coefficient by its own
    phase leaves every distortion unchanged up to rounding, since the
    precode inverts each h_k, and so does handing the fixed coefficients to
    the users in another order. Rotating the code, phi -> phi V with V
    unitary, leaves every distortion unchanged up to rounding in every
    mode: the decoded error (phi V)^+ n = V^H phi^+ n has the norm of
    phi^+ n. In fixed-unit mode rician_kappa_db is never read, so changing
    it leaves every distortion bit for bit. No relation needs the law or
    the noise, and none can fail by chance.

    Which chain bug (CHAIN_BUGS) breaks which relation:

    - SNR: root-p-for-p;
    - phase and permutation: conjugate-precode and h-for-inverse-h;
    - rotation: conjugate-precode, h-for-inverse-h and root-p-for-p, whose
      signal error no longer cancels and so adds to a rotated noise term;
    - kappa: a fixed-unit run whose channel read kappa, as the
      fixed-from-seed channel does.
    """

    SEED = 5
    TRIALS = 300

    def trials(self, mode, **scaled):
        base = SystemConfig(master_seed=self.SEED)
        config = replace(base, **{k: f * getattr(base, k) for k, f in scaled.items()})
        plan = ExperimentPlan(config=config, trials=self.TRIALS, channel_mode=mode)
        return run_trials(plan)

    def samples(self, mode, **scaled):
        return self.trials(mode, **scaled).samples

    def report(self, mode, **scaled):
        return summarize(self.trials(mode, **scaled), eta=1.0)

    @pytest.mark.parametrize("mode", list(ChannelMode))
    @pytest.mark.parametrize("factor", [4, 16])
    def test_units_scale_every_distortion(self, mode, factor):
        base = self.samples(mode)
        scaled = self.samples(mode, p_w=factor, n0=factor, p_x=factor)
        assert np.array_equal(scaled, factor * base)

    @pytest.mark.parametrize("mode", list(ChannelMode))
    def test_snr_scaling_leaves_every_distortion(self, mode):
        assert np.array_equal(self.samples(mode, n0=4, p_x=4), self.samples(mode))

    @pytest.mark.parametrize("mode", list(ChannelMode))
    @pytest.mark.parametrize("factor", [4, 16])
    def test_units_scale_the_theory(self, mode, factor):
        # the mean, theory mean and variances scale by the factor or its
        # square; mean / theory_mean, the KS statistic and the exceedance
        # frequency do not move
        base = self.report(mode)
        scaled = self.report(mode, p_w=factor, n0=factor, p_x=factor)
        square = factor * factor
        theory_variance = (
            None if base.theory_variance is None else square * base.theory_variance
        )
        assert scaled.mean / scaled.theory_mean == base.mean / base.theory_mean
        assert scaled == replace(
            base,
            mean=factor * base.mean,
            variance=square * base.variance,
            theory_mean=factor * base.theory_mean,
            theory_variance=theory_variance,
        )

    @pytest.mark.parametrize("mode", list(ChannelMode))
    def test_snr_scaling_leaves_the_theory(self, mode):
        assert self.report(mode, n0=4, p_x=4) == self.report(mode)

    @pytest.mark.parametrize("mode", list(ChannelMode))
    def test_precoding_with_root_p_breaks_the_snr_relation(self, monkeypatch, mode):
        name, mutate = CHAIN_BUGS["root-p-for-p"]
        fixed = ExperimentPlan(
            config=SystemConfig(master_seed=self.SEED), channel_mode=mode
        ).fixed
        monkeypatch.setattr(channel, name, mutate(getattr(channel, name), fixed))
        base = self.samples(mode)
        moved = np.abs(self.samples(mode, n0=4, p_x=4) / base - 1)
        # the mutation moves distortions by 0.7 to 5.3 relative at this seed
        assert moved.max() > 0.1

    def moves(self, monkeypatch, change, mode=ChannelMode.FIXED_FROM_SEED, bug=None):
        """Each distortion's relative move when ``change(enc, fixed)`` gives
        the code and fixed channel to run instead, under chain bug ``bug``."""
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=self.SEED), channel_mode=mode
        )
        fixed = plan.fixed
        if bug is not None:
            name, mutate = CHAIN_BUGS[bug]
            monkeypatch.setattr(channel, name, mutate(getattr(channel, name), fixed))
        base, moved = (
            experiments._run_range(enc, plan.config, ch, 0, self.TRIALS)[0]
            for enc, ch in ((plan.enc, fixed), change(plan.enc, fixed))
        )
        return np.abs(moved / base - 1)

    def turn(self, enc, fixed):
        """Every coefficient h_k turned to h_k e^{i theta_k}."""
        theta = np.random.default_rng(self.SEED).uniform(0, 2 * np.pi, fixed.k_users)
        return enc, ChannelRealization(fixed.coefficients * np.exp(1j * theta))

    def rotate(self, enc, fixed):
        """phi -> phi V for a unitary V."""
        draws = sample_complex_gaussian(Rng(self.SEED), enc.l * enc.l, 1.0)
        v = qr_orthonormal(draws.reshape(enc.l, enc.l))
        return EncodingMatrix(enc.phi @ v), fixed

    def permute(self, enc, fixed):
        """The coefficients handed to the users in another order."""
        order = np.random.default_rng(self.SEED).permutation(fixed.k_users)
        return enc, ChannelRealization(fixed.coefficients[order])

    def test_phases_leave_every_distortion(self, monkeypatch):
        # only rounding moves (3.2e-15 at most at this seed); the turn can
        # also move min_gain, and with it p, by an ulp
        assert self.moves(monkeypatch, self.turn).max() <= 1e-12

    @pytest.mark.parametrize("bug", ["conjugate-precode", "h-for-inverse-h"])
    def test_fade_bugs_break_the_phase_relation(self, monkeypatch, bug):
        # every trial moves: by 1.8e-3 to 25.5 (conjugate-precode) and
        # 7.6e-3 to 13.7 (h-for-inverse-h) relative at this seed
        assert self.moves(monkeypatch, self.turn, bug=bug).min() > 1e-3

    @pytest.mark.parametrize("mode", list(ChannelMode))
    def test_rotating_the_code_leaves_every_distortion(self, monkeypatch, mode):
        # only rounding moves: at most 4.3e-14 (fixed-unit), 1.7e-14
        # (rician-per-trial) and 9.8e-15 (fixed-from-seed) at this seed
        assert self.moves(monkeypatch, self.rotate, mode).max() <= 1e-12

    @pytest.mark.parametrize(
        "bug", ["conjugate-precode", "h-for-inverse-h", "root-p-for-p"]
    )
    def test_chain_bugs_break_the_rotation_relation(self, monkeypatch, bug):
        # the largest move is 1.19 (conjugate-precode), 0.53
        # (h-for-inverse-h) and 1.91 (root-p-for-p) relative at this seed
        assert self.moves(monkeypatch, self.rotate, bug=bug).max() > 0.1

    def test_permuting_the_channel_leaves_every_distortion(self, monkeypatch):
        # only the order of the superposition's sum moves: at most 2.6e-15
        assert self.moves(monkeypatch, self.permute).max() <= 1e-12

    @pytest.mark.parametrize("bug", ["conjugate-precode", "h-for-inverse-h"])
    def test_fade_bugs_break_the_permutation_relation(self, monkeypatch, bug):
        # the largest move is 7.98 (conjugate-precode) and 6.50
        # (h-for-inverse-h) relative at this seed
        assert self.moves(monkeypatch, self.permute, bug=bug).max() > 0.1

    def kappa_pair(self, mode):
        """The samples at rician_kappa_db 5 and at -20."""
        config = SystemConfig(master_seed=self.SEED)
        return [
            run_trials(ExperimentPlan(c, trials=self.TRIALS, channel_mode=mode)).samples
            for c in (config, replace(config, rician_kappa_db=-20.0))
        ]

    def test_kappa_leaves_every_fixed_unit_distortion(self):
        assert np.array_equal(*self.kappa_pair(ChannelMode.FIXED_UNIT_MIN_GAIN))

    def test_a_channel_that_reads_kappa_breaks_the_kappa_relation(self):
        assert not np.array_equal(*self.kappa_pair(ChannelMode.FIXED_FROM_SEED))


def transmit_powers(monkeypatch, plan):
    """Each user's average transmit power p R p_w / |h_k|^2 per complex
    dimension in each round of ``run_trials(plan)``, shape (trials, users).

    Read off the arguments of every encode_and_precode call the run makes.
    """
    calls = []
    original = channel.encode_and_precode

    def recorded(enc, w_k, h_k, p):
        calls.append((p, h_k))
        return original(enc, w_k, h_k, p)

    monkeypatch.setattr(channel, "encode_and_precode", recorded)
    run_trials(plan)
    cfg = plan.config
    p, h = (np.array(column) for column in zip(*calls))
    powers = p * cfg.rate * cfg.p_w / np.abs(h) ** 2
    return powers.reshape(plan.trials, cfg.k_users)


class TestPerUserCap:
    """Every round runs at P*: no user above the cap p_x, the weakest at it.

    Both hold within 16 u relative to p_x, u the unit round-off; 500
    trials come within 2.6 u in each mode and config below. Neither check
    can fail by chance.
    """

    TRIALS = 500
    SLACK = 16 * np.finfo(float).eps / 2
    CONFIGS = {
        "reference": SystemConfig(master_seed=5),
        "three-users": SystemConfig(
            k_users=3, l=2, l_tilde=6, p_w=0.7, p_x=3.1, master_seed=5
        ),
    }

    @pytest.mark.parametrize("mode", list(ChannelMode))
    @pytest.mark.parametrize("config", list(CONFIGS))
    def test_weakest_user_meets_the_cap_and_none_exceeds_it(
        self, monkeypatch, mode, config
    ):
        cfg = self.CONFIGS[config]
        plan = ExperimentPlan(config=cfg, trials=self.TRIALS, channel_mode=mode)
        powers = transmit_powers(monkeypatch, plan)
        assert powers.shape == (self.TRIALS, cfg.k_users)
        assert np.all(powers <= cfg.p_x * (1 + self.SLACK))
        assert np.all(np.abs(powers.max(axis=1) - cfg.p_x) <= self.SLACK * cfg.p_x)

    def test_largest_gain_power_breaks_the_cap_at_first_trial(self, monkeypatch):
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=5),
            trials=1,
            channel_mode=ChannelMode.FIXED_FROM_SEED,
        )
        name, mutate = CHAIN_BUGS["largest-gain-power"]
        monkeypatch.setattr(channel, name, mutate(getattr(channel, name), plan.fixed))
        # the weakest user transmits at 29.3 times the cap at this seed
        assert transmit_powers(monkeypatch, plan)[0].max() > 2 * plan.config.p_x
