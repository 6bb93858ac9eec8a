import itertools
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aircomp import coding
from aircomp.coding import (
    Construction,
    EncodingMatrix,
    RankMode,
    construct_identity,
    construct_random_orthonormal,
    construct_repetition,
    distortion_law,
    gram_spectrum,
    load_matrix,
    save_matrix,
    validate,
)
from aircomp.errors import InvalidShape, RankDeficient
from aircomp.numerics import Rng, sample_complex_gaussian


def skewed_two_by_two():
    """Custom matrix with Gram spectrum {0.5, 1.5} and trace 2."""
    return EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))


class TestRandomOrthonormal:
    def test_square_case_is_unitary(self):
        enc = construct_random_orthonormal(5, 5, Rng(1))
        assert np.max(np.abs(enc.gram - np.eye(5))) < 1e-10
        # inverse-trace factor of a unitary Gram is exactly l
        assert np.trace(np.linalg.inv(enc.gram)).real == pytest.approx(5.0)

    def test_validator_passes_seed_42(self):
        enc = construct_random_orthonormal(10, 5, Rng(42))
        report = validate(enc)
        assert report.power_ok and report.rank_ok
        assert report.rank_mode is RankMode.EXHAUSTIVE
        assert report.subsets_checked == math.comb(10, 5)

    def test_deterministic_given_seed(self):
        a = construct_random_orthonormal(4, 2, Rng(7))
        b = construct_random_orthonormal(4, 2, Rng(7))
        assert np.array_equal(a.phi, b.phi)

    def test_rejects_wide_shape(self):
        with pytest.raises(InvalidShape):
            construct_random_orthonormal(4, 5, Rng(0))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        l=st.integers(1, 6),
        extra=st.integers(0, 8),
    )
    def test_property_orthonormal_and_power_preserving(self, seed, l, extra):
        enc = construct_random_orthonormal(l + extra, l, Rng(seed))
        assert np.max(np.abs(enc.gram - np.eye(l))) < 1e-10
        trace = float(np.trace(enc.gram).real)
        assert abs(trace - l) < 1e-8 * l


class TestRepetition:
    def test_single_block_is_identity(self):
        enc = construct_repetition(5, 1)
        assert np.array_equal(enc.phi, np.eye(5))
        assert enc.construction is Construction.REPETITION

    def test_two_blocks_fail_rank_validation(self):
        enc = construct_repetition(2, 2)
        # rows are {e1, e2, e1, e2}/sqrt(2); the {0, 2} subset is rank 1
        sub = enc.phi[[0, 2], :]
        assert np.linalg.matrix_rank(sub) == 1
        report = validate(enc)
        assert report.rank_mode is RankMode.EXHAUSTIVE
        assert not report.rank_ok
        assert report.power_ok

    def test_gram_stays_optimal(self):
        enc = construct_repetition(2, 2)
        assert np.allclose(enc.gram, np.eye(2), atol=1e-14)
        # expected-MSE factor is unaffected by the duplicate rows
        assert distortion_law(enc, 1.0).mean == pytest.approx(1.0)

    def test_trace_is_exact(self):
        for m in (1, 2, 3):
            enc = construct_repetition(3, m)
            assert np.trace(enc.gram).real == pytest.approx(3.0, abs=1e-12)

    def test_repetition_rank_behavior_by_block_count(self):
        assert validate(construct_repetition(2, 1)).rank_ok
        for m in (2, 3, 4):
            assert not validate(construct_repetition(2, m)).rank_ok


class TestValidate:
    def test_exhaustive_six_choose_three(self):
        enc = construct_random_orthonormal(6, 3, Rng(3))
        report = validate(enc)
        assert report.subsets_checked == 20
        assert report.rank_ok

    def test_identity_single_subset(self):
        report = validate(construct_identity(4))
        assert report.subsets_checked == 1
        assert report.rank_ok and report.power_ok

    def test_sampled_mode(self):
        enc = construct_random_orthonormal(6, 3, Rng(4))
        report = validate(
            enc, max_exhaustive_subsets=10, sample_count=15, rng=Rng(4, 99)
        )
        assert report.rank_mode is RankMode.SAMPLED
        assert report.subsets_checked == 15
        assert report.rank_ok

    def test_sampled_mode_requires_rng(self):
        enc = construct_random_orthonormal(8, 4, Rng(5))
        with pytest.raises(ValueError):
            validate(enc, max_exhaustive_subsets=10, sample_count=15)

    def test_exhaustive_wins_when_sampling_would_cost_more(self):
        # C(6,3) = 20 <= sample_count, so sampling would be wasted work
        enc = construct_random_orthonormal(6, 3, Rng(5))
        report = validate(enc, max_exhaustive_subsets=10, sample_count=25)
        assert report.rank_mode is RankMode.EXHAUSTIVE
        assert report.subsets_checked == 20

    def test_gram_spectrum_recorded(self):
        report = validate(skewed_two_by_two())
        assert report.power_ok
        assert np.allclose(sorted(report.gram_spectrum), [0.5, 1.5])
        assert sum(report.gram_spectrum) == pytest.approx(2.0, abs=1e-6)

    def test_power_violation_flagged(self):
        enc = EncodingMatrix(2.0 * np.eye(3))
        report = validate(enc)
        assert not report.power_ok
        assert report.rank_ok


def reference_rank_check(enc, max_exhaustive_subsets, sample_count, rng):
    """(mode, count, worst ratio) from one SVD per row subset, in order."""
    total = math.comb(enc.l_tilde, enc.l)
    if total <= max(max_exhaustive_subsets, sample_count):
        mode, count = RankMode.EXHAUSTIVE, total
        subsets = itertools.combinations(range(enc.l_tilde), enc.l)
    else:
        mode, count = RankMode.SAMPLED, sample_count
        subsets = [
            tuple(sorted(rng.gen.choice(enc.l_tilde, size=enc.l, replace=False)))
            for _ in range(sample_count)
        ]
    worst = math.inf
    for rows in subsets:
        sv = np.linalg.svd(enc.phi[list(rows), :], compute_uv=False)
        worst = min(worst, float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0)
    return mode, count, worst


def set_svd_batch(monkeypatch, enc, batch):
    """Make validate stack ``batch`` subsets per SVD (None: the default)."""
    if batch is not None:
        size = batch * enc.phi.itemsize * enc.l * enc.l
        monkeypatch.setattr(coding, "SVD_BATCH_BYTES", size)


class TestValidateBatches:
    @pytest.mark.parametrize("batch", [1, 7, None])
    @pytest.mark.parametrize(
        "enc, max_exhaustive, samples",
        [
            # 330 subsets, not a multiple of 7
            (construct_random_orthonormal(11, 4, Rng(21)), 100_000, 1000),
            # duplicate rows: rank-deficient subsets among full-rank ones
            (construct_repetition(3, 2), 100_000, 1000),
            # 100 of the 252 subsets sampled
            (construct_random_orthonormal(10, 5, Rng(22)), 10, 100),
        ],
        ids=["exhaustive", "repetition", "sampled"],
    )
    def test_matches_one_subset_at_a_time(
        self, monkeypatch, batch, enc, max_exhaustive, samples
    ):
        set_svd_batch(monkeypatch, enc, batch)
        report = validate(enc, max_exhaustive, samples, rng=Rng(4, 99))
        mode, count, worst = reference_rank_check(
            enc, max_exhaustive, samples, Rng(4, 99)
        )
        assert report.rank_mode is mode
        assert report.subsets_checked == count
        assert report.worst_min_singular_ratio == worst

    @pytest.mark.parametrize("batch", [1, None])
    def test_zero_subset_has_ratio_zero_without_warning(self, monkeypatch, batch):
        enc = EncodingMatrix(np.array([[1.0], [0.0]]))
        set_svd_batch(monkeypatch, enc, batch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate(enc)
        assert report.worst_min_singular_ratio == 0.0
        assert not report.rank_ok
        assert report.power_ok

    def test_memory_stays_bounded(self):
        # stacking all C(16, 8) = 12870 subsets at once would take ~13 MiB
        enc = construct_random_orthonormal(16, 8, Rng(23))
        tracemalloc.start()
        try:
            report = validate(enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.subsets_checked == 12870
        assert peak < 4 * 2**20


class TestGramSpectrum:
    def test_orthonormal_is_all_ones(self):
        enc = construct_random_orthonormal(8, 4, Rng(6))
        assert np.allclose(gram_spectrum(enc), np.ones(4), atol=1e-10)

    def test_skewed_diagonal(self):
        assert np.allclose(gram_spectrum(skewed_two_by_two()), [0.5, 1.5])

    def test_positive_for_full_rank(self):
        enc = construct_random_orthonormal(7, 3, Rng(8))
        assert np.all(gram_spectrum(enc) > 0)

    def test_sums_to_trace(self):
        enc = skewed_two_by_two()
        assert gram_spectrum(enc).sum() == pytest.approx(
            np.trace(enc.gram).real, rel=1e-12
        )


class TestTheoreticalMse:
    def test_orthonormal_reduces_to_inverse_snr(self):
        enc = construct_random_orthonormal(10, 5, Rng(9))
        assert distortion_law(enc, 10.0).mean == pytest.approx(
            0.1, rel=1e-10
        )

    def test_skewed_spectrum_value(self):
        # (1/2) * (1/0.5 + 1/1.5) = 4/3
        assert distortion_law(skewed_two_by_two(), 1.0).mean == pytest.approx(
            4.0 / 3.0, rel=1e-12
        )

    def test_jensen_lower_bound(self):
        # any trace-l matrix has expected MSE >= 1/rho, equality iff orthonormal
        rho = 2.0
        for seed in range(100):
            a = sample_complex_gaussian(Rng(seed, 123), 18, 1.0).reshape(6, 3)
            a *= math.sqrt(3.0 / np.trace(a.conj().T @ a).real)
            enc = EncodingMatrix(a)
            assert distortion_law(enc, rho).mean >= (1 / rho) * (1 - 1e-12)
        ortho = construct_random_orthonormal(6, 3, Rng(10))
        assert distortion_law(ortho, rho).mean == pytest.approx(
            1 / rho, abs=1e-8
        )

    def test_rank_deficient_rejected(self):
        enc = EncodingMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(RankDeficient):
            distortion_law(enc, 1.0)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            distortion_law(skewed_two_by_two(), 0.0)


class TestEncodingMatrixType:
    def test_shape_invariant(self):
        with pytest.raises(InvalidShape):
            EncodingMatrix(np.ones((2, 3)))
        with pytest.raises(InvalidShape):
            EncodingMatrix(np.zeros((3, 0)))
        with pytest.raises(InvalidShape):
            EncodingMatrix(np.ones(3))

    def test_nonfinite_rejected(self):
        bad = np.eye(2)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            EncodingMatrix(bad)

    def test_rate(self):
        assert construct_random_orthonormal(10, 5, Rng(13)).rate == 0.5


class TestMatrixFile:
    def test_roundtrip(self, tmp_path):
        enc = construct_random_orthonormal(6, 3, Rng(14))
        path = tmp_path / "phi.json"
        save_matrix(enc, path)
        loaded = load_matrix(path)
        assert loaded.construction is Construction.CUSTOM
        assert np.array_equal(loaded.phi, enc.phi)

    def test_schema_fields(self, tmp_path):
        enc = skewed_two_by_two()
        path = tmp_path / "phi.json"
        save_matrix(enc, path)
        blob = json.loads(path.read_text())
        assert set(blob) == {"rows", "cols", "re", "im"}
        assert blob["rows"] == 2 and blob["cols"] == 2
        assert len(blob["re"]) == 4 and len(blob["im"]) == 4

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": 2, "cols": 2, "re": [1, 0], "im": [0, 0]}')
        with pytest.raises(ValueError):
            load_matrix(path)

    def test_wide_matrix_rejected(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            '{"rows": 1, "cols": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}'
        )
        with pytest.raises(InvalidShape):
            load_matrix(path)
