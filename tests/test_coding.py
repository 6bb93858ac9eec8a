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
    EncodingMatrix,
    RankMode,
    construct_random_orthonormal,
    construct_repetition,
    distortion_law,
    gram_spectrum,
    load_matrix,
    save_matrix,
    validate,
)
from aircomp.errors import InvalidShape, RankDeficient, ShapeMismatch
from aircomp.numerics import Rng, sample_complex_gaussian, sample_subsets


def skewed_two_by_two():
    """Custom matrix with Gram spectrum {0.5, 1.5} and trace 2."""
    return EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))


def gram(enc):
    return enc.phi.conj().T @ enc.phi


class TestRandomOrthonormal:
    def test_square_case_is_unitary(self):
        enc = construct_random_orthonormal(5, 5, Rng(1))
        assert np.max(np.abs(gram(enc) - np.eye(5))) < 1e-10
        # inverse-trace factor of a unitary Gram is exactly l
        assert np.trace(np.linalg.inv(gram(enc))).real == pytest.approx(5.0)

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
        assert np.max(np.abs(gram(enc) - np.eye(l))) < 1e-10
        trace = float(np.trace(gram(enc)).real)
        assert abs(trace - l) < 1e-8 * l


class TestRepetition:
    def test_single_block_is_identity(self):
        enc = construct_repetition(5, 1)
        assert np.array_equal(enc.phi, np.eye(5))

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
        assert np.allclose(gram(enc), np.eye(2), atol=1e-14)
        # expected-MSE factor is unaffected by the duplicate rows
        assert distortion_law(enc, 1.0).mean == pytest.approx(1.0)

    def test_trace_is_exact(self):
        for m in (1, 2, 3):
            enc = construct_repetition(3, m)
            assert np.trace(gram(enc)).real == pytest.approx(3.0, abs=1e-12)

    def test_repetition_rank_behavior_by_block_count(self):
        assert validate(construct_repetition(2, 1)).rank_ok
        for m in (2, 3, 4):
            assert not validate(construct_repetition(2, m)).rank_ok

    @pytest.mark.parametrize(
        "l, m, message", [(0, 1, "l >= 1"), (2, 0, "at least one repetition block")]
    )
    def test_empty_shape_rejected(self, l, m, message):
        with pytest.raises(InvalidShape, match=message):
            construct_repetition(l, m)


class TestValidate:
    def test_exhaustive_six_choose_three(self):
        enc = construct_random_orthonormal(6, 3, Rng(3))
        report = validate(enc)
        assert report.subsets_checked == 20
        assert report.rank_ok

    def test_identity_single_subset(self):
        report = validate(construct_repetition(4))
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

    @pytest.mark.parametrize("max_exhaustive", [-1, -5])
    def test_negative_max_exhaustive_rejected(self, max_exhaustive):
        enc = construct_random_orthonormal(6, 3, Rng(3))
        with pytest.raises(ValueError, match="max_exhaustive_subsets"):
            validate(enc, max_exhaustive_subsets=max_exhaustive)

    def test_sampled_mode_requires_rng(self):
        enc = construct_random_orthonormal(8, 4, Rng(5))
        with pytest.raises(ValueError):
            validate(enc, max_exhaustive_subsets=10, sample_count=15)

    def test_sampled_mode_requires_a_positive_count(self):
        enc = construct_random_orthonormal(8, 4, Rng(5))
        with pytest.raises(ValueError, match="sample_count must be positive"):
            validate(enc, max_exhaustive_subsets=10, sample_count=0, rng=Rng(5))

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
        # one subset per call: validate's batched draws must give the same
        subsets = [
            sample_subsets(rng, 1, enc.l_tilde, enc.l)[0]
            for _ in range(sample_count)
        ]
    worst = math.inf
    for rows in subsets:
        sv = np.linalg.svd(enc.phi[list(rows), :], compute_uv=False)
        worst = min(worst, float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0)
    return mode, count, worst


def set_svd_batch(monkeypatch, enc, batch):
    """Make validate take ``batch`` subsets per batch (None: the default)."""
    if batch is not None:
        # validate's working set per subset: the subset, its conjugate and
        # its Gram matrix, plus the singular values
        size = batch * (3 * enc.phi.itemsize * enc.l * enc.l + 8 * enc.l)
        monkeypatch.setattr(coding, "SVD_BATCH_BYTES", size)


def set_piece(monkeypatch, batches):
    """Make validate draw ``batches`` whole batches per piece (None: the default)."""
    if batches is not None:
        monkeypatch.setattr(coding, "_piece", lambda batch, l: batches * batch)


def count_stacks(monkeypatch, name):
    """Patch ``np.linalg.name`` to record the size of each stacked call."""
    original = getattr(np.linalg, name)
    sizes = []

    def counted(a, *args, **kwargs):
        if a.ndim == 3:
            sizes.append(len(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return sizes


def record_choleskys(monkeypatch):
    """Patch ``coding._cholesky`` to record each stack it factors."""
    original = coding._cholesky
    stacks = []

    def recorded(a, *args, **kwargs):
        stacks.append(a)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(coding, "_cholesky", recorded)
    return stacks


def with_row_near(enc, row, source, scale, seed):
    """``enc`` with ``row`` replaced by row ``source`` plus a ``scale`` nudge."""
    phi = enc.phi.copy()
    nudge = sample_complex_gaussian(Rng(seed, 7), enc.l, 1.0)
    phi[row] = phi[source] + scale * nudge
    return EncodingMatrix(phi)


def with_zero_column(enc):
    phi = enc.phi.copy()
    phi[:, 0] = 0
    return EncodingMatrix(phi)


def with_spectrum(l_tilde, sigma, seed):
    """U diag(sigma) V^H with U's columns orthonormal and V unitary."""
    l = len(sigma)
    u = construct_random_orthonormal(l_tilde, l, Rng(seed)).phi
    vh = construct_random_orthonormal(l, l, Rng(seed, 1)).phi
    return EncodingMatrix(u @ (np.asarray(sigma)[:, None] * vh))


def with_row_scaled(enc, row, factor):
    phi = enc.phi.copy()
    phi[row] *= factor
    return EncodingMatrix(phi)


def partial_dft(l_tilde, l):
    """Columns of the unitary DFT: cyclic row shifts keep every singular
    value, so many subsets tie and rounding alone picks the worst."""
    k = np.arange(l_tilde)[:, None] * np.arange(l)[None, :]
    return EncodingMatrix(np.exp(2j * np.pi * k / l_tilde) / math.sqrt(l_tilde))


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
            # two rows equal up to 1e-8 and 1e-12: the 28 subsets holding
            # both are near-singular, the worst ratio near the rank tolerance
            (with_row_near(construct_random_orthonormal(10, 4, Rng(24)), 6, 2, 1e-8, 1),
             100_000, 1000),
            (with_row_near(construct_random_orthonormal(10, 4, Rng(25)), 9, 0, 1e-12, 2),
             100_000, 1000),
            # every subset singular: nothing can be screened out
            (with_zero_column(construct_random_orthonormal(9, 4, Rng(26))), 100_000, 1000),
            (partial_dft(12, 4), 100_000, 1000),
            (construct_random_orthonormal(9, 1, Rng(27)), 100_000, 1000),
            (construct_random_orthonormal(6, 6, Rng(28)), 100_000, 1000),
            # 150 sampled subsets of the benchmark's 64x32 shape
            (construct_random_orthonormal(64, 32, Rng(29)), 10, 150),
            # singular values from 1 down to 1e-6: ratios far below one
            (with_spectrum(12, np.geomspace(1.0, 1e-6, 6), 30), 100_000, 1000),
            # one row 1e3 times the rest: phi's sigma_max, which caps every
            # subset's, is far above that of the subsets without the row
            (with_row_scaled(construct_random_orthonormal(12, 6, Rng(31)), 4, 1e3),
             100_000, 1000),
            (EncodingMatrix(1e100 * construct_random_orthonormal(16, 8, Rng(32)).phi),
             100_000, 1000),
            # so tall that validate draws its subsets one per call
            (construct_random_orthonormal(40_000, 2, Rng(34)), 10, 50),
            # all C(16, 8) subsets of the benchmark's shape, and all C(20, 5):
            # both form their Grams from the table of row outer products
            (construct_random_orthonormal(16, 8, Rng(35)), 100_000, 1000),
            (construct_random_orthonormal(20, 5, Rng(36)), 100_000, 1000),
        ],
        ids=[
            "exhaustive", "repetition", "sampled", "near-dependent-1e-8",
            "near-dependent-1e-12", "zero-column", "ties", "l-is-1",
            "l-is-l-tilde", "sampled-64x32", "spread-spectrum", "one-big-row",
            "orthonormal-times-1e100", "sampled-tall", "exhaustive-16x8",
            "exhaustive-20x5",
        ],
    )
    def test_matches_one_subset_at_a_time(
        self, monkeypatch, batch, enc, max_exhaustive, samples
    ):
        set_svd_batch(monkeypatch, enc, batch)
        mode, count, worst = reference_rank_check(
            enc, max_exhaustive, samples, Rng(4, 99)
        )
        # 1 and 7 batches per piece and the default put the piece
        # boundaries, where each draw starts, at different ranks
        for pieces in (1, 7, None):
            with monkeypatch.context() as patch:
                set_piece(patch, pieces)
                report = validate(enc, max_exhaustive, samples, rng=Rng(4, 99))
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

    def test_screen_leaves_few_subsets_to_the_svd(self, monkeypatch):
        # the Gram screen must leave almost every one of the C(16, 8) =
        # 12870 subsets out of the SVD, or the speed-up has silently gone
        svd = np.linalg.svd
        reached = []

        def counted(a, *args, **kwargs):
            reached.append(len(a) if a.ndim == 3 else 1)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        report = validate(construct_random_orthonormal(16, 8, Rng(23)))
        assert report.subsets_checked == 12870 and report.rank_ok
        assert 0 < sum(reached) < 12870 // 100

    @pytest.mark.parametrize(
        "l_tilde, l, operands", [(16, 8, (2, "float64")), (64, 32, (3, "complex128"))]
    )
    def test_gram_route_follows_the_shape(self, monkeypatch, l_tilde, l, operands):
        # 16x8 must form each batch's Grams with one real product of its row
        # indicator by the outer-product table, and 64x32 with the stacked
        # complex product, or the faster route has silently gone
        matmul = np.matmul
        calls = []

        def recorded(a, b, *args, **kwargs):
            calls.append((a.ndim, b.dtype.name))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", recorded)
        enc = construct_random_orthonormal(l_tilde, l, Rng(23))
        report = validate(enc, rng=Rng(4, 99))
        assert report.rank_ok
        assert calls and set(calls) == {operands}

    def test_sampled_draw_takes_one_call_per_piece(self, monkeypatch):
        # 1000 subsets of 64x32 go in 200 batches of 5; they must be drawn
        # in 8 pieces of 25 batches, one sample_subsets call each, or the
        # per-call cost of drawing has silently come back
        sample = coding.sample_subsets
        calls = []

        def recorded(rng, n, size, k):
            calls.append(n)
            return sample(rng, n, size, k)

        monkeypatch.setattr(coding, "sample_subsets", recorded)
        report = validate(construct_random_orthonormal(64, 32, Rng(23)), rng=Rng(4, 99))
        assert report.rank_mode is RankMode.SAMPLED and report.subsets_checked == 1000
        assert calls == [125] * 8

    def test_exhaustive_draw_unranks_one_piece_at_a_time(self, monkeypatch):
        # C(16, 8) = 12870 subsets in 156 batches of 83: 26 pieces of 6
        # batches, each one unranking call, and no itertools enumeration
        def forbidden(*args):
            raise AssertionError("itertools.combinations called")

        unrank = coding.lexicographic_subsets
        draws = []

        def recorded(size, k):
            subsets = unrank(size, k)

            def drawn(start, n):
                draws.append((start, n))
                return subsets(start, n)

            return drawn

        monkeypatch.setattr(itertools, "combinations", forbidden)
        monkeypatch.setattr(coding, "lexicographic_subsets", recorded)
        report = validate(construct_random_orthonormal(16, 8, Rng(23)))
        assert report.subsets_checked == 12870 and report.rank_ok
        assert draws == [(a, min(498, 12870 - a)) for a in range(0, 12870, 498)]

    def test_cholesky_clears_most_batches(self, monkeypatch):
        # after the first batch sets a worst ratio, the Cholesky certificate
        # must keep almost all of the 156 batches of C(16, 8) subsets away
        # from the SVD
        stacks = count_stacks(monkeypatch, "svd")
        report = validate(construct_random_orthonormal(16, 8, Rng(23)))
        assert report.subsets_checked == 12870 and report.rank_ok
        assert 0 < len(stacks) < 16

    @pytest.mark.parametrize(
        "l_tilde, l, batch, stack, stacks",
        # C(16, 8) = 12870 subsets in 26 pieces of 498, C(64, 32) sampled
        # 1000 in 8 pieces of 125: stacks end where pieces do
        [(16, 8, 83, 256, 52), (64, 32, 5, 16, 64)],
    )
    def test_cholesky_stacks_fill_svd_batch_bytes(
        self, monkeypatch, l_tilde, l, batch, stack, stacks
    ):
        # after the first batch, which goes straight to the SVD, every
        # subset is certified once, in stacks of as many l x l complex Grams
        # as fill SVD_BATCH_BYTES, or the per-call cost has silently come back
        assert coding.SVD_BATCH_BYTES // (16 * l * l) == stack
        choleskys = record_choleskys(monkeypatch)
        report = validate(
            construct_random_orthonormal(l_tilde, l, Rng(23)), rng=Rng(4, 99)
        )
        sizes = [len(c) for c in choleskys]
        assert report.rank_ok
        assert sizes[0] == stack and max(sizes) <= stack
        assert sum(sizes) == report.subsets_checked - batch
        assert len(sizes) == stacks

    def test_singular_batches_cost_one_cholesky_call(self, monkeypatch):
        # every subset of a matrix with a zero column is singular, so no
        # subset clears, and each batch after the first (which has no worst
        # ratio yet) costs one stacked Cholesky call
        svds = count_stacks(monkeypatch, "svd")
        choleskys = record_choleskys(monkeypatch)
        report = validate(with_zero_column(construct_random_orthonormal(12, 6, Rng(33))))
        assert report.worst_min_singular_ratio == 0.0
        assert sum(svds) == 924
        assert len(svds) > 2 and len(choleskys) == len(svds) - 1
        assert [len(c) for c in choleskys] == svds[1:]

    def test_only_uncleared_subsets_reach_the_svd(self, monkeypatch):
        # rows {e1, e2, e3, e1, e2, e3} / sqrt(2): a subset is singular
        # exactly when it holds a repeated row. In batches of 10, the second
        # batch (subsets 10-19 in lexicographic order) has singular subsets
        # 11, 12, 13 in its first half and 15, 17, 18 in its second; those
        # six alone go to the SVD, the four orthonormal ones are cleared
        enc = construct_repetition(3, 2)
        set_svd_batch(monkeypatch, enc, 10)
        svds = count_stacks(monkeypatch, "svd")
        report = validate(enc)
        assert report.subsets_checked == 20 and not report.rank_ok
        assert svds == [10, 6]

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

    def test_exhaustive_draw_stays_bounded(self):
        # C(447, 2) = 99681 subsets: unranking them all at once would hold
        # about 4 MiB of row indices and ranks
        enc = construct_random_orthonormal(447, 2, Rng(23))
        enc.svd  # cached on the matrix, not part of validate's working set
        tracemalloc.start()
        try:
            report = validate(enc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.rank_mode is RankMode.EXHAUSTIVE
        assert report.subsets_checked == 99681 and report.rank_ok
        assert peak < 2**20

    def test_tall_sampled_draw_stays_bounded(self):
        # 200 subsets of a 5000x1 matrix fit one batch, and shuffling all
        # 5000 row indices for each at once would take ~8 MiB
        enc = EncodingMatrix(np.ones((5000, 1)) / math.sqrt(5000))
        tracemalloc.start()
        try:
            report = validate(enc, 10, 200, rng=Rng(4, 99))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.rank_mode is RankMode.SAMPLED and report.rank_ok
        assert peak < 4 * 2**20


def at_the_boundary(test):
    """Parametrize over l x l matrices U diag(sigma) V^H with singular
    values from 1 down to rho, so every true ratio is rho and phi's
    sigma_max caps it tightly, at three scales."""
    test = pytest.mark.parametrize(
        "l, rho",
        [(1, 1.0)] + [(l, rho) for l in (2, 8, 32) for rho in (1.0, 1e-3, 1e-8)],
    )(test)
    return pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])(test)


def assert_cleared_only_below(gram, rho, cap):
    """``_cleared`` refuses ratio rho and, where rho >= 1e-6, clears rho / 2.

    ``gram()`` gives a fresh stack per call: ``_cleared`` shifts its stack
    in place.
    """
    assert not coding._cleared(gram(), rho * (1 + 1e-6), cap)
    if rho >= 1e-6:
        assert coding._cleared(gram(), rho / 2, cap)


class TestCholeskyClear:
    @at_the_boundary
    def test_sound_at_the_boundary(self, l, rho, scale):
        enc = EncodingMatrix(scale * with_spectrum(l, np.geomspace(1.0, rho, l), 40 + l).phi)
        screened, cap = coding._unit_scaled(enc)
        assert_cleared_only_below(
            lambda: (screened.conj().T @ screened)[None], rho, cap
        )

    @at_the_boundary
    def test_sound_at_the_boundary_by_table(self, l, rho, scale):
        # the same matrix above l rows of singular values 1e-3, left out of
        # the subset, so the GEMM also adds 0 times their outer products;
        # they raise phi's sigma_max^2, and with it the cap, by 1e-6
        subset = with_spectrum(l, np.geomspace(1.0, rho, l), 40 + l).phi
        rest = with_spectrum(l, np.full(l, 1e-3), 50 + l).phi
        enc = EncodingMatrix(scale * np.vstack([subset, rest]))
        screened, cap = coding._unit_scaled(enc)
        table = coding._outer_products(screened)
        work = coding._Workspace(1, len(screened), l, True)
        assert_cleared_only_below(
            lambda: coding._grams(screened, table, np.arange(l)[None], work), rho, cap
        )

    def test_verdicts_match_numpy_cholesky_one_matrix_at_a_time(self, monkeypatch):
        # guards the private gufunc behind np.linalg.cholesky: each Gram's
        # verdict must be whether the public call completes on its own
        b = sample_complex_gaussian(Rng(41), 9, 1.0).reshape(3, 3)
        gram = np.stack([
            b.conj().T @ b,  # positive definite
            np.zeros((3, 3)),
            np.diag([1.0, -1.0, 1.0]),  # indefinite
            np.diag([1.0, 1.0, 1e-9]),  # below the shift at r = 1e-4
            np.diag([1.0, 1.0, 1e-7]),  # just above it
            # a tiny second pivot that passes and makes the third fail
            np.array([[1.0, 0, 0], [0, 1e-6, 1], [0, 1, 1]]),
        ]).astype(np.complex128)
        choleskys = record_choleskys(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mask = coding._cleared(gram, 1e-4, 1.0)
            (shifted,) = choleskys
            expected = []
            for m in shifted:
                try:
                    expected.append(bool(np.isfinite(np.linalg.cholesky(m)).all()))
                except np.linalg.LinAlgError:
                    expected.append(False)
        assert mask.dtype == bool
        assert mask.tolist() == expected == [True, False, False, False, True, False]
        # _cleared reads each verdict from the factor's first entry, so a
        # failed factor must be NaN throughout, the first entry included,
        # even where the failure comes after that entry was computed
        with np.errstate(all="ignore"):
            factors = coding._cholesky(shifted)
            tiny_pivot = np.eye(3, dtype=np.complex128)
            tiny_pivot[1, 1] = 1e-300
            tiny_pivot[1, 2] = tiny_pivot[2, 1] = 1
            late_failure = coding._cholesky(tiny_pivot)
        assert np.isnan(factors[~mask]).all()
        assert np.isfinite(factors[mask]).all()
        assert np.isnan(late_failure).all()


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
            np.trace(gram(enc)).real, rel=1e-12
        )

    def test_ascending_order(self):
        a = sample_complex_gaussian(Rng(6), 30, 1.0).reshape(6, 5)
        assert np.all(np.diff(gram_spectrum(EncodingMatrix(a))) >= 0)

    def test_two_by_two_by_characteristic_polynomial(self):
        # Gram [[2, 1], [1, 2]]: det([[2-x, 1], [1, 2-x]]) = 0  =>  x in {1, 3}
        enc = EncodingMatrix(np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(gram_spectrum(enc), [1.0, 3.0], atol=1e-12)


class TestDecoder:
    def test_identity(self):
        assert np.allclose(EncodingMatrix(np.eye(3)).decoder, np.eye(3))

    def test_orthonormal_columns_give_hermitian_transpose(self):
        enc = construct_random_orthonormal(5, 2, Rng(7))
        assert np.max(np.abs(enc.decoder - enc.phi.conj().T)) < 1e-10

    def test_single_column(self):
        # (m^H m)^-1 m^H = (1/4) * [2, 0] = [0.5, 0]
        enc = EncodingMatrix(np.array([[2.0], [0.0]]))
        assert np.allclose(enc.decoder, [[0.5, 0.0]])

    def test_left_inverse_property(self):
        m = sample_complex_gaussian(Rng(8), 18, 1.0).reshape(6, 3)
        enc = EncodingMatrix(m)
        assert np.max(np.abs(enc.decoder @ m - np.eye(3))) < 1e-8

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficient):
            EncodingMatrix(np.array([[1.0, 1.0], [1.0, 1.0]])).decoder


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

    @pytest.mark.parametrize("rows, cols", [(-2, -3), (-3, -1), (3, -1), (0, 0)])
    def test_non_positive_shape_rejected(self, tmp_path, rows, cols):
        # numpy's reshape reads -1 as "infer", so this must come before it
        path = tmp_path / "bad.json"
        n = abs(rows * cols)
        blob = {"rows": rows, "cols": cols, "re": [1.0] * n, "im": [0.0] * n}
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="rows and cols must be positive"):
            load_matrix(path)

    def test_shape_is_checked_before_any_matrix_is_built(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "phi.json"
        save_matrix(construct_random_orthonormal(6, 3, Rng(14)), path)
        built = []
        monkeypatch.setattr(
            coding, "EncodingMatrix",
            lambda phi: built.append(phi) or EncodingMatrix(phi),
        )
        with pytest.raises(ShapeMismatch, match=r"^matrix file shape \(6, 3\)"):
            load_matrix(path, (10, 5))
        assert built == []
        assert load_matrix(path, (6, 3)).phi.shape == (6, 3)
        assert load_matrix(path).phi.shape == (6, 3)
        assert len(built) == 2

    @pytest.mark.parametrize(
        "re, error",
        [
            ("[1.5, NaN]", "re must be a finite number, got nan"),
            ("[Infinity, 1.5]", "re must be a finite number, got inf"),
            ("[1.5, -Infinity]", "re must be a finite number, got -inf"),
            ("[1.5, 1e400]", "re must be a finite number, got inf"),
            ("[1.5, true]", "re must be a finite number, got True"),
            ('[1.5, "1"]', "re must be a finite number, got '1'"),
            ("[1, 1" + "0" * 400 + "]", "re must be a finite number, got 1000"),
            # the first bad entry is named, whatever follows it
            ("[NaN, true]", "re must be a finite number, got nan"),
            ("[false, NaN]", "re must be a finite number, got False"),
        ],
    )
    def test_bad_entry_is_named(self, tmp_path, re, error):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"rows": 2, "cols": 1, "re": {re}, "im": [0.0, 0.0]}}')
        with pytest.raises(ValueError) as caught:
            load_matrix(path)
        assert str(caught.value).startswith(f"malformed matrix file {path}: {error}")

    @pytest.mark.parametrize(
        "re, expected",
        [
            ("[1, -2]", [1.0, -2.0]),
            ("[1, 2.5]", [1.0, 2.5]),
            ("[1e-320, 1.7976931348623157e308]", [1e-320, 1.7976931348623157e308]),
            ("[1" + "0" * 300 + ", 0]", [1e300, 0.0]),
        ],
    )
    def test_entries_keep_their_values(self, tmp_path, re, expected):
        path = tmp_path / "phi.json"
        path.write_text(f'{{"rows": 2, "cols": 1, "re": {re}, "im": [0, 0.5]}}')
        phi = load_matrix(path).phi
        assert np.array_equal(phi, np.array(expected)[:, None] + [[0j], [0.5j]])

    def test_wide_matrix_rejected(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            '{"rows": 1, "cols": 2, "re": [1.0, 0.0], "im": [0.0, 0.0]}'
        )
        with pytest.raises(InvalidShape):
            load_matrix(path)
