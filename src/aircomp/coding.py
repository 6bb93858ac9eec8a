"""Shared encoding matrices for sum-preserving coded transmission.

Every transmitter applies one identical tall matrix ``phi`` (l_tilde x l)
to its source vector, so the receiver sees a coded version of the sum and
can undo the code with a single pseudo-inverse. A valid matrix satisfies

    trace(phi^H phi) = l            (power preservation)
    every l-row subset of phi has full rank   (decoding feasibility)

and the distortion of the decoded sum depends on phi only through the
eigenvalues of phi^H phi (the Gram spectrum), which are the squared
singular values of phi. Orthonormal columns make the spectrum all ones,
which is the distortion-optimal choice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from numpy.linalg import _umath_linalg

from .analysis import DistortionLaw
from .errors import InvalidShape, RankDeficient, ShapeMismatch
from .numerics import (
    RANK_TOLERANCE,
    Rng,
    exact_int,
    finite_floats,
    lexicographic_subsets,
    qr_orthonormal,
    require_code_shape,
    sample_complex_gaussian,
    sample_subsets,
)

# Relative slack on the power constraint trace(phi^H phi) = l.
POWER_TOLERANCE = 1e-8

DEFAULT_MAX_EXHAUSTIVE_SUBSETS = 100_000
DEFAULT_SAMPLE_COUNT = 1_000

# Bytes that size ``validate``'s stacked LAPACK calls. An SVD batch holds
# this much of stacked l x l row-subset matrices, their conjugates, Gram
# matrices and singular values. A certificate stack holds this much of
# l x l complex Gram matrices, and at least one batch. Its arrays are
# allocated once per call and reused stack after stack (``_Workspace``):
# the Grams, their Cholesky factors, and either the gathered subsets and
# their conjugates or, where the Grams come from the table of row outer
# products, an n x l_tilde float64 row indicator (at most 64 l bytes per
# subset under l_tilde <= 8 l) plus the table, under 2^14 complex entries
# (256 KiB). A stack's uncleared subsets go to one SVD call, so when
# nothing clears that call holds the SVD working set of a whole stack,
# under 3.5 times this. Small enough that memory stays bounded whatever
# the subset count, but not always large enough for BLAS and LAPACK alone
# to set the pace: at 64x32 a batch holds 5 subsets and a stack 16, so
# numpy's fixed cost per call counts. The subsets are therefore drawn by
# the piece (``_piece``), a whole number of batches whose row indices take
# about an eighth of this.
SVD_BATCH_BYTES = 256 * 1024

# Factor by which the screen in ``validate`` widens its worst-case rounding
# bounds, which take the "modestly growing" p(l) of the LAPACK bounds as l.
SCREEN_SAFETY = 16

_U = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny

# Lower Cholesky factor of each stacked matrix, NaN where it fails
_cholesky = _umath_linalg.cholesky_lo


class Construction(str, Enum):
    RANDOM_ORTHONORMAL = "random_orthonormal"
    IDENTITY = "identity"
    REPETITION = "repetition"
    CUSTOM = "custom"


class RankMode(str, Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


@dataclass(eq=False)
class ValidationReport:
    """Findings from checking the power and row-subset rank conditions."""

    rank_mode: RankMode
    subsets_checked: int
    worst_min_singular_ratio: float
    gram_spectrum: list[float]

    @property
    def rank_ok(self) -> bool:
        return self.worst_min_singular_ratio > RANK_TOLERANCE

    @property
    def trace(self) -> float:
        """trace(phi^H phi), the sum of the Gram spectrum; inf once it overflows."""
        return sum(self.gram_spectrum)

    @property
    def power_ok(self) -> bool:
        l = len(self.gram_spectrum)
        return abs(self.trace - l) <= POWER_TOLERANCE * l

    @property
    def ok(self) -> bool:
        return self.power_ok and self.rank_ok


@dataclass(eq=False)
class EncodingMatrix:
    """Tall encoding matrix shared by every transmitter.

    Rows are channel uses (l_tilde), columns are source dimensions (l);
    both are read from ``phi``, and ``scale`` is its largest entry
    magnitude (1 for a zero matrix). A nonzero phi whose largest entry is
    subnormal is rejected, since dividing by it would overflow. Instances
    are treated as immutable once built. One thin SVD of ``phi``, cached
    on first use, gives the Gram spectrum, the rank verdict and the
    decoder.
    """

    phi: np.ndarray
    l_tilde: int = field(init=False)
    l: int = field(init=False)
    scale: float = field(init=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.complex128)
        if phi.ndim != 2:
            raise InvalidShape("encoding matrix must be 2-D")
        self.l_tilde, self.l = phi.shape
        require_code_shape(self.l_tilde, self.l)
        if not np.isfinite(phi).all():
            raise ValueError("encoding matrix entries must be finite")
        if 0 < (largest := float(np.abs(phi).max())) < _TINY:
            raise ValueError(
                f"encoding matrix's largest entry {largest:.3g} is subnormal"
            )
        self.phi = phi
        self.scale = largest or 1.0

    @property
    def rate(self) -> float:
        return self.l / self.l_tilde

    @cached_property
    def svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(u, sigma, vh)`` of phi, sigma descending.

        Factored at unit largest entry, ``phi / scale`` as in ``validate``,
        with sigma rescaled afterwards, so the factorization neither
        overflows nor underflows whatever the scale of phi.
        """
        u, sigma, vh = np.linalg.svd(self.phi / self.scale, full_matrices=False)
        return u, sigma * self.scale, vh

    def require_full_rank(self) -> None:
        """Raise RankDeficient unless sigma_min > RANK_TOLERANCE * sigma_max."""
        sigma = self.svd[1]
        if not sigma[-1] > RANK_TOLERANCE * sigma[0]:
            raise RankDeficient("encoding matrix is not full column rank")

    @cached_property
    def decoder(self) -> np.ndarray:
        """Left pseudo-inverse V diag(1/sigma) U^H, which undoes the code.

        Its error grows like kappa u, not the kappa^2 u of a solve with the
        Gram matrix (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 20).
        """
        self.require_full_rank()
        u, sigma, vh = self.svd
        return (vh.conj().T / sigma) @ u.conj().T


def construct_random_orthonormal(l_tilde: int, l: int, rng: Rng) -> EncodingMatrix:
    """Optimal construction: orthonormalize an i.i.d. CN(0,1) matrix.

    The resulting columns are orthonormal (phi^H phi = I up to round-off),
    and the row-subset rank condition holds almost surely. Deterministic
    given the rng key.
    """
    require_code_shape(l_tilde, l)
    a = sample_complex_gaussian(rng, l_tilde * l, 1.0).reshape(l_tilde, l)
    return EncodingMatrix(qr_orthonormal(a))


def construct_repetition(l: int, m: int = 1) -> EncodingMatrix:
    """Stack m scaled copies of the identity: phi = [I_l; ...; I_l]/sqrt(m).

    m = 1 is the uncoded baseline. For m >= 2 the Gram matrix is still the
    identity (so the expected distortion is optimal), but duplicate rows
    break the row-subset rank condition, which validation will flag.
    """
    if m < 1:
        raise InvalidShape("need at least one repetition block")
    require_code_shape(m * l, l)
    phi = np.tile(np.eye(l, dtype=np.complex128), (m, 1)) / math.sqrt(m)
    return EncodingMatrix(phi)


def validate(
    enc: EncodingMatrix,
    max_exhaustive_subsets: int = DEFAULT_MAX_EXHAUSTIVE_SUBSETS,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    rng: Rng | None = None,
) -> ValidationReport:
    """Check the power constraint and the row-subset rank condition.

    All C(l_tilde, l) row subsets are tested when there are at most
    ``max_exhaustive_subsets`` of them (which must be non-negative), in
    lexicographic order (``lexicographic_subsets``); otherwise
    ``sample_count`` subsets are drawn uniformly from ``rng`` (required
    then) by ``sample_subsets``. A subset passes when its min/max
    singular-value ratio exceeds the rank tolerance. The report carries the
    Gram spectrum, which fully determines the distortion law downstream and
    whose sum is the power constraint's trace.

    Subsets are drawn in pieces of whole SVD batches (``_piece``), one
    unranking or ``sample_subsets`` call per piece (a tall phi splits its
    sampled piece further), and both draws give the same subsets whatever
    the piece size. The worst ratio is the least of the SVD ratios, and a
    computed SVD ratio lies within m = SCREEN_SAFETY (2l + 5) u of the true
    one, u being the unit roundoff: LAPACK Users' Guide §4.9 bounds each
    singular value's error by l u sigma_max. With ``worst`` the least
    computed ratio so far, some true ratio is at most h = worst + m, and a
    subset whose true ratio exceeds h + 2m has a computed ratio above
    ``worst`` and can be left out. The first SVD batch, about
    ``SVD_BATCH_BYTES`` of SVD working set, goes straight to the SVD, since
    there is no worst ratio yet. Every later subset is certified in a stack
    of as many subsets as fill ``SVD_BATCH_BYTES`` with their l x l complex
    Grams, at least one batch, within one piece, in arrays reused from one
    stack to the next (``_Workspace``), in two stages:

    1. Cholesky clear: the stack forms its Gram matrices G = B^H B
       (``_grams``), and a Cholesky factorization of G - tau I that
       completes proves the subset's true ratio above r = worst + 3m
       (``_cleared``, which budgets tau; Higham, Accuracy and Stability of
       Numerical Algorithms, 2002, Thm 10.3). One stacked call gives each
       subset its own verdict. Where ``_by_table(l_tilde, l)`` holds, the
       Grams come from one real GEMM per stack: the stack's 0/1 row
       indicator (n x l_tilde) times a table, built once per call, of the
       rows' outer products conj(s_i)^T s_i (l_tilde x l^2 complex, viewed
       as float64); otherwise from one small complex product per subset.
       Either way the Gram lies within the rounding term that ``_cleared``
       budgets for it.
    2. SVD: the stack's uncleared subsets go through one ``np.linalg.svd``
       call (``_least_ratio``).

    A cleared subset's computed ratio lies above the worst ratio at its
    stack, so the report is bit-identical to an SVD of every subset, one
    at a time, however the subsets are stacked. At 16x8 a batch holds 83
    subsets and a stack 256, at 64x32 5 and 16. When every subset is
    singular, nothing can be cleared, and each stack pays one failed
    Cholesky call on top of its SVDs: a 12x6 matrix with a zero column
    takes 1.0-1.2 times as long as with SVDs alone.
    """
    if max_exhaustive_subsets < 0:
        raise ValueError("max_exhaustive_subsets must be non-negative")

    l_tilde, l = enc.l_tilde, enc.l
    total = math.comb(l_tilde, l)
    # exhaustive whenever it is no more work than sampling, so sampled
    # reports always check strictly fewer subsets than exist
    if total <= max(max_exhaustive_subsets, sample_count):
        mode = RankMode.EXHAUSTIVE
        count = total
        draw = lexicographic_subsets(l_tilde, l)
    else:
        if rng is None:
            raise ValueError("sampled rank validation requires an rng")
        if sample_count < 1:
            raise ValueError("sample_count must be positive")
        mode = RankMode.SAMPLED
        count = sample_count
        # each subset is cut from a shuffle of all l_tilde row indices, so
        # a tall phi draws its piece in parts that keep those shuffles
        # within SVD_BATCH_BYTES; the subsets do not depend on the parts
        part = max(1, SVD_BATCH_BYTES // (8 * l_tilde))

        def draw(start, n):
            return np.concatenate([
                sample_subsets(rng, min(part, n - a), l_tilde, l)
                for a in range(0, n, part)
            ])

    margin = SCREEN_SAFETY * (2 * l + 5) * _U
    screened, cap = _unit_scaled(enc)
    table = _outer_products(screened) if _by_table(l_tilde, l) else None
    batch = max(1, SVD_BATCH_BYTES // (3 * enc.phi.itemsize * l * l + 8 * l))
    piece = _piece(batch, l)
    grams_fit = SVD_BATCH_BYTES // (enc.phi.itemsize * l * l)
    stack = min(max(batch, grams_fit), piece, count)
    work = _Workspace(stack, l_tilde, l, table is not None)
    worst = math.inf
    for start in range(0, count, piece):
        drawn = draw(start, min(piece, count - start))
        # the first batch has no worst ratio to clear against
        first = batch if worst == math.inf else 0
        if first:
            worst = _least_ratio(enc.phi, drawn[:first])
        for at in range(first, len(drawn), stack):
            rows = drawn[at : at + stack]
            n = len(rows)
            gram = _grams(screened, table, rows, work)
            rows = rows[~_cleared(gram, worst + 3 * margin, cap, work.factors[:n])]
            if rows.size:
                worst = min(worst, _least_ratio(enc.phi, rows))

    return ValidationReport(
        rank_mode=mode,
        subsets_checked=count,
        worst_min_singular_ratio=worst,
        gram_spectrum=gram_spectrum(enc).tolist(),
    )


def _least_ratio(phi: np.ndarray, rows: np.ndarray) -> float:
    """Least computed min/max singular-value ratio over the row subsets ``rows``.

    One stacked ``np.linalg.svd`` call, which factors each subset on its
    own, so the ratios do not depend on how the subsets are stacked.
    """
    sv = np.linalg.svd(phi[rows], compute_uv=False)
    top = sv[:, 0]
    # a zero matrix has no largest singular value to divide by: ratio 0
    ratios = np.divide(sv[:, -1], top, out=np.zeros_like(top), where=top > 0)
    return float(ratios.min())


def _piece(batch: int, l: int) -> int:
    """Subsets ``validate`` draws at a time: whole batches of ``batch``.

    As many as keep the piece's row indices (8 l bytes per subset) within
    SVD_BATCH_BYTES / 8, and at least one batch. A piece spreads the
    draw's fixed cost over more subsets than a batch holds, while the
    batch and the certificate stacks, which set every stacked LAPACK call
    and the peak memory, keep their sizes (a stack never spans two pieces).
    """
    return batch * max(1, SVD_BATCH_BYTES // (64 * l * batch))


def _unit_scaled(enc: EncodingMatrix) -> tuple[np.ndarray, float]:
    """phi / s at unit largest entry, and a cap on every row subset's lambda_max.

    Ratios do not change with scale, and with entries of magnitude at most
    1 no Gram overflows. No row subset has a larger singular value than phi
    itself, so (sigma_max(phi) / s)^2, read from the cached SVD and widened
    by SCREEN_SAFETY (l_tilde + l) u for its error (LAPACK Users' Guide
    §4.9), bounds the Gram eigenvalues of every subset of phi / s.
    """
    s = enc.scale
    widen = 1 + SCREEN_SAFETY * (enc.l_tilde + enc.l) * _U
    return enc.phi / s, float(enc.svd[1][0] / s) ** 2 * widen


def _by_table(l_tilde: int, l: int) -> bool:
    """Whether ``validate`` forms its Grams from the table of row outer products.

    The table's GEMM costs l_tilde l^2 multiply-adds per subset, most of
    them by the indicator's zeros, against about l^3 plus a fixed cost per
    matrix for the stacked products, so the table wins while l_tilde is a
    small multiple of l and the table stays small. Whole-``validate`` time
    ratios, table over stack, best of 25 on one core of a 2-vCPU Intel Xeon
    host: 0.84 at 12x6, 0.70 at 16x8, 0.60 at 20x5, 0.56 at 32x4 and 0.86
    at 32x16, inside the rule; 1.00 at 64x16, 1.28 at 64x32 and 1.02 at
    128x8, outside it. Tall, thin shapes such as 200x2 (0.75) measured
    mixed results across runs and keep the stacked product.
    """
    return l_tilde <= 8 * l and l_tilde * l * l < 2**14


def _outer_products(screened: np.ndarray) -> np.ndarray:
    """Row i's outer product conj(s_i)^T s_i, flattened and viewed as float64.

    An l_tilde x 2 l^2 real table: a 0/1 row indicator times it sums the
    chosen rows' outer products, which is their Gram matrix B^H B.
    """
    l_tilde, l = screened.shape
    outer = screened.conj()[:, :, None] * screened[:, None, :]
    return outer.reshape(l_tilde, l * l).view(np.float64)


class _Workspace:
    """Arrays that ``validate`` reuses from one certificate stack to the next.

    Each holds up to ``n`` subsets: their Grams and Cholesky factors, and
    either their row indicators (the table route) or the gathered subsets
    and their conjugates (stacked products). An array of a whole stack can
    take SVD_BATCH_BYTES, past glibc's default 128 KiB mmap and trim
    thresholds, so once freed it goes back to the system, and a fresh one
    per stack would fault its pages in again. At 16x8 the Gram and
    Cholesky steps of one ``validate`` took 26.5 ms with fresh arrays per
    stack, 9.7 ms with these, and 12.5 ms in stacks of one batch (83
    subsets, under the thresholds), on one core of a 2-vCPU Intel Xeon
    host.
    """

    def __init__(self, n: int, l_tilde: int, l: int, by_table: bool):
        self.grams = np.empty((n, l, l), dtype=np.complex128)
        self.factors = np.empty_like(self.grams)
        if by_table:
            self.picks = np.zeros((n, l_tilde))
        else:
            self.subsets = np.empty_like(self.grams)
            self.conjugates = np.empty_like(self.grams)


def _grams(
    screened: np.ndarray,
    table: np.ndarray | None,
    rows: np.ndarray,
    work: _Workspace | None = None,
) -> np.ndarray:
    """The Gram matrices B^H B of the row subsets ``rows`` of ``screened``, stacked.

    With a ``table`` (``_outer_products``), one real GEMM of the stack's
    n x l_tilde row indicator by the table; without, one small complex
    product per subset. Formed in ``work``, a fresh one when none is given.
    """
    n, l = rows.shape
    if work is None:
        work = _Workspace(n, len(screened), l, table is not None)
    gram = work.grams[:n]
    if table is None:
        # mode="clip" gathers straight into ``out`` (the default buffers
        # it); every index is in range
        sub = np.take(screened, rows, axis=0, out=work.subsets[:n], mode="clip")
        conj = np.conjugate(sub, out=work.conjugates[:n])
        return np.matmul(conj.transpose(0, 2, 1), sub, out=gram)
    pick = work.picks[:n]
    pick.fill(0)
    pick[np.arange(n)[:, None], rows] = 1
    np.matmul(pick, table, out=gram.reshape(n, l * l).view(np.float64))
    return gram


def _cleared(
    gram: np.ndarray, r: float, cap: float, factors: np.ndarray | None = None
) -> np.ndarray:
    """Per stacked Gram, whether its true ratio is certified to exceed r.

    ``gram`` holds the computed Gram matrices of row subsets of phi / s,
    by either route of ``_grams``, and ``cap`` bounds every subset's true
    lambda_max. Per subset, with F = Re trace of its computed Gram, read
    from its diagonal, the shift is
    tau = r^2 cap + SCREEN_SAFETY (3l + 9) u F + l^2 tiny, subtracted from
    that diagonal in place: ``gram`` is the caller's fresh stack, and it
    holds the shifted matrices afterwards. The Cholesky factors go to
    ``factors`` when it is given, a stack of gram's shape. When the
    Cholesky factorization of a computed Gram minus tau I completes with a
    finite factor, the true Gram has lambda_min above tau less four errors,
    each a multiple of u F, 3 + 2 (l + 2) + (l + 1) + 1 = 3l + 9 in all:

    - 3 for rounding phi / s, which moves the Gram eigenvalues by at most
      3 u F;
    - 2 (l + 2) for the Gram product, which is within 2 (l + 2) u F of
      the exact one in norm (Higham, Accuracy and Stability of Numerical
      Algorithms, 2002, §3.5, with §3.6 for complex products). The table
      route fits the same term: each term conj(s_ia) s_ib is one complex
      product, two real products and one addition per part, and the GEMM
      sums the l chosen terms plus exact zeros (0 times a table entry is
      0, and adding 0 rounds nothing), so each part of an entry passes at
      most l + 1 roundings. Each part is then within gamma_(l+1)
      sum_i |s_ia| |s_ib| of the exact one, and the whole error within
      sqrt(2) (l + 1) u F <= 2 (l + 2) u F in norm;
    - l + 1 for Cholesky's backward error (ibid., Thm 10.3: R^H R is within
      gamma_(l+1) |R^H| |R| of the shifted matrix, whose trace is at most
      F);
    - 1 for rounding the shift.

    SCREEN_SAFETY covers second-order terms and l^2 times the smallest
    normal float gradual underflow, so lambda_min > r^2 cap >= r^2
    lambda_max, and the true ratio sqrt(lambda_min / lambda_max) exceeds r.

    ``np.linalg.cholesky`` raises for the whole stack when one
    factorization fails, so this calls the gufunc behind it
    (``_cholesky``), which runs the same LAPACK zpotrf on each matrix and
    fills every entry of a failed factor with NaN. The verdict is read
    from one entry, the factor's first: it is NaN exactly when the
    factorization failed, since a zpotrf that completes on finite input
    leaves a finite factor (an infinite entry would drive a later pivot to
    -inf or NaN, and the factorization would fail).
    """
    l = gram.shape[-1]
    diag = np.einsum("nii->ni", gram)  # a writable view
    f = diag.real.sum(axis=1)
    tau = r * r * cap + SCREEN_SAFETY * (3 * l + 9) * _U * f + l * l * _TINY
    diag -= tau[:, None]
    with np.errstate(all="ignore"):
        return ~np.isnan(_cholesky(gram, out=factors)[:, 0, 0])


def gram_spectrum(enc: EncodingMatrix) -> np.ndarray:
    """Eigenvalues of phi^H phi, ascending: the squared singular values of phi.

    Sums to trace(phi^H phi) up to rounding. An entry overflows to inf,
    without a warning, once a singular value passes about 1e154;
    ``DistortionLaw`` rejects such a spectrum.
    """
    with np.errstate(over="ignore"):
        return enc.svd[1][::-1] ** 2


def distortion_law(enc: EncodingMatrix, rho: float) -> DistortionLaw:
    """Decoded-sum distortion law of ``enc`` at normalized SNR rho.

    Its mean, sum_l c_l with weights c_l = 1 / (rho * l * lambda_l) over the
    Gram spectrum, is at least 1/rho over trace-l matrices, with equality
    exactly for orthonormal columns. The spectrum and the rank rule come from the same
    SVD as the decoder: a matrix the decoder rejects raises RankDeficient
    here too, and a spectrum that overflows raises ValueError.
    """
    enc.require_full_rank()
    return DistortionLaw(gram_spectrum(enc), rho)


# ---------------------------------------------------------------------------
# Matrix file format: {"rows": int, "cols": int, "re": [...], "im": [...]}
# with row-major entry order.
# ---------------------------------------------------------------------------


def save_matrix(enc: EncodingMatrix, path) -> None:
    blob = {
        "rows": enc.l_tilde,
        "cols": enc.l,
        "re": enc.phi.real.ravel().tolist(),
        "im": enc.phi.imag.ravel().tolist(),
    }
    # json.dumps runs the C encoder; json.dump to a file would not
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(blob) + "\n")


def load_matrix(path, shape: tuple[int, int] | None = None) -> EncodingMatrix:
    """Read a matrix file and wrap it as a Custom encoding matrix.

    The file is validated structurally here, and its ``(rows, cols)`` must
    equal ``shape`` = (l_tilde, l) when one is given (ShapeMismatch); run
    ``validate`` afterwards to check the power/rank conditions (custom
    matrices are accepted even when they violate them, with the report
    carrying the findings).
    """
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    try:
        rows = exact_int(blob["rows"], "rows")
        cols = exact_int(blob["cols"], "cols")
        if rows < 1 or cols < 1:
            raise ValueError(f"rows and cols must be positive, got {rows} and {cols}")
        re, im = (finite_floats(blob[part], part) for part in ("re", "im"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    if shape is not None and (rows, cols) != tuple(shape):
        raise ShapeMismatch(
            f"matrix file shape ({rows}, {cols}) does not match "
            f"(l_tilde, l) = ({shape[0]}, {shape[1]})"
        )
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix file {path} carries {re.size}/{im.size} entries, "
            f"expected {rows * cols}"
        )
    return EncodingMatrix((re + 1j * im).reshape(rows, cols))
