"""Shared encoding matrices for sum-preserving coded transmission.

Every transmitter applies one identical tall matrix ``phi`` (l_tilde x l)
to its source vector, so the receiver sees a coded version of the sum and
can undo the code with a single pseudo-inverse. A valid matrix satisfies

    trace(phi^H phi) = l            (power preservation)
    every l-row subset of phi has full rank   (decoding feasibility)

and the distortion of the decoded sum depends on phi only through the
eigenvalues of phi^H phi (the Gram spectrum). Orthonormal columns make the
spectrum all ones, which is the distortion-optimal choice.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .analysis import DistortionLaw
from .errors import InvalidShape, RankDeficient
from .numerics import (
    RANK_TOLERANCE,
    Rng,
    exact_int,
    finite_float,
    hermitian_eigenvalues,
    pseudo_inverse,
    qr_orthonormal,
    sample_complex_gaussian,
)

# Relative slack on the power constraint trace(phi^H phi) = l.
POWER_TOLERANCE = 1e-8

# Gram eigenvalues are squared singular values, hence the squared cutoff.
_GRAM_RANK_TOLERANCE = RANK_TOLERANCE**2

DEFAULT_MAX_EXHAUSTIVE_SUBSETS = 100_000
DEFAULT_SAMPLE_COUNT = 1_000

# Bytes of stacked l x l row-subset matrices per np.linalg.svd call in
# ``validate``: large enough that LAPACK, not Python, sets the pace, and
# small enough that memory stays bounded whatever the subset count.
SVD_BATCH_BYTES = 256 * 1024


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

    power_ok: bool
    rank_mode: RankMode
    subsets_checked: int
    rank_ok: bool
    worst_min_singular_ratio: float
    gram_spectrum: list[float]

    @property
    def ok(self) -> bool:
        return self.power_ok and self.rank_ok


@dataclass(eq=False)
class EncodingMatrix:
    """Tall encoding matrix shared by every transmitter.

    Rows are channel uses (l_tilde), columns are source dimensions (l);
    both are read from ``phi``. Instances are treated as immutable once
    built; the decoder (pseudo-inverse) and Gram matrix are cached lazily.
    """

    phi: np.ndarray
    construction: Construction = Construction.CUSTOM
    l_tilde: int = field(init=False)
    l: int = field(init=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.complex128)
        if phi.ndim != 2:
            raise InvalidShape("encoding matrix must be 2-D")
        self.l_tilde, self.l = phi.shape
        if self.l < 1 or self.l_tilde < self.l:
            raise InvalidShape(
                f"encoding shape needs l_tilde >= l >= 1, got "
                f"({self.l_tilde}, {self.l})"
            )
        if not np.isfinite(phi).all():
            raise ValueError("encoding matrix entries must be finite")
        self.phi = phi

    @property
    def rate(self) -> float:
        return self.l / self.l_tilde

    @cached_property
    def gram(self) -> np.ndarray:
        return self.phi.conj().T @ self.phi

    @cached_property
    def decoder(self) -> np.ndarray:
        """Left pseudo-inverse used to undo the code at the receiver."""
        return pseudo_inverse(self.phi)

    @cached_property
    def phi_matvec(self):
        """``v -> phi @ v``, bit for bit, through the cheapest call (``_matvec``)."""
        return _matvec(self.phi)

    @cached_property
    def decoder_matvec(self):
        """``v -> decoder @ v``, bit for bit, through the cheapest call."""
        return _matvec(self.decoder)


def _matvec(m: np.ndarray):
    """``m.dot`` where it gives the bits of ``m @ v``, else ``m.__matmul__``.

    For a C-contiguous matrix with both dimensions at least 2, ``m @ v``
    and ``m.dot(v)`` make the same BLAS zgemv call, and ``dot`` skips the
    ufunc dispatch (0.9 against 1.6 us at 10x5). Elsewhere matmul may take
    another path: an ``n x 1`` matrix goes through its own loop, which
    rounds differently from ``dot``.
    """
    if m.flags.c_contiguous and min(m.shape) >= 2:
        return m.dot
    return m.__matmul__


def construct_random_orthonormal(l_tilde: int, l: int, rng: Rng) -> EncodingMatrix:
    """Optimal construction: orthonormalize an i.i.d. CN(0,1) matrix.

    The resulting columns are orthonormal (phi^H phi = I up to round-off),
    and the row-subset rank condition holds almost surely. Deterministic
    given the rng key.
    """
    if l < 1 or l_tilde < l:
        raise InvalidShape(
            f"need l_tilde >= l >= 1, got ({l_tilde}, {l})"
        )
    a = sample_complex_gaussian(rng, l_tilde * l, 1.0).reshape(l_tilde, l)
    return EncodingMatrix(qr_orthonormal(a), Construction.RANDOM_ORTHONORMAL)


def construct_identity(l: int) -> EncodingMatrix:
    """Uncoded baseline: phi = I_l, one channel use per source dimension."""
    if l < 1:
        raise InvalidShape("need l >= 1")
    return EncodingMatrix(np.eye(l, dtype=np.complex128), Construction.IDENTITY)


def construct_repetition(l: int, m: int = 1) -> EncodingMatrix:
    """Stack m scaled copies of the identity: phi = [I_l; ...; I_l]/sqrt(m).

    m = 1 is the uncoded baseline. For m >= 2 the Gram matrix is still the
    identity (so the expected distortion is optimal), but duplicate rows
    break the row-subset rank condition, which validation will flag.
    """
    if l < 1:
        raise InvalidShape("need l >= 1")
    if m < 1:
        raise InvalidShape("need at least one repetition block")
    phi = np.tile(np.eye(l, dtype=np.complex128), (m, 1)) / math.sqrt(m)
    return EncodingMatrix(phi, Construction.REPETITION)


def validate(
    enc: EncodingMatrix,
    max_exhaustive_subsets: int = DEFAULT_MAX_EXHAUSTIVE_SUBSETS,
    sample_count: int = DEFAULT_SAMPLE_COUNT,
    rng: Rng | None = None,
) -> ValidationReport:
    """Check the power constraint and the row-subset rank condition.

    All C(l_tilde, l) row subsets are tested when there are at most
    ``max_exhaustive_subsets`` of them; otherwise ``sample_count`` subsets
    are drawn uniformly (requires ``rng``). A subset passes when its
    min/max singular-value ratio exceeds the rank tolerance. Subsets go
    through stacked SVDs of about ``SVD_BATCH_BYTES`` each, so memory stays
    bounded and the report equals a one-subset-at-a-time check. The report
    also carries the Gram spectrum, which fully determines the distortion
    law downstream.
    """
    trace = float(np.trace(enc.gram).real)
    power_ok = abs(trace - enc.l) <= POWER_TOLERANCE * enc.l

    total = math.comb(enc.l_tilde, enc.l)
    # exhaustive whenever it is no more work than sampling, so sampled
    # reports always check strictly fewer subsets than exist
    if total <= max(max_exhaustive_subsets, sample_count):
        mode = RankMode.EXHAUSTIVE
        subsets = itertools.combinations(range(enc.l_tilde), enc.l)
        count = total
    else:
        if rng is None:
            raise ValueError("sampled rank validation requires an rng")
        if sample_count < 1:
            raise ValueError("sample_count must be positive")
        mode = RankMode.SAMPLED
        subsets = (
            tuple(sorted(rng.gen.choice(enc.l_tilde, size=enc.l, replace=False)))
            for _ in range(sample_count)
        )
        count = sample_count

    # Batches are read in the iterator's order, so sampled subsets are
    # drawn from rng exactly as one at a time would draw them.
    batch = max(1, SVD_BATCH_BYTES // (enc.phi.itemsize * enc.l * enc.l))
    worst = math.inf
    while rows := list(itertools.islice(subsets, batch)):
        sv = np.linalg.svd(enc.phi[rows], compute_uv=False)
        top = sv[:, 0]
        # a zero matrix has no largest singular value to divide by: ratio 0
        ratios = np.divide(sv[:, -1], top, out=np.zeros_like(top), where=top > 0)
        worst = min(worst, float(ratios.min()))
    rank_ok = worst > RANK_TOLERANCE

    return ValidationReport(
        power_ok=power_ok,
        rank_mode=mode,
        subsets_checked=count,
        rank_ok=rank_ok,
        worst_min_singular_ratio=worst,
        gram_spectrum=gram_spectrum(enc).tolist(),
    )


def gram_spectrum(enc: EncodingMatrix) -> np.ndarray:
    """Eigenvalues of phi^H phi, ascending. Sums to trace(phi^H phi)."""
    return hermitian_eigenvalues(enc.gram)


def distortion_law(enc: EncodingMatrix, rho: float) -> DistortionLaw:
    """Decoded-sum distortion law of ``enc`` at normalized SNR rho.

    Its mean, (1 / (l * rho)) * sum_l 1/lambda_l over the Gram spectrum, is
    at least 1/rho over trace-l matrices, with equality exactly for
    orthonormal columns. A rank-deficient matrix raises RankDeficient.
    """
    spectrum = gram_spectrum(enc)
    if spectrum[0] <= _GRAM_RANK_TOLERANCE * spectrum[-1] or spectrum[0] <= 0:
        raise RankDeficient(
            "Gram spectrum has a vanishing eigenvalue; encoding matrix is "
            "rank deficient"
        )
    return DistortionLaw(spectrum, rho)


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


def load_matrix(path) -> EncodingMatrix:
    """Read a matrix file and wrap it as a Custom encoding matrix.

    The file is validated structurally here; run ``validate`` afterwards to
    check the power/rank conditions (custom matrices are accepted even when
    they violate them, with the report carrying the findings).
    """
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    try:
        rows = exact_int(blob["rows"], "rows")
        cols = exact_int(blob["cols"], "cols")
        re, im = (
            np.array([finite_float(v, part) for v in blob[part]])
            for part in ("re", "im")
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed matrix file {path}: {exc}") from exc
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"matrix file {path} carries {re.size}/{im.size} entries, "
            f"expected {rows * cols}"
        )
    return EncodingMatrix((re + 1j * im).reshape(rows, cols))
