"""Complex linear-algebra and statistics kernels.

Domain-free building blocks: seeded random streams, orthonormalization,
spectra, pseudo-inverses, circularly symmetric Gaussian sampling, the
regularized lower incomplete gamma function, and a one-sample
Kolmogorov-Smirnov statistic. All matrix routines operate on complex128
numpy arrays; callers own the domain semantics of rows and columns.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import EmptySample, NotHermitian, RankDeficient

# A matrix counts as full column rank iff min_sv > RANK_TOLERANCE * max_sv.
RANK_TOLERANCE = 1e-9

# Stricter cutoff used as the orthonormalization precondition.
_QR_RANK_TOLERANCE = 1e-12

_HERMITIAN_TOLERANCE = 1e-10

_U64 = (1 << 64) - 1


class Rng:
    """Counter-based random stream keyed by ``(master_seed, stream)``.

    Wraps numpy's Philox bit generator (philox4x64-10). Distinct
    ``(master_seed, stream)`` keys give statistically independent streams,
    so per-trial generators derive directly from the trial index and the
    draw sequence never depends on execution order. Identical keys replay
    identical sequences on every platform.
    """

    algorithm = "philox4x64-10"

    def __init__(self, master_seed: int, stream: int = 0):
        self.master_seed = int(master_seed)
        self.stream = int(stream)
        key = np.array(
            [self.master_seed & _U64, self.stream & _U64], dtype=np.uint64
        )
        self.gen = np.random.Generator(np.random.Philox(key=key))

    def derive(self, stream: int) -> "Rng":
        """Fresh independent stream under the same master seed."""
        return Rng(self.master_seed, stream)

    def __repr__(self) -> str:
        return f"Rng(master_seed={self.master_seed}, stream={self.stream})"


def _as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def qr_orthonormal(a) -> np.ndarray:
    """Orthonormal basis for the column span of a tall full-rank matrix.

    Reduced QR via LAPACK Householder reflections, with column phases fixed
    so the R factor has a real positive diagonal. That pins a unique Q for
    a given input (any orthonormal basis would be equally valid downstream,
    but a fixed convention keeps outputs byte-reproducible).
    """
    a = _as_matrix(a)
    sv = np.linalg.svd(a, compute_uv=False)
    if a.shape[0] < a.shape[1] or sv[-1] <= _QR_RANK_TOLERANCE * sv[0]:
        raise RankDeficient(
            f"input of shape {a.shape} is not full column rank "
            f"(singular-value ratio {sv[-1] / sv[0]:.3e})"
        )
    q, r = np.linalg.qr(a, mode="reduced")
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def hermitian_eigenvalues(m) -> np.ndarray:
    """All real eigenvalues of a Hermitian matrix, sorted ascending."""
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotHermitian(f"matrix of shape {m.shape} is not square")
    if np.max(np.abs(m - m.conj().T)) >= _HERMITIAN_TOLERANCE:
        raise NotHermitian("matrix deviates from its Hermitian transpose")
    return np.linalg.eigvalsh(m)


def pseudo_inverse(m) -> np.ndarray:
    """Left Moore-Penrose pseudo-inverse (m^H m)^-1 m^H.

    Requires rows >= cols and full column rank; then pseudo_inverse(m) @ m
    is the identity up to round-off.
    """
    m = _as_matrix(m)
    sv = np.linalg.svd(m, compute_uv=False)
    if m.shape[0] < m.shape[1] or sv[-1] <= RANK_TOLERANCE * sv[0]:
        raise RankDeficient(
            f"cannot pseudo-invert a rank-deficient matrix of shape {m.shape}"
        )
    mh = m.conj().T
    return np.linalg.solve(mh @ m, mh)


def sample_complex_gaussian(rng: Rng, n: int, variance: float) -> np.ndarray:
    """n i.i.d. circularly symmetric complex Gaussian draws CN(0, variance).

    Real and imaginary parts are independent normals of variance
    ``variance / 2`` each (ziggurat draws from the underlying stream; the
    real block is drawn before the imaginary block).
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if variance <= 0:
        raise ValueError("variance must be positive")
    z = rng.gen.standard_normal((2, n))
    return math.sqrt(variance / 2.0) * (z[0] + 1j * z[1])


def regularized_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(shape, x).

    Series expansion for x < shape + 1, modified-Lentz continued fraction
    for the upper tail otherwise. Absolute error stays below 1e-10 up to
    shape 3e4 and below 1e-9 up to shape 1e5, where rounding in the
    exp(shape log x - lgamma(shape)) prefactor dominates. Monotone
    nondecreasing in x with P(shape, 0) = 0.
    """
    if shape <= 0:
        raise ValueError("shape must be positive")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 0.0
    # Near x = shape both expansions need O(sqrt(shape)) terms; the early
    # exits keep small shapes at a handful of iterations.
    max_iter = 500 + int(20.0 * math.sqrt(shape))
    if x < shape + 1.0:
        return _lower_gamma_series(shape, x, max_iter)
    return 1.0 - _upper_gamma_continued_fraction(shape, x, max_iter)


def _gamma_prefactor(shape: float, x: float) -> float:
    return math.exp(shape * math.log(x) - x - math.lgamma(shape))


def _lower_gamma_series(shape: float, x: float, max_iter: int) -> float:
    ap = shape
    term = 1.0 / shape
    total = term
    for _ in range(max_iter):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            return min(1.0, total * _gamma_prefactor(shape, x))
    raise RuntimeError("incomplete gamma series did not converge")


def _upper_gamma_continued_fraction(shape: float, x: float, max_iter: int) -> float:
    tiny = 1e-300
    b = x + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * _gamma_prefactor(shape, x)
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def ks_distance(
    samples: Sequence[float], cdf: Callable[[float], float]
) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F|.

    ``samples`` must be sorted ascending; both the i/n and (i-1)/n sides of
    the empirical CDF step are compared against ``cdf``.
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise EmptySample("KS distance needs at least one sample")
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if np.any(np.diff(s) < 0):
        raise ValueError("samples must be sorted ascending")
    n = s.size
    f = np.fromiter((cdf(x) for x in s), dtype=float, count=n)
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / n))
    return float(max(d_plus, d_minus, 0.0))
