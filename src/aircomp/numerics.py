"""Complex linear-algebra and statistics kernels.

Domain-free building blocks: seeded random streams, orthonormalization,
circularly symmetric Gaussian sampling, uniform random subsets, every
subset by lexicographic rank, the regularized lower incomplete gamma
function, the one- and two-sample Kolmogorov-Smirnov statistics, the rank
rule, the code-shape rule, and the rules for counts and numbers read from
input files. Spectra and pseudo-inverses of an encoding matrix come from
its one cached SVD (``coding.EncodingMatrix.svd``). Matrix routines
operate on complex128 numpy arrays; callers own the domain semantics of
rows and columns.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import EmptySample, InvalidShape, RankDeficient

# The one rank rule: a matrix counts as full column rank iff
# min_sv > RANK_TOLERANCE * max_sv.
RANK_TOLERANCE = 1e-9

_U64 = (1 << 64) - 1

# Philox's starting counter. Given as an array, numpy copies it straight
# into the state; an int would go through a per-word conversion loop.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


class _PhiloxKey:
    """A fixed 128-bit Philox key in the role of numpy's seed sequence.

    ``Philox(key=...)`` first builds an OS-entropy ``SeedSequence`` only to
    discard it; passing this object as the seed skips that draw and gives
    the same state (counter 0, the given key). Philox asks it for two
    uint64 words.
    """

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.key


@functools.cache
def _philox_key_type() -> type:
    """``_PhiloxKey``, registered as a numpy ``ISeedSequence`` on first use.

    Registering lazily keeps ``numpy.random`` out of this module's import,
    so commands that never draw do not load it.
    """
    np.random.bit_generator.ISeedSequence.register(_PhiloxKey)
    return _PhiloxKey


class Rng:
    """Counter-based random stream keyed by ``(master_seed, stream)``.

    Wraps numpy's Philox bit generator (philox4x64-10) with key
    ``(master_seed mod 2^64, stream mod 2^64)`` and counter 0. The key goes
    to Philox directly; no OS entropy is read. Distinct keys give
    statistically independent streams, so per-trial generators derive
    directly from the trial index and the draw sequence never depends on
    execution order. Identical keys replay identical sequences on every
    platform.
    """

    algorithm = "philox4x64-10"

    def __init__(self, master_seed: int, stream: int = 0):
        self.master_seed = int(master_seed)
        self.stream = int(stream)
        key = np.array(
            [self.master_seed & _U64, self.stream & _U64], dtype=np.uint64
        )
        seed = _philox_key_type()(key)
        self.gen = np.random.Generator(np.random.Philox(seed, counter=_ZERO_COUNTER))

    def __repr__(self) -> str:
        return f"Rng(master_seed={self.master_seed}, stream={self.stream})"


def qr_orthonormal(a) -> np.ndarray:
    """Orthonormal basis for the column span of a tall full-rank matrix.

    Reduced QR via LAPACK Householder reflections, with column phases fixed
    so the R factor has a real positive diagonal. That pins a unique Q for
    a given input (any orthonormal basis would be equally valid downstream,
    but a fixed convention keeps outputs byte-reproducible).
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    sv = np.linalg.svd(a, compute_uv=False)
    if a.shape[0] < a.shape[1] or not sv[-1] > RANK_TOLERANCE * sv[0]:
        ratio = f" (singular-value ratio {sv[-1] / sv[0]:.3e})" if sv[0] else ""
        raise RankDeficient(
            f"input of shape {a.shape} is not full column rank{ratio}"
        )
    q, r = np.linalg.qr(a, mode="reduced")
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases[np.newaxis, :]


def sample_complex_gaussian(rng: Rng, n: int, variance: float) -> np.ndarray:
    """n i.i.d. circularly symmetric complex Gaussian draws CN(0, variance).

    Real and imaginary parts are independent normals of variance
    ``variance / 2`` each (ziggurat draws from the underlying stream; the
    real block is drawn before the imaginary block).
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if not 0 < variance < math.inf:
        raise ValueError(f"variance must be positive and finite, got {variance}")
    z = rng.gen.standard_normal((2, n))
    z *= math.sqrt(variance / 2.0)
    # one contiguous copy interleaves the (re, im) pairs
    return np.ascontiguousarray(z.T).view(np.complex128)[:, 0]


def sample_subsets(rng: Rng, n: int, size: int, k: int) -> np.ndarray:
    """n uniform k-subsets of range(size), one per row, each sorted ascending.

    Row i holds the first k entries of a uniform shuffle of range(size)
    (numpy's ``permuted``, one Fisher-Yates shuffle per row), so every
    k-subset is equally likely. Rows read the stream one after another, so
    n rows drawn at once equal the same rows drawn in any split of n.
    """
    if not 0 <= k <= size:
        raise ValueError(f"need 0 <= k <= size, got k={k}, size={size}")
    rows = rng.gen.permuted(np.tile(np.arange(size), (n, 1)), axis=1)
    return np.sort(rows[:, :k], axis=1)


def lexicographic_subsets(size: int, k: int) -> Callable[[int, int], np.ndarray]:
    """The k-subsets of range(size) by lexicographic rank, n at a time.

    Returns ``subsets(start, n)``: n rows, the subsets of ranks start to
    start + n - 1 in the order of ``itertools.combinations``, one per row,
    each sorted ascending. A row depends only on its rank, so n rows drawn
    at once equal the same rows drawn in any split of n.

    Unranking goes through the combinatorial number system (Knuth, TAOCP
    4A, §7.2.1.3): the subset of rank r, complemented as a_j = size - 1 -
    c_j, is the one whose sum of C(a_j, k - j) over j = 0, ..., k - 1 is
    m = C(size, k) - 1 - r, and each a_j is the largest a with
    C(a, k - j) at most what is left of m: one ``searchsorted`` per
    position over all n rows. The binomial tables are built here, once,
    and clipped at C(size, k), which leaves every such search unchanged
    since m stays below it, so no entry overflows int64. A C(size, k)
    beyond int64 raises ValueError.
    """
    if not 0 <= k <= size:
        raise ValueError(f"need 0 <= k <= size, got k={k}, size={size}")
    total = math.comb(size, k)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"C({size}, {k}) = {total:.3e} subsets are too many to rank")
    # binomial[j, a] = min(C(a, k - j), total), by C(a, i) = sum_{b<a} C(b, i - 1)
    binomial = np.empty((k, size), dtype=np.int64)
    column = [1] * size
    for j in range(k - 1, -1, -1):
        column = list(itertools.accumulate(column[:-1], initial=0))
        clipped = bisect.bisect_right(column, total)  # the column ascends
        column[clipped:] = [total] * (size - clipped)
        binomial[j] = column

    def subsets(start: int, n: int) -> np.ndarray:
        if not 0 <= start <= start + n <= total:
            last = total - 1
            raise ValueError(f"ranks {start} to {start + n - 1} outside 0 to {last}")
        m = np.arange(total - 1 - start, total - 1 - start - n, -1, dtype=np.int64)
        rows = np.empty((n, k), dtype=np.intp)
        for j, table in enumerate(binomial):
            a = table.searchsorted(m, side="right") - 1
            m -= table[a]
            np.subtract(size - 1, a, out=rows[:, j])
        return rows

    return subsets


def regularized_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(shape, x).

    Series expansion for x < shape + 1, modified-Lentz continued fraction
    for the upper tail otherwise. Absolute error stays below 1e-14 for
    shapes up to 1e5 (against scipy's gammainc within 5 standard
    deviations of x = shape); the tests hold it to 1e-13. Monotone
    nondecreasing in x with P(shape, 0) = 0 and P(shape, inf) = 1; it is 1
    wherever the upper tail's prefactor x^shape e^-x / Gamma(shape)
    underflows to 0.
    """
    if not 0 < shape < math.inf:
        raise ValueError(f"shape must be positive and finite, got {shape}")
    if not x >= 0:
        raise ValueError(f"x must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    # Near x = shape both expansions need O(sqrt(shape)) terms; the early
    # exits keep small shapes at a handful of iterations.
    max_iter = 500 + int(20.0 * math.sqrt(shape))
    if x < shape + 1.0:
        return _lower_gamma_series(shape, x, max_iter)
    if x == math.inf:
        return 1.0
    prefactor = _gamma_prefactor(shape, x)
    if prefactor == 0.0:
        # Far enough out that the fraction could settle one ulp from 1
        # and never meet its stopping test; it would be multiplied by 0.
        return 1.0
    return 1.0 - _upper_gamma_continued_fraction(shape, x, max_iter) * prefactor


def _gamma_prefactor(shape: float, x: float) -> float:
    """x^shape e^-x / Gamma(shape), the factor both expansions share.

    From shape 30 on, ``shape log x - x - lgamma(shape)`` would cancel
    terms of size shape log(shape); with x = shape (1 + t) and Stirling's
    series for lgamma (four terms, the next is below 5e-17 there) only
    terms of size shape t^2 remain.
    """
    if shape < 30.0:
        return math.exp(shape * math.log(x) - x - math.lgamma(shape))
    t = (x - shape) / shape
    if t == -1.0:
        # x is below about shape * 2^-53, where x^shape / Gamma(shape) < 1e-400
        return 0.0
    r = 1.0 / (shape * shape)
    tail = (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r / 1680))) / shape
    return math.exp(
        shape * (math.log1p(t) - t) + 0.5 * math.log(shape / (2.0 * math.pi)) - tail
    )


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
    """Gamma(shape, x) e^x / x^shape; the caller applies the prefactor."""
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
            return h
    raise RuntimeError("incomplete gamma continued fraction did not converge")


def ks_distance(
    samples: Sequence[float], cdf: Callable[[float], float]
) -> float:
    """One-sample Kolmogorov-Smirnov statistic sup |F_n - F|.

    ``samples`` may come in any order; both the i/n and (i-1)/n sides of
    the empirical CDF step are compared against ``cdf``, which receives
    each sample as a Python float (pure-Python CDFs run about twice as
    fast on floats as on numpy scalars, with the same result).
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise EmptySample("KS distance needs at least one sample")
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    s = np.sort(s)
    if np.isnan(s[-1]):  # sort puts NaN last
        raise ValueError("samples must not be NaN")
    n = s.size
    f = np.fromiter(map(cdf, map(float, s)), dtype=float, count=n)
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / n))
    return float(max(d_plus, d_minus, 0.0))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySample("two-sample KS needs nonempty samples")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # sort puts NaN last
        raise ValueError("samples must not be NaN")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def require_code_shape(l_tilde: int, l: int) -> None:
    """The one code-shape rule: a tall code, l_tilde >= l >= 1 (InvalidShape)."""
    if not 1 <= l <= l_tilde:
        raise InvalidShape(f"need l_tilde >= l >= 1, got ({l_tilde}, {l})")


def exact_int(value, name: str) -> int:
    """``value`` as an int; bools, fractions and non-numbers raise ValueError."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def finite_float(value, name: str) -> float:
    """``value`` as a float; bools, strings and non-finite numbers raise ValueError."""
    # an exact comparison: ints beyond the float range fail it, as do NaN and inf
    if isinstance(value, bool) or not (
        isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)
