"""Complex linear-algebra and statistics kernels.

Domain-free building blocks: seeded random streams, orthonormalization,
spectra, pseudo-inverses, circularly symmetric Gaussian sampling, the
regularized lower incomplete gamma function, a one-sample
Kolmogorov-Smirnov statistic, and the rules for counts and numbers read
from input files. All matrix routines operate on complex128
numpy arrays; callers own the domain semantics of rows and columns.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Callable, Sequence

import numpy as np

from .errors import EmptySample, NotHermitian, RankDeficient

# A matrix counts as full column rank iff min_sv > RANK_TOLERANCE * max_sv.
RANK_TOLERANCE = 1e-9

# Stricter cutoff used as the orthonormalization precondition.
_QR_RANK_TOLERANCE = 1e-12

_HERMITIAN_TOLERANCE = 1e-10

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
    z *= math.sqrt(variance / 2.0)
    out = np.empty(n, dtype=np.complex128)
    out.real = z[0]
    out.imag = z[1]
    return out


def regularized_lower_gamma(shape: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(shape, x).

    Series expansion for x < shape + 1, modified-Lentz continued fraction
    for the upper tail otherwise. Absolute error stays below 1e-14 for
    shapes up to 1e5 (against scipy's gammainc within 5 standard
    deviations of x = shape); the tests hold it to 1e-13. Monotone
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
    """x^shape e^-x / Gamma(shape), the factor both expansions share.

    From shape 30 on, ``shape log x - x - lgamma(shape)`` would cancel
    terms of size shape log(shape); with x = shape (1 + t) and Stirling's
    series for lgamma (four terms, the next is below 5e-17 there) only
    terms of size shape t^2 remain.
    """
    if shape < 30.0:
        return math.exp(shape * math.log(x) - x - math.lgamma(shape))
    t = (x - shape) / shape
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
    the empirical CDF step are compared against ``cdf``, which receives
    each sample as a Python float (pure-Python CDFs run about twice as
    fast on floats as on numpy scalars, with the same result).
    """
    s = np.asarray(samples, dtype=float)
    if s.size == 0:
        raise EmptySample("KS distance needs at least one sample")
    if s.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    if np.any(np.diff(s) < 0):
        raise ValueError("samples must be sorted ascending")
    n = s.size
    f = np.fromiter(map(cdf, map(float, s)), dtype=float, count=n)
    steps = np.arange(1, n + 1, dtype=float) / n
    d_plus = np.max(steps - f)
    d_minus = np.max(f - (steps - 1.0 / n))
    return float(max(d_plus, d_minus, 0.0))


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
