"""The decoded-sum distortion law, accuracy criteria, and rate regions.

With Gram spectrum lambda_1..lambda_l of the encoding matrix and effective
SNR rho = p / n0, the per-dimension distortion of the decoded sum is

    d = sum_l z_l / (rho * l * lambda_l),   z_l i.i.d. unit exponentials,

with mean sum_l (1 / lambda_l) / (rho * l). ``DistortionLaw`` owns this
law. An orthonormal code has a unit spectrum, so at the maximal power
scaling d is Gamma distributed,

    d ~ Gamma(shape=l, scale=p_w / (l_tilde * rho_x * min_gain)),

with mean rate * p_w / (rho_x * min_gain), which falls with the coding
rate. Three accuracy criteria bound this distortion and each induces a
maximal admissible coding rate; the expected-distortion and asymptotic
criteria share one formula and differ only in which guarantee they
certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .numerics import Rng, regularized_lower_gamma


class Criterion(str, Enum):
    EPSILON = "epsilon"
    EPSILON_ASYMPTOTIC = "epsilon_asymptotic"
    EPSILON_DELTA = "epsilon_delta"


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class DistortionLaw:
    """Law of the decoded-sum distortion d = sum_l z_l / (rho * l * lambda_l).

    ``spectrum`` holds the positive Gram eigenvalues lambda_l and ``rho``
    the effective SNR p / n0; the z_l are unit exponentials. ``mean`` is
    exact for every spectrum. ``cdf`` is the mean-matched Gamma law (shape
    l, scale mean / l) with its ``variance``, which is exact when all
    eigenvalues are equal, as for orthonormal columns, and a proxy
    otherwise. The moments are computed once, at construction.
    """

    spectrum: np.ndarray
    rho: float
    mean: float = field(init=False)
    shape: float = field(init=False)
    scale: float = field(init=False)
    variance: float = field(init=False)

    def __post_init__(self):
        lam = np.asarray(self.spectrum, dtype=float)
        if lam.ndim != 1 or lam.size < 1 or not (lam > 0).all():
            raise ValueError("spectrum must be a nonempty vector of positive entries")
        _require_positive(rho=self.rho)
        shape = float(lam.size)
        mean = float((1.0 / lam).sum() / (shape * self.rho))
        scale = mean / shape
        for name, value in dict(
            spectrum=lam, mean=mean, shape=shape, scale=scale, variance=shape * scale**2
        ).items():
            object.__setattr__(self, name, value)

    @classmethod
    def optimal(
        cls, l: int, l_tilde: int, p_w: float, rho_x: float, min_gain: float
    ) -> "DistortionLaw":
        """Law of an orthonormal l_tilde x l code at the maximal power scaling.

        Unit spectrum at rho = rho_x * min_gain / (rate * p_w): Gamma with
        shape l and scale p_w / (l_tilde * rho_x * min_gain), whose mean
        rate * p_w / (rho_x * min_gain) falls with the coding rate and whose
        variance shrinks as 1 / l_tilde at fixed rate.
        """
        if l < 1 or l_tilde < l:
            raise ValueError("need l_tilde >= l >= 1")
        _require_positive(p_w=p_w, rho_x=rho_x, min_gain=min_gain)
        return cls(np.ones(l), rho_x * min_gain / (l / l_tilde * p_w))

    def cdf(self, x: float) -> float:
        """Mean-matched Gamma CDF at x (regularized lower incomplete gamma)."""
        if x < 0:
            raise ValueError("x must be nonnegative")
        return regularized_lower_gamma(self.shape, x / self.scale)


def epsilon_rate_bound(
    epsilon: float, rho_x: float, min_gain: float, p_w: float
) -> float:
    """Largest rate with expected distortion at most epsilon (capped at 1).

    The asymptotic criterion (realized distortion concentrating below
    epsilon as the blocklength grows) yields the identical value; the rate
    region sweep reports it once under each criterion. The probabilistic
    criterion at slack eta takes the bound at epsilon / (1 + eta).
    """
    _require_positive(epsilon=epsilon, rho_x=rho_x, min_gain=min_gain, p_w=p_w)
    return min(1.0, epsilon * rho_x * min_gain / p_w)


def min_source_length(delta: float, eta: float) -> int:
    """Smallest source dimension making the tail bound at slack eta <= delta.

    Ceiling of ln(1/delta) / (eta - ln(1 + eta)), clamped to at least 1.
    Raises ValueError when that ratio exceeds the float range.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    _require_positive(eta=eta)
    exponent = _tail_exponent(eta)
    bound = -math.log(delta) / exponent if exponent > 0 else math.inf
    if not math.isfinite(bound):
        raise ValueError(
            f"the source length for delta={delta}, eta={eta} exceeds the float range"
        )
    return max(1, math.ceil(bound))


def chernoff_tail(shape: float, eta: float) -> float:
    """Chernoff bound on a Gamma variable exceeding (1+eta) times its mean.

    exp(-shape * (eta - ln(1 + eta))); strictly decreasing in both
    arguments and vacuous (-> 1) as eta -> 0.
    """
    _require_positive(shape=shape, eta=eta)
    return math.exp(-shape * _tail_exponent(eta))


# Below this slack ``eta - log1p(eta)`` loses about 2e-16 / eta of its
# relative precision to cancellation, so the series takes over; its
# truncation error there is below 1e-19 relative.
_TAIL_SERIES_BELOW = 0.1
_TAIL_SERIES_TERMS = 20


def _tail_exponent(eta: float) -> float:
    """eta - ln(1 + eta), the Chernoff exponent per unit of Gamma shape.

    Direct from eta = 0.1 on (so those values keep their exact bits);
    below it, the alternating series eta^2/2 - eta^3/3 + ... in Horner
    form, which stays accurate down to eta^2 underflowing to zero.
    """
    if eta >= _TAIL_SERIES_BELOW:
        return eta - math.log1p(eta)
    acc = 0.0
    for k in range(_TAIL_SERIES_TERMS, 1, -1):
        acc = 1.0 / k - eta * acc
    return eta * eta * acc


def sample_general_mse(law: DistortionLaw, rng: Rng) -> float:
    """Draw one distortion sample directly from the law.

    Draws one unit exponential per Gram eigenvalue and returns
    sum_l z_l / lambda_l / (rho * l), distributed as the decoded-sum
    distortion of any encoding matrix with that spectrum.
    """
    lam = law.spectrum
    z = rng.gen.exponential(scale=1.0, size=lam.size)
    return float((z / lam).sum() / (law.rho * lam.size))
