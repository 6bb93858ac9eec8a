"""Closed-form distortion statistics, accuracy criteria, and rate regions.

For an orthonormal encoding matrix at the maximal power scaling, the
realized per-dimension distortion of the decoded sum is Gamma distributed:

    d ~ Gamma(shape=l, scale=p_w / (l_tilde * rho_x * min_gain))

with mean gamma_opt = rate * p_w / (rho_x * min_gain). Three accuracy
criteria bound this distortion and each induces a maximal admissible
coding rate; the expected-distortion and asymptotic criteria share one
formula and differ only in which guarantee they certify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import Rng, regularized_lower_gamma


class Criterion(str, Enum):
    EPSILON = "epsilon"
    EPSILON_ASYMPTOTIC = "epsilon_asymptotic"
    EPSILON_DELTA = "epsilon_delta"


@dataclass(frozen=True)
class GammaParams:
    """Shape-scale Gamma parameters (mean = shape * scale)."""

    shape: float
    scale: float

    def __post_init__(self):
        if self.shape <= 0 or self.scale <= 0:
            raise ValueError("Gamma shape and scale must be positive")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    @property
    def variance(self) -> float:
        return self.shape * self.scale**2


def _require_positive(**values) -> None:
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def gamma_opt(r: float, p_w: float, rho_x: float, min_gain: float) -> float:
    """Expected distortion of the optimal scheme: r * p_w / (rho_x * min_gain)."""
    _require_positive(r=r, p_w=p_w, rho_x=rho_x, min_gain=min_gain)
    if r > 1:
        raise ValueError(f"coding rate must lie in (0, 1], got {r}")
    return r * p_w / (rho_x * min_gain)


def optimal_mse_gamma(
    l: int, l_tilde: int, p_w: float, rho_x: float, min_gain: float
) -> GammaParams:
    """Distortion law of the optimal scheme at fixed channel.

    Shape l, scale p_w / (l_tilde * rho_x * min_gain); the mean reproduces
    gamma_opt and the variance shrinks as 1/l_tilde at fixed rate.
    """
    if l < 1 or l_tilde < l:
        raise ValueError("need l_tilde >= l >= 1")
    _require_positive(p_w=p_w, rho_x=rho_x, min_gain=min_gain)
    return GammaParams(shape=float(l), scale=p_w / (l_tilde * rho_x * min_gain))


def epsilon_rate_bound(
    epsilon: float, rho_x: float, min_gain: float, p_w: float
) -> float:
    """Largest rate with expected distortion at most epsilon (capped at 1).

    The asymptotic criterion (realized distortion concentrating below
    epsilon as the blocklength grows) yields the identical value; the rate
    region sweep reports it once under each criterion.
    """
    _require_positive(epsilon=epsilon, rho_x=rho_x, min_gain=min_gain, p_w=p_w)
    return min(1.0, epsilon * rho_x * min_gain / p_w)


def epsilon_delta_rate_bound(
    epsilon: float, eta: float, rho_x: float, min_gain: float, p_w: float
) -> float:
    """Largest rate meeting the probabilistic criterion with slack eta."""
    _require_positive(
        epsilon=epsilon, eta=eta, rho_x=rho_x, min_gain=min_gain, p_w=p_w
    )
    return min(1.0, epsilon * rho_x * min_gain / ((1.0 + eta) * p_w))


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


def gamma_cdf(params: GammaParams, x: float) -> float:
    """CDF of the Gamma law at x (regularized lower incomplete gamma)."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    return regularized_lower_gamma(params.shape, x / params.scale)


def sample_general_mse(spectrum, rho: float, rng: Rng) -> float:
    """Draw one distortion sample directly from the spectrum law.

    Draws one unit exponential per Gram eigenvalue and returns
    (1 / (rho * l)) * sum_l z_l / lambda_l, the distribution of the
    decoded-sum distortion for any encoding matrix with that spectrum.
    """
    lam = np.asarray(spectrum, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("spectrum must be a nonempty vector")
    if (lam <= 0).any():
        raise ValueError("spectrum entries must be positive")
    _require_positive(rho=rho)
    z = rng.gen.exponential(scale=1.0, size=lam.size)
    return float((z / lam).sum() / (rho * lam.size))

