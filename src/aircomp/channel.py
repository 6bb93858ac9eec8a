"""Physical-layer transmission chain over a fading multiple-access channel.

One round: every user encodes its source vector with the shared matrix,
applies channel-inversion precoding (scale by sqrt(P)/h_k so fading cancels
at the receiver), all signals superpose in the air together with additive
noise, and the receiver decodes the sum with the code's pseudo-inverse:

    y = sum_k h_k x_k + n = sqrt(P) * phi * sum_k w_k + n
    w_hat = phi_pinv y / sqrt(P) = sum_k w_k + phi_pinv n / sqrt(P)

Per-user average transmit power is P * l * P_W / (l_tilde * |h_k|^2) per
channel use, so the largest feasible common scaling under a per-user cap
P_X is P* = P_X * min_k|h_k|^2 / (R * P_W) with R = l / l_tilde.

Convention: CN(0, v) per complex entry means the real and imaginary parts
carry variance v/2 each. dB quantities convert as x -> 10^(x/10).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coding import EncodingMatrix
from .errors import (
    FloorUnsatisfiable,
    ShapeMismatch,
    ZeroChannel,
)
from .numerics import Rng, exact_int, finite_float, sample_complex_gaussian

DEFAULT_MIN_GAIN_FLOOR = 1e-6

# Consecutive redraw budget per coefficient before giving up.
_REDRAW_LIMIT = 1000

CONFIG_KEYS = (
    "k_users",
    "l",
    "l_tilde",
    "p_w",
    "n0",
    "snr_db",
    "rician_kappa_db",
    "min_gain_floor",
    "master_seed",
)


def db_to_linear(x_db: float) -> float:
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"{x_db} dB is beyond the float range") from None


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@dataclass(frozen=True)
class SystemConfig:
    """System parameters for one simulated link.

    ``p_x`` is the per-user transmit power cap per complex dimension;
    ``p_w`` the per-entry source power; ``n0`` the per-entry noise power.
    Defaults reproduce the reference regime (10 users, 5-dim sources, unit
    powers, 5 dB Rician factor) at a 10 dB transmit-SNR cap and rate 1/2.
    """

    k_users: int = 10
    l: int = 5
    l_tilde: int = 10
    p_w: float = 1.0
    n0: float = 1.0
    p_x: float = 10.0
    rician_kappa_db: float = 5.0
    min_gain_floor: float = DEFAULT_MIN_GAIN_FLOOR
    master_seed: int = 0

    def __post_init__(self):
        if self.k_users < 1:
            raise ValueError("need at least one user")
        if self.l < 1 or self.l_tilde < self.l:
            raise ValueError("need l_tilde >= l >= 1")
        for name in ("p_w", "n0", "p_x", "rician_kappa_db", "min_gain_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("p_w", "n0", "p_x", "min_gain_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def rate(self) -> float:
        return self.l / self.l_tilde

    @property
    def rho_x(self) -> float:
        """Transmit SNR cap p_x / n0."""
        return self.p_x / self.n0

    @property
    def snr_db(self) -> float:
        return linear_to_db(self.rho_x)

    @classmethod
    def from_json(cls, path) -> "SystemConfig":
        """Load a config file with keys exactly CONFIG_KEYS.

        The file carries the SNR cap in dB; p_x is derived as
        n0 * 10^(snr_db / 10).
        """
        with open(path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
        if not isinstance(blob, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        keys = set(blob)
        expected = set(CONFIG_KEYS)
        if keys != expected:
            missing = sorted(expected - keys)
            extra = sorted(keys - expected)
            raise ValueError(
                f"config file {path} keys mismatch: missing {missing}, "
                f"unexpected {extra}"
            )
        n0 = finite_float(blob["n0"], "n0")
        return cls(
            k_users=exact_int(blob["k_users"], "k_users"),
            l=exact_int(blob["l"], "l"),
            l_tilde=exact_int(blob["l_tilde"], "l_tilde"),
            p_w=finite_float(blob["p_w"], "p_w"),
            n0=n0,
            p_x=n0 * db_to_linear(finite_float(blob["snr_db"], "snr_db")),
            rician_kappa_db=finite_float(blob["rician_kappa_db"], "rician_kappa_db"),
            min_gain_floor=finite_float(blob["min_gain_floor"], "min_gain_floor"),
            master_seed=exact_int(blob["master_seed"], "master_seed"),
        )

    def to_json(self) -> dict:
        """The CONFIG_KEYS that from_json reads, in that order."""
        return {key: getattr(self, key) for key in CONFIG_KEYS}


@dataclass(eq=False, frozen=True)
class ChannelRealization:
    """Per-user complex channel coefficients and their minimum power gain.

    ``min_gain`` = min_k |h_k|^2 is computed from the coefficients, which
    must all have positive gain.
    """

    coefficients: np.ndarray
    redraws: int = 0
    min_gain: float = field(init=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ShapeMismatch("coefficients must be a nonempty vector")
        min_gain = float((np.abs(coeffs) ** 2).min())
        if min_gain <= 0:
            raise ZeroChannel("all channel gains must be positive")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "min_gain", min_gain)

    @property
    def k_users(self) -> int:
        return self.coefficients.size


def all_ones_channel(k_users: int) -> ChannelRealization:
    """Deterministic channel with every coefficient 1 (min gain exactly 1)."""
    return ChannelRealization(np.ones(k_users, dtype=np.complex128))


@dataclass(eq=False, frozen=True)
class TransmissionOutcome:
    """One round's truth, estimate, and realized distortion."""

    true_sum: np.ndarray
    estimate: np.ndarray
    distortion: float


def sample_rician(config: SystemConfig, rng: Rng) -> ChannelRealization:
    """Draw per-user Rician fading coefficients.

    Each coefficient is sqrt(kappa/(kappa+1)) + sqrt(1/(kappa+1)) * z with
    z ~ CN(0,1) and kappa the Rician factor converted from dB. Coefficients
    whose power gain falls below the floor are redrawn (the total redraw
    count is recorded on the realization).
    """
    kappa = db_to_linear(config.rician_kappa_db)
    los = math.sqrt(kappa / (kappa + 1.0))
    scatter_variance = 1.0 / (kappa + 1.0)
    coeffs = los + sample_complex_gaussian(rng, config.k_users, scatter_variance)
    redraws = 0
    rounds = 0
    below = np.abs(coeffs) ** 2 < config.min_gain_floor
    while below.any():
        rounds += 1
        if rounds > _REDRAW_LIMIT:
            raise FloorUnsatisfiable(
                f"{int(below.sum())} coefficient(s) violated the gain floor "
                f"{config.min_gain_floor} for {_REDRAW_LIMIT} consecutive draws"
            )
        n_bad = int(below.sum())
        redraws += n_bad
        coeffs[below] = los + sample_complex_gaussian(rng, n_bad, scatter_variance)
        below = np.abs(coeffs) ** 2 < config.min_gain_floor
    return ChannelRealization(coeffs, redraws=redraws)


def sample_sources(config: SystemConfig, rng: Rng) -> np.ndarray:
    """K independent source vectors, entries i.i.d. CN(0, p_w); shape (K, l)."""
    flat = sample_complex_gaussian(rng, config.k_users * config.l, config.p_w)
    return flat.reshape(config.k_users, config.l)


def max_power_scaling(channel: ChannelRealization, config: SystemConfig) -> float:
    """Largest common power scaling P* under the per-user cap.

    P* = p_x * min_gain / (R * p_w); at this value the weakest-channel user
    transmits at exactly p_x per complex dimension, everyone else below.
    """
    return config.p_x * channel.min_gain / (config.rate * config.p_w)


def encode_and_precode(
    enc: EncodingMatrix,
    w_k: np.ndarray,
    h_k: complex,
    p: float,
    min_gain_floor: float = DEFAULT_MIN_GAIN_FLOOR,
) -> np.ndarray:
    """Map one user's source to its transmit signal (sqrt(p)/h_k) * phi @ w_k."""
    if p <= 0:
        raise ValueError("power scaling must be positive")
    if abs(h_k) ** 2 < min_gain_floor:
        raise ZeroChannel(
            f"channel gain {abs(h_k) ** 2:.3e} below floor {min_gain_floor:.3e}"
        )
    w_k = np.asarray(w_k, dtype=np.complex128)
    if w_k.shape != (enc.l,):
        raise ShapeMismatch(
            f"source vector of shape {w_k.shape} does not match l={enc.l}"
        )
    return (math.sqrt(p) / h_k) * enc.phi_matvec(w_k)


def superpose(
    transmit_signals,
    channel: ChannelRealization,
    n0: float,
    rng: Rng,
) -> np.ndarray:
    """Received vector y = sum_k h_k x_k + n with n ~ CN(0, n0) per entry."""
    if n0 <= 0:
        raise ValueError("noise power must be positive")
    x = np.asarray(transmit_signals, dtype=np.complex128)
    if x.ndim != 2:
        raise ShapeMismatch("transmit signals must share one length")
    if x.shape[0] != channel.k_users:
        raise ShapeMismatch(
            f"{x.shape[0]} signals for {channel.k_users} channel coefficients"
        )
    l_tilde = x.shape[1]
    faded = (channel.coefficients[:, np.newaxis] * x).sum(axis=0)
    return faded + sample_complex_gaussian(rng, l_tilde, n0)


def decode_sum(enc: EncodingMatrix, y: np.ndarray, p: float) -> np.ndarray:
    """Recover the source sum estimate phi_pinv @ y / sqrt(p)."""
    if p <= 0:
        raise ValueError("power scaling must be positive")
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (enc.l_tilde,):
        raise ShapeMismatch(
            f"received vector of shape {y.shape} does not match "
            f"l_tilde={enc.l_tilde}"
        )
    return enc.decoder_matvec(y) / math.sqrt(p)


def run_round(
    enc: EncodingMatrix,
    config: SystemConfig,
    channel: ChannelRealization,
    p: float,
    rng: Rng,
) -> TransmissionOutcome:
    """One full transmission: sources -> precode -> superpose -> decode.

    Distortion is the per-dimension squared error ||w_hat - w||^2 / l of
    the decoded sum against the true sum.
    """
    if enc.l != config.l or enc.l_tilde != config.l_tilde:
        raise ShapeMismatch(
            f"encoding shape ({enc.l_tilde}, {enc.l}) does not match config "
            f"({config.l_tilde}, {config.l})"
        )
    if channel.k_users != config.k_users:
        raise ShapeMismatch(
            f"channel has {channel.k_users} coefficients for "
            f"{config.k_users} users"
        )
    sources = sample_sources(config, rng)
    signals = [
        encode_and_precode(
            enc,
            sources[k],
            channel.coefficients[k],
            p,
            min_gain_floor=config.min_gain_floor,
        )
        for k in range(config.k_users)
    ]
    y = superpose(signals, channel, config.n0, rng)
    true_sum = sources.sum(axis=0)
    estimate = decode_sum(enc, y, p)
    distortion = float((np.abs(estimate - true_sum) ** 2).sum() / config.l)
    return TransmissionOutcome(
        true_sum=true_sum,
        estimate=estimate,
        distortion=distortion,
    )
