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

run_round is the one stage that reads a round's random stream: it draws
the sources, then the noise, and hands the noise to superpose, which draws
nothing. It runs at the P* of the channel it is handed, so every round
meets the per-user cap. Channel inversion needs every |h_k|^2 at or above
the configured gain floor, a rule require_gain_floor states once.
sample_rician meets it when it draws, by redrawing weak users; run_round
applies it once per round, so encode_and_precode does not re-check it per
user, and experiments.fixed_channel_for applies it to a run's fixed
channel before the first trial.

Convention: CN(0, v) per complex entry means the real and imaginary parts
carry variance v/2 each. dB quantities convert as x -> 10^(x/10).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .coding import EncodingMatrix
from .errors import FloorUnsatisfiable, ShapeMismatch, ZeroChannel
from .numerics import (
    Rng,
    exact_int,
    finite_float,
    require_code_shape,
    sample_complex_gaussian,
)

DEFAULT_MIN_GAIN_FLOOR = 1e-6

# Consecutive redraw budget per coefficient before giving up.
_REDRAW_LIMIT = 1000

# The config file's keys in file order, each with the rule that reads it.
CONFIG_KEYS = {
    "k_users": exact_int,
    "l": exact_int,
    "l_tilde": exact_int,
    "p_w": finite_float,
    "n0": finite_float,
    "snr_db": finite_float,
    "rician_kappa_db": finite_float,
    "min_gain_floor": finite_float,
    "master_seed": exact_int,
}


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
    The code shape must be tall (``numerics.require_code_shape``, whose
    InvalidShape is a ValueError). ``at_snr_db`` maps a dB cap to p_x and
    ``snr_db`` maps p_x back.
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
        require_code_shape(self.l_tilde, self.l)
        for name in ("p_w", "n0", "p_x", "rician_kappa_db", "min_gain_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("p_w", "n0", "p_x", "min_gain_floor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        db_to_linear(self.rician_kappa_db)  # sample_rician's factor must be a float

    @property
    def rate(self) -> float:
        return self.l / self.l_tilde

    @property
    def rho_x(self) -> float:
        """Transmit SNR cap p_x / n0."""
        return self.p_x / self.n0

    @property
    def snr_db(self) -> float:
        """Transmit SNR cap in dB that from_json maps back to this p_x.

        The float nearest 10 log10(rho_x), within two ulps, that does, so a
        config echo replays its run; the plain log when none does, as when
        p_x was set directly.
        """
        db = linear_to_db(self.rho_x)
        ulp = math.ulp(db)
        for candidate in (db + k * ulp for k in (0, 1, -1, 2, -2)):
            if self.n0 * db_to_linear(candidate) == self.p_x:
                return candidate
        return db

    def at_snr_db(self, snr_db: float) -> "SystemConfig":
        """This config at transmit-SNR cap ``snr_db``: p_x = n0 * 10^(snr_db / 10)."""
        return replace(self, p_x=self.n0 * db_to_linear(snr_db))

    @classmethod
    def from_json(cls, path) -> "SystemConfig":
        """Load a config file with keys exactly CONFIG_KEYS.

        The file carries the SNR cap in dB, which ``at_snr_db`` maps to p_x
        once every other field has passed its rule.
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
        values = {key: read(blob[key], key) for key, read in CONFIG_KEYS.items()}
        snr_db = values.pop("snr_db")
        return cls(**values).at_snr_db(snr_db)

    def to_json(self) -> dict:
        """The CONFIG_KEYS that from_json reads, in that order."""
        return {key: getattr(self, key) for key in CONFIG_KEYS}


@dataclass(eq=False, frozen=True)
class ChannelRealization:
    """Per-user complex channel coefficients and their minimum power gain.

    ``min_gain`` = min_k |h_k|^2 is computed from the coefficients, whose
    gains must all be finite (ValueError) and positive (ZeroChannel).
    """

    coefficients: np.ndarray
    redraws: int = 0
    min_gain: float = field(init=False)

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=np.complex128)
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ShapeMismatch("coefficients must be a nonempty vector")
        gains = np.abs(coeffs) ** 2
        # max is NaN or inf exactly when some gain is, which min can miss
        if not math.isfinite(gains.max()):
            raise ValueError("channel gains must be finite")
        min_gain = float(gains.min())
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


def sample_rician(config: SystemConfig, rng: Rng) -> ChannelRealization:
    """Draw per-user Rician fading coefficients.

    Each coefficient is sqrt(kappa/(kappa+1)) + sqrt(1/(kappa+1)) * z with
    z ~ CN(0,1) and kappa the Rician factor converted from dB. Coefficients
    whose power gain falls below the floor are redrawn, in index order, for
    at most _REDRAW_LIMIT passes (the total redraw count is recorded on the
    realization).
    """
    kappa = db_to_linear(config.rician_kappa_db)
    los = math.sqrt(kappa / (kappa + 1.0))
    scatter_variance = 1.0 / (kappa + 1.0)
    coeffs = los + sample_complex_gaussian(rng, config.k_users, scatter_variance)
    redraws = 0
    for redraw_pass in range(1 + _REDRAW_LIMIT):
        channel = ChannelRealization(coeffs, redraws=redraws)
        if channel.min_gain >= config.min_gain_floor:
            return channel
        below = np.abs(coeffs) ** 2 < config.min_gain_floor
        n_bad = int(below.sum())
        if redraw_pass == _REDRAW_LIMIT:
            raise FloorUnsatisfiable(
                f"{n_bad} coefficient(s) violated the gain floor "
                f"{config.min_gain_floor} for {_REDRAW_LIMIT} consecutive draws"
            )
        redraws += n_bad
        coeffs[below] = los + sample_complex_gaussian(rng, n_bad, scatter_variance)


def sample_sources(config: SystemConfig, rng: Rng) -> np.ndarray:
    """K independent source vectors, entries i.i.d. CN(0, p_w); shape (K, l)."""
    flat = sample_complex_gaussian(rng, config.k_users * config.l, config.p_w)
    return flat.reshape(config.k_users, config.l)


def max_power_scaling(
    min_gain: float | np.ndarray, config: SystemConfig
) -> float | np.ndarray:
    """Largest common power scaling P* under the per-user cap.

    P* = p_x * min_gain / (R * p_w); at this value the weakest-channel user
    transmits at exactly p_x per complex dimension, everyone else below.
    ``min_gain`` is a channel's min_gain, or an array of them, mapped
    elementwise to the bits of the scalar call.
    """
    return config.p_x * min_gain / (config.rate * config.p_w)


def require_gain_floor(channel: ChannelRealization, config: SystemConfig) -> None:
    """The one floor rule: ZeroChannel unless min_gain >= config.min_gain_floor."""
    if channel.min_gain < config.min_gain_floor:
        raise ZeroChannel(
            f"channel gain {channel.min_gain:.3e} below floor "
            f"{config.min_gain_floor:.3e}"
        )


def encode_and_precode(
    enc: EncodingMatrix,
    w_k: np.ndarray,
    h_k: complex,
    p: float,
) -> np.ndarray:
    """Map one user's source to its transmit signal (sqrt(p)/h_k) * phi @ w_k.

    Preconditions: 0 < p < inf and w_k an array of length l, both checked here,
    and |h_k|^2 at or above the gain floor, which run_round checks once per
    round for every user.
    """
    if not 0 < p < math.inf:
        raise ValueError(f"power scaling must be positive and finite, got {p}")
    if w_k.shape != (enc.l,):
        raise ShapeMismatch(
            f"source vector of shape {w_k.shape} does not match l={enc.l}"
        )
    return (math.sqrt(p) / h_k) * enc.phi.dot(w_k)


def superpose(
    transmit: np.ndarray, channel: ChannelRealization, noise: np.ndarray
) -> np.ndarray:
    """Received vector y = sum_k h_k x_k + n, with x_k row k of ``transmit``."""
    if transmit.ndim != 2:
        raise ShapeMismatch("transmit signals must be a (users, l_tilde) matrix")
    if transmit.shape[0] != channel.k_users:
        raise ShapeMismatch(f"{len(transmit)} signals for {channel.k_users} users")
    if noise.shape != transmit.shape[1:]:
        raise ShapeMismatch(f"noise of shape {noise.shape} for {transmit.shape}")
    return (channel.coefficients[:, np.newaxis] * transmit).sum(axis=0) + noise


def decode_sum(enc: EncodingMatrix, y: np.ndarray, p: float) -> np.ndarray:
    """Recover the source sum estimate phi_pinv @ y / sqrt(p)."""
    if not 0 < p < math.inf:
        raise ValueError(f"power scaling must be positive and finite, got {p}")
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (enc.l_tilde,):
        raise ShapeMismatch(
            f"received vector of shape {y.shape} does not match "
            f"l_tilde={enc.l_tilde}"
        )
    return enc.decoder.dot(y) / math.sqrt(p)


def run_round(
    enc: EncodingMatrix,
    config: SystemConfig,
    channel: ChannelRealization,
    rng: Rng,
) -> float:
    """One full transmission: sources -> precode -> superpose -> decode.

    Runs at the channel's maximal power scaling P* (max_power_scaling), so
    no user exceeds the per-user cap p_x and the weakest user meets it.
    Returns the distortion, the per-dimension squared error
    ||w_hat - w||^2 / l of the decoded sum against the true sum. Raises
    ZeroChannel, by require_gain_floor, when the channel's min_gain is below
    config.min_gain_floor.
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
    require_gain_floor(channel, config)
    p = max_power_scaling(channel.min_gain, config)
    sources = sample_sources(config, rng)
    noise = sample_complex_gaussian(rng, config.l_tilde, config.n0)
    transmit = np.empty((config.k_users, config.l_tilde), dtype=np.complex128)
    for k, h_k in enumerate(channel.coefficients):
        transmit[k] = encode_and_precode(enc, sources[k], h_k, p)
    y = superpose(transmit, channel, noise)
    error = decode_sum(enc, y, p) - sources.sum(axis=0)
    return float((np.abs(error) ** 2).sum() / config.l)
