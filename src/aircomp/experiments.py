"""Monte Carlo harness: trial execution, summaries, and figure sweeps.

Trials are independently seeded from (master_seed, trial_index) through
purpose-tagged Philox streams, so any run is reproducible bit-for-bit and
independent of execution order or worker count. Sweeps emit rows for one
fixed CSV schema (see CSV_HEADER); fields that do not apply to a row are
left empty.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import analysis, channel, coding
from .analysis import Criterion, DistortionLaw
from .channel import ChannelRealization, SystemConfig
from .coding import Construction, EncodingMatrix
from .errors import EmptySample, InvalidShape, NonIntegralBlocklength, ShapeMismatch
from .numerics import Rng, ks_distance

CSV_HEADER = [
    "experiment",
    "snr_db",
    "rate",
    "l",
    "l_tilde",
    "scheme",
    "trials",
    "mean_mse",
    "var_mse",
    "theory_mean",
    "theory_var",
    "ks_stat",
    "exceedance",
    "bound",
]

# Purpose tags for flat Philox streams under one master seed.
_STREAM_TRIAL = 1
_STREAM_CHANNEL = 2
_STREAM_CONSTRUCT = 3
_STREAM_ORACLE = 4
_STREAM_VALIDATE = 5


def stream_id(purpose: int, index: int = 0) -> int:
    """Distinct 64-bit stream key per (purpose, index) pair."""
    if index < 0 or index >= 1 << 48:
        raise ValueError("stream index out of range")
    return (purpose << 48) + index


class ChannelMode(str, Enum):
    FIXED_UNIT_MIN_GAIN = "fixed-unit"
    RICIAN_PER_TRIAL = "rician-per-trial"
    FIXED_FROM_SEED = "fixed-from-seed"


@dataclass(eq=False)
class ExperimentPlan:
    """Everything needed to rerun one batch of transmissions."""

    config: SystemConfig
    construction: Construction = Construction.RANDOM_ORTHONORMAL
    trials: int = 1000
    channel_mode: ChannelMode = ChannelMode.RICIAN_PER_TRIAL
    output_path: str | None = None
    matrix_path: str | None = None

    def __post_init__(self):
        self.construction = Construction(self.construction)
        self.channel_mode = ChannelMode(self.channel_mode)
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if (self.matrix_path is None) == (self.construction is Construction.CUSTOM):
            raise ValueError(
                f"matrix_path must be set exactly when the construction is custom, "
                f"got {self.construction.value} with matrix_path={self.matrix_path!r}"
            )

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "construction": self.construction.value,
            "trials": self.trials,
            "channel_mode": self.channel_mode.value,
            "output_path": self.output_path,
            "matrix_path": self.matrix_path,
        }


@dataclass(eq=False)
class TrialSet:
    """Realized distortions, the matrix they ran with, and channel metadata."""

    plan: ExperimentPlan
    enc: EncodingMatrix
    samples: np.ndarray
    channel_min_gains: np.ndarray
    p_used: np.ndarray


@dataclass
class MseReport:
    mean: float
    variance: float
    theory_mean: float
    theory_variance: float | None
    ks_statistic: float | None = None
    exceedance_freq: float | None = None
    degenerate: bool = False


def build_encoding(plan: ExperimentPlan) -> EncodingMatrix:
    """Materialize the plan's encoding matrix (seeded from the config)."""
    config = plan.config
    if plan.construction is Construction.RANDOM_ORTHONORMAL:
        rng = Rng(config.master_seed, stream_id(_STREAM_CONSTRUCT))
        return coding.construct_random_orthonormal(config.l_tilde, config.l, rng)
    if plan.construction is Construction.IDENTITY:
        if config.l_tilde != config.l:
            raise InvalidShape("identity construction needs l_tilde == l")
        return coding.construct_identity(config.l)
    if plan.construction is Construction.REPETITION:
        if config.l_tilde % config.l != 0:
            raise InvalidShape(
                "repetition construction needs l_tilde to be a multiple of l"
            )
        return coding.construct_repetition(config.l, config.l_tilde // config.l)
    enc = coding.load_matrix(plan.matrix_path)
    if enc.l != config.l or enc.l_tilde != config.l_tilde:
        raise ShapeMismatch(
            f"matrix file shape ({enc.l_tilde}, {enc.l}) does not match "
            f"config ({config.l_tilde}, {config.l})"
        )
    return enc


def fixed_channel_for(plan: ExperimentPlan) -> ChannelRealization | None:
    if plan.channel_mode is ChannelMode.FIXED_UNIT_MIN_GAIN:
        return channel.all_ones_channel(plan.config.k_users)
    if plan.channel_mode is ChannelMode.FIXED_FROM_SEED:
        rng = Rng(plan.config.master_seed, stream_id(_STREAM_CHANNEL, 0))
        return channel.sample_rician(plan.config, rng)
    return None


def _run_range(enc, config, fixed, start, stop):
    """Trials ``start..stop-1`` at the maximal power scaling.

    The one per-trial loop behind run_trials and the oracle test. The
    channel is ``fixed`` for every trial, or redrawn per trial from the
    channel stream when ``fixed`` is None.
    """
    n = stop - start
    samples = np.empty(n)
    min_gains = np.empty(n)
    p_used = np.empty(n)
    if n > 0:
        # Checking both ends checks every index in between; the loop then
        # adds each index to its purpose's base key without stream_id.
        stream_id(_STREAM_TRIAL, start)
        stream_id(_STREAM_TRIAL, stop - 1)
    trial_base = stream_id(_STREAM_TRIAL)
    channel_base = stream_id(_STREAM_CHANNEL)
    seed = config.master_seed
    run_round = channel.run_round
    sample_rician = channel.sample_rician
    max_power_scaling = channel.max_power_scaling
    ch = fixed
    p = None if ch is None else max_power_scaling(ch, config)
    for j, i in enumerate(range(start, stop)):
        if fixed is None:
            ch = sample_rician(config, Rng(seed, channel_base + i))
            p = max_power_scaling(ch, config)
        outcome = run_round(enc, config, ch, p, Rng(seed, trial_base + i))
        samples[j] = outcome.distortion
        min_gains[j] = ch.min_gain
        p_used[j] = p
    return samples, min_gains, p_used


def run_trials(
    plan: ExperimentPlan, workers: int = 1, enc: EncodingMatrix | None = None
) -> TrialSet:
    """Execute the plan's transmissions at the maximal power scaling.

    The channel is held fixed across trials in the fixed modes and redrawn
    per trial otherwise; the power scaling is recomputed whenever the
    channel changes. At most ``os.cpu_count()`` worker processes start, and
    results are identical for any worker count. ``enc`` is the plan's
    matrix when the caller already holds ``build_encoding(plan)``.
    """
    if enc is None:
        enc = build_encoding(plan)
    fixed = fixed_channel_for(plan)
    config = plan.config

    if workers < 1:
        raise ValueError("need at least one worker")
    workers = min(workers, os.cpu_count() or 1, plan.trials)
    if workers == 1:
        parts = [_run_range(enc, config, fixed, 0, plan.trials)]
    else:
        # Imported here so that single-worker runs, which never start a pool,
        # skip multiprocessing and its dependencies (about 30 modules, 2 MiB).
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, plan.trials, num=workers + 1, dtype=int).tolist()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_range, enc, config, fixed, a, b)
                for a, b in zip(bounds[:-1], bounds[1:])
            ]
            parts = [f.result() for f in futures]

    samples = np.concatenate([p[0] for p in parts])
    min_gains = np.concatenate([p[1] for p in parts])
    p_used = np.concatenate([p[2] for p in parts])
    return TrialSet(
        plan=plan,
        enc=enc,
        samples=samples,
        channel_min_gains=min_gains,
        p_used=p_used,
    )


def summarize(ts: TrialSet, eta: float | None = None) -> MseReport:
    """Empirical moments against ``theory_for_trials(ts)``, plus fit statistics.

    The Gamma variance and the one-sample KS statistic are only meaningful
    when the channel was held fixed (the Gamma law conditions on the
    realization), so both are omitted in the per-trial fading mode. When
    ``eta`` is given, the report carries the frequency of samples exceeding
    (1 + eta) times the theory mean.
    """
    samples = np.asarray(ts.samples, dtype=float)
    if samples.size == 0:
        raise EmptySample("summarize needs at least one sample")
    degenerate = samples.size == 1
    variance = 0.0 if degenerate else float(np.var(samples, ddof=1))
    theory = theory_for_trials(ts)

    theory_variance = ks_statistic = None
    if ts.plan.channel_mode is not ChannelMode.RICIAN_PER_TRIAL:
        theory_variance = theory.variance
        ks_statistic = ks_distance(np.sort(samples), theory.cdf)
    exceedance = None
    if eta is not None:
        exceedance = float(np.mean(samples >= (1.0 + eta) * theory.mean))

    return MseReport(
        mean=float(np.mean(samples)),
        variance=variance,
        theory_mean=theory.mean,
        theory_variance=theory_variance,
        ks_statistic=ks_statistic,
        exceedance_freq=exceedance,
        degenerate=degenerate,
    )


def theory_for_trials(ts: TrialSet) -> DistortionLaw:
    """Distortion law of a trial set's matrix at its mean effective SNR.

    The effective SNR is 1 / (n0 * mean(1 / p_used)), so the law's mean is
    the spectrum formula averaged over the realized power scalings. The
    law is exact for a fixed channel (its Gamma CDF only for an
    orthonormal matrix); under per-trial fading only its mean applies.
    """
    rho = 1.0 / (ts.plan.config.n0 * float(np.mean(1.0 / ts.p_used)))
    return coding.distortion_law(ts.enc, rho)


def _blank_row() -> dict:
    return {key: None for key in CSV_HEADER}


def _sweep_row(plan: ExperimentPlan, workers: int, **fields) -> dict:
    """Run ``plan`` and fill one sweep row with its moments and theory.

    The theory variance is only filled in the fixed-channel modes, where
    the Gamma law conditions on one realization, and the sample variance
    only when there are at least two trials.
    """
    ts = run_trials(plan, workers=workers)
    theory = theory_for_trials(ts)
    row = _blank_row()
    row.update(
        fields,
        l=plan.config.l,
        l_tilde=plan.config.l_tilde,
        trials=plan.trials,
        mean_mse=float(np.mean(ts.samples)),
        theory_mean=theory.mean,
    )
    if plan.trials > 1:
        row["var_mse"] = float(np.var(ts.samples, ddof=1))
    if plan.channel_mode is not ChannelMode.RICIAN_PER_TRIAL:
        row["theory_var"] = theory.variance
    return row


def _integral_blocklength(l: float, l_tilde: float) -> tuple[int, int]:
    """Source and codeword lengths as ints; both must be whole within 1e-9."""
    if max(abs(n - round(n)) for n in (l, l_tilde)) > 1e-9:
        raise NonIntegralBlocklength(
            f"source length {l} and codeword length {l_tilde} must both be "
            f"integers"
        )
    return int(round(l)), int(round(l_tilde))


def sweep_mse_vs_snr(
    base: ExperimentPlan, snr_db_values, rates, workers: int = 1
) -> list[dict]:
    """Empirical vs theoretical mean MSE over an (SNR, rate) grid.

    Each rate runs the orthonormal construction at the implied codeword
    length; an uncoded row (identity matrix, rate 1) accompanies every SNR
    point as the baseline.
    """
    for rate in rates:
        if not 0 < rate <= 1:
            raise ValueError(f"rates must lie in (0, 1], got {rate}")
    rows = []
    for snr_db in snr_db_values:
        schemes = [("proposed", float(r)) for r in rates] + [("uncoded", 1.0)]
        for scheme, rate in schemes:
            config = replace(
                base.config,
                l_tilde=_integral_blocklength(base.config.l, base.config.l / rate)[1],
                p_x=base.config.n0 * channel.db_to_linear(snr_db),
            )
            plan = replace(base, config=config)
            if scheme == "uncoded":
                plan = replace(
                    plan, construction=Construction.IDENTITY, matrix_path=None
                )
            rows.append(
                _sweep_row(
                    plan,
                    workers,
                    experiment="mse_vs_snr",
                    snr_db=float(snr_db),
                    rate=rate,
                    scheme=scheme,
                )
            )
    return rows


def sweep_rate_regions(
    epsilon: float,
    delta: float,
    eta: float,
    snr_db_values,
    p_w: float = 1.0,
    min_gain: float = 1.0,
) -> list[dict]:
    """Rate-region boundaries per criterion over an SNR grid.

    The expected-distortion and asymptotic criteria share one bound; only
    the probabilistic row carries a source length, the smallest that meets
    its tail bound.
    """
    l_min = analysis.min_source_length(delta, eta)
    rows = []
    for snr_db in snr_db_values:
        rho_x = channel.db_to_linear(snr_db)
        r_eps = analysis.epsilon_rate_bound(epsilon, rho_x, min_gain, p_w)
        r_delta = analysis.epsilon_rate_bound(
            epsilon / (1.0 + eta), rho_x, min_gain, p_w
        )
        for criterion, rate, l in (
            (Criterion.EPSILON, r_eps, None),
            (Criterion.EPSILON_ASYMPTOTIC, r_eps, None),
            (Criterion.EPSILON_DELTA, r_delta, l_min),
        ):
            row = _blank_row()
            row.update(
                experiment="rate_regions",
                snr_db=float(snr_db),
                rate=rate,
                scheme=criterion.value,
                l=l,
            )
            rows.append(row)
    return rows


def sweep_blocklength(
    base: ExperimentPlan, l_tilde_values, workers: int = 1
) -> list[dict]:
    """Mean/variance of the distortion as the codeword length grows.

    Holds the coding rate of the base plan fixed (the source length scales
    with the codeword length) and requires a fixed-channel mode, since the
    variance law conditions on the realization.
    """
    if base.channel_mode is ChannelMode.RICIAN_PER_TRIAL:
        raise ValueError("blocklength sweep needs a fixed-channel mode")
    rate = base.config.rate
    rows = []
    for l_tilde in l_tilde_values:
        l, l_tilde = _integral_blocklength(rate * l_tilde, l_tilde)
        config = replace(base.config, l=l, l_tilde=l_tilde)
        rows.append(
            _sweep_row(
                replace(base, config=config),
                workers,
                experiment="blocklength",
                snr_db=config.snr_db,
                rate=rate,
                scheme="proposed",
            )
        )
    return rows


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov distance between empirical CDFs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySample("two-sample KS needs nonempty samples")
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def oracle_equivalence_test(
    enc: EncodingMatrix,
    config: SystemConfig,
    channel_realization: ChannelRealization,
    n: int,
) -> float:
    """Full pipeline vs direct spectrum sampler, as a two-sample KS distance.

    Runs n transmissions at the maximal power scaling and draws n samples
    from the weighted-exponential law implied by the Gram spectrum; the two
    independent streams are keyed by ``config.master_seed`` under different
    purpose tags, the pipeline's exactly as run_trials keys its trials.
    """
    if n < 1000:
        raise ValueError("need at least 1000 samples per side")
    pipeline, _, _ = _run_range(enc, config, channel_realization, 0, n)

    rho = channel.max_power_scaling(channel_realization, config) / config.n0
    law = coding.distortion_law(enc, rho)
    oracle_rng = Rng(config.master_seed, stream_id(_STREAM_ORACLE))
    sample = analysis.sample_general_mse
    oracle = np.fromiter(
        (sample(law, oracle_rng) for _ in range(n)), dtype=float, count=n
    )
    return ks_two_sample(pipeline, oracle)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


# One precision for every float written to a CSV or printed by the CLI.
_format_float = "{:.12g}".format


def format_field(value) -> str:
    """A CSV field or printed number: None empty, integers exact."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _format_float(float(value))


def write_rows(rows, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        unknown = set(row) - set(CSV_HEADER)
        if unknown:
            raise ValueError(f"row carries unknown fields {sorted(unknown)}")
        writer.writerow([format_field(row.get(key)) for key in CSV_HEADER])


def write_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_rows(rows, fh)


def write_trials_csv(ts: TrialSet, path) -> None:
    """Per-trial samples: trial, distortion, min_gain, p_used."""
    columns = zip(
        ts.samples.tolist(), ts.channel_min_gains.tolist(), ts.p_used.tolist()
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "distortion", "min_gain", "p_used"])
        writer.writerows(
            (i, _format_float(d), _format_float(g), _format_float(p))
            for i, (d, g, p) in enumerate(columns)
        )
