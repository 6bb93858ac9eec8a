"""Monte Carlo harness: trial execution, summaries, and figure sweeps.

Every draw comes from a Philox stream keyed by (master_seed,
stream_id(purpose, index)) under the one ``Purpose`` table, and trial i
draws from index i, so any run is reproducible bit-for-bit and
independent of execution order or worker count. Sweeps emit rows for one
fixed CSV schema (see CSV_HEADER); fields that do not apply to a row are
left empty.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, replace
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np

from . import analysis, channel, coding
from .analysis import Criterion, DistortionLaw
from .channel import ChannelRealization, SystemConfig
from .coding import Construction, EncodingMatrix
from .errors import EmptySample, InvalidShape, NonIntegralBlocklength
from .numerics import Rng, ks_distance, ks_two_sample

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


class Purpose(IntEnum):
    """What a stream draws: every draw is Rng(seed, stream_id(purpose, index)).

    The index is the trial for TRIAL and CHANNEL (CHANNEL's index 0 is also
    fixed-from-seed's channel), the first trial of the oracle test's range
    for ORACLE, and 0 for CONSTRUCT and VALIDATE.
    """

    TRIAL = 1  # a trial's sources and noise
    CHANNEL = 2  # a trial's Rician channel
    CONSTRUCT = 3  # the random orthonormal matrix
    ORACLE = 4  # the oracle test's spectrum sampler
    VALIDATE = 5  # validate's sampled row subsets


def stream_id(purpose: int, index: int = 0) -> int:
    """Distinct 64-bit stream key per (purpose, index) pair."""
    if index < 0 or index >= 1 << 48:
        raise ValueError("stream index out of range")
    return (purpose << 48) + index


class ChannelMode(str, Enum):
    FIXED_UNIT_MIN_GAIN = "fixed-unit"
    RICIAN_PER_TRIAL = "rician-per-trial"
    FIXED_FROM_SEED = "fixed-from-seed"


@dataclass(frozen=True, eq=False)
class ExperimentPlan:
    """Everything needed to rerun one batch of transmissions.

    ``enc`` (the matrix), ``fixed`` (the channel every trial runs on, None
    under per-trial fading), ``power_scaling`` and ``law`` are built on
    first read, by build_encoding and fixed_channel_for for the first two,
    and kept;
    constructing a plan builds nothing. ``replace`` gives a new plan that
    builds its own.
    """

    config: SystemConfig
    construction: Construction = Construction.RANDOM_ORTHONORMAL
    trials: int = 1000
    channel_mode: ChannelMode = ChannelMode.RICIAN_PER_TRIAL
    matrix_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "construction", Construction(self.construction))
        object.__setattr__(self, "channel_mode", ChannelMode(self.channel_mode))
        if self.trials < 1:
            raise ValueError("need at least one trial")
        if (self.matrix_path is None) == (self.construction is Construction.CUSTOM):
            raise ValueError(
                f"matrix_path must be set exactly when the construction is custom, "
                f"got {self.construction.value} with matrix_path={self.matrix_path!r}"
            )

    @cached_property
    def enc(self) -> EncodingMatrix:
        return build_encoding(self)

    @cached_property
    def fixed(self) -> ChannelRealization | None:
        return fixed_channel_for(self)

    @cached_property
    def power_scaling(self) -> float:
        """The power scaling p that ``law`` is taken at.

        The fixed channel's maximal one, or under per-trial fading the gain
        floor's.
        """
        fixed, config = self.fixed, self.config
        min_gain = config.min_gain_floor if fixed is None else fixed.min_gain
        return channel.max_power_scaling(min_gain, config)

    @cached_property
    def law(self) -> DistortionLaw:
        """The one law the run builds, at p / n0, before its first trial.

        Trial i's law is this law scaled by p / p_i (``TrialSet.theory_mean``).
        Under a fixed channel every ratio is 1. Under per-trial fading every
        drawn scaling p_i is at or above the floor's p, so every ratio lies
        in (0, 1] and this law bounds every trial's; p must then be a normal
        float, so that no ratio starts from a subnormal. Raises, as
        distortion_law does, when there is no such law.
        """
        enc, p = self.enc, self.power_scaling
        if self.fixed is None and p < np.finfo(float).tiny:
            raise ValueError(f"power scaling {p} at the gain floor is subnormal")
        return coding.distortion_law(enc, p / self.config.n0)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "construction": self.construction.value,
            "trials": self.trials,
            "channel_mode": self.channel_mode.value,
            "matrix_path": self.matrix_path,
        }


@dataclass(eq=False)
class TrialSet:
    """Realized distortions and channel metadata of a plan's run.

    The matrix the trials ran with is ``plan.enc``.
    """

    plan: ExperimentPlan
    samples: np.ndarray
    channel_min_gains: np.ndarray

    @property
    def p_used(self) -> np.ndarray:
        """Per-trial power scaling, bit for bit the one each trial ran at."""
        return channel.max_power_scaling(self.channel_min_gains, self.plan.config)

    @property
    def theory_mean(self) -> float:
        """Mean of the trials' laws, each ``plan.law`` scaled by p / p_i."""
        ratios = self.plan.power_scaling / self.p_used
        return self.plan.law.mean * float(np.mean(ratios))


@dataclass
class MseReport:
    mean: float
    variance: float
    theory_mean: float
    theory_variance: float | None
    ks_statistic: float | None = None
    exceedance_freq: float | None = None


def build_encoding(plan: ExperimentPlan) -> EncodingMatrix:
    """Materialize the plan's encoding matrix (seeded from the config)."""
    config = plan.config
    if plan.construction is Construction.RANDOM_ORTHONORMAL:
        rng = Rng(config.master_seed, stream_id(Purpose.CONSTRUCT))
        return coding.construct_random_orthonormal(config.l_tilde, config.l, rng)
    if plan.construction is Construction.IDENTITY:
        if config.l_tilde != config.l:
            raise InvalidShape("identity construction needs l_tilde == l")
        return coding.construct_repetition(config.l)
    if plan.construction is Construction.REPETITION:
        if config.l_tilde % config.l != 0:
            raise InvalidShape(
                "repetition construction needs l_tilde to be a multiple of l"
            )
        return coding.construct_repetition(config.l, config.l_tilde // config.l)
    return coding.load_matrix(plan.matrix_path, (config.l_tilde, config.l))


def fixed_channel_for(plan: ExperimentPlan) -> ChannelRealization | None:
    """The channel every trial of the plan runs on; None under per-trial fading.

    Raises ZeroChannel (``channel.require_gain_floor``) when that channel is
    below the plan's gain floor, so a plan's law, which reads this channel,
    fails before any trial runs.
    """
    if plan.channel_mode is ChannelMode.RICIAN_PER_TRIAL:
        return None
    if plan.channel_mode is ChannelMode.FIXED_UNIT_MIN_GAIN:
        fixed = channel.all_ones_channel(plan.config.k_users)
    else:
        rng = Rng(plan.config.master_seed, stream_id(Purpose.CHANNEL, 0))
        fixed = channel.sample_rician(plan.config, rng)
    channel.require_gain_floor(fixed, plan.config)
    return fixed


def _run_range(enc, config, fixed, start, stop):
    """Trials ``start..stop-1``, each a run_round at its channel's P*.

    The one per-trial loop behind run_trials and the oracle test. The
    channel is ``fixed`` for every trial, or redrawn per trial from the
    channel stream when ``fixed`` is None.
    """
    n = stop - start
    if n > 0:
        # Checking both ends checks every index in between; the loop then
        # adds each index to its purpose's base key without stream_id. The
        # check comes first so that an out-of-range run allocates nothing.
        stream_id(Purpose.TRIAL, start)
        stream_id(Purpose.TRIAL, stop - 1)
    samples = np.empty(n)
    min_gains = np.empty(n)
    trial_base = stream_id(Purpose.TRIAL)
    channel_base = stream_id(Purpose.CHANNEL)
    seed = config.master_seed
    run_round = channel.run_round
    sample_rician = channel.sample_rician
    ch = fixed
    for j, i in enumerate(range(start, stop)):
        if fixed is None:
            ch = sample_rician(config, Rng(seed, channel_base + i))
        samples[j] = run_round(enc, config, ch, Rng(seed, trial_base + i))
        min_gains[j] = ch.min_gain
    return samples, min_gains


def run_trials(plan: ExperimentPlan, workers: int = 1) -> TrialSet:
    """Execute the plan's transmissions at the maximal power scaling.

    Reads ``plan.law`` first, so a plan without a law fails before any
    trial runs. Every trial runs ``plan.enc`` on ``plan.fixed``, or on a
    channel redrawn per trial when that is None, at that channel's power
    scaling. At most ``os.cpu_count()`` worker processes start, and results
    are identical for any worker count.
    """
    plan.law  # raises when the run has no law
    enc, fixed, config = plan.enc, plan.fixed, plan.config

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

    return TrialSet(
        plan=plan,
        samples=np.concatenate([p[0] for p in parts]),
        channel_min_gains=np.concatenate([p[1] for p in parts]),
    )


def summarize(ts: TrialSet, eta: float | None = None) -> MseReport:
    """Empirical moments against ``ts.plan.law``, plus fit statistics.

    The theory mean is ``ts.theory_mean``, which is ``plan.law.mean`` under
    a fixed channel. The Gamma variance and the one-sample KS statistic are
    only meaningful when the channel was held fixed (the Gamma law
    conditions on the realization), so both are omitted in the per-trial
    fading mode. When ``eta`` is given, the report carries the frequency of
    samples exceeding (1 + eta) times the theory mean.
    """
    samples = np.asarray(ts.samples, dtype=float)
    if samples.size == 0:
        raise EmptySample("summarize needs at least one sample")
    variance = 0.0 if samples.size == 1 else float(np.var(samples, ddof=1))
    law, theory_mean = ts.plan.law, ts.theory_mean

    theory_variance = ks_statistic = None
    if ts.plan.fixed is not None:
        theory_variance = law.variance
        ks_statistic = ks_distance(samples, law.cdf)
    exceedance = None
    if eta is not None:
        exceedance = float(np.mean(samples >= (1.0 + eta) * theory_mean))

    return MseReport(
        mean=float(np.mean(samples)),
        variance=variance,
        theory_mean=theory_mean,
        theory_variance=theory_variance,
        ks_statistic=ks_statistic,
        exceedance_freq=exceedance,
    )


def _blank_row() -> dict:
    return {key: None for key in CSV_HEADER}


def _sweep_row(plan: ExperimentPlan, workers: int, **fields) -> dict:
    """Run ``plan`` and fill one sweep row with its moments and theory.

    The theory variance is only filled in the fixed-channel modes, where
    the Gamma law conditions on one realization, and the sample variance
    only when there are at least two trials.
    """
    ts = run_trials(plan, workers=workers)
    row = _blank_row()
    row.update(
        fields,
        l=plan.config.l,
        l_tilde=plan.config.l_tilde,
        trials=plan.trials,
        mean_mse=float(np.mean(ts.samples)),
        theory_mean=ts.theory_mean,
    )
    if plan.trials > 1:
        row["var_mse"] = float(np.var(ts.samples, ddof=1))
    if plan.fixed is not None:
        row["theory_var"] = plan.law.variance
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

    Each rate runs the base plan's construction (and matrix file) at the
    implied codeword length; an uncoded row (identity matrix, rate 1)
    accompanies every SNR point as the baseline.
    """
    for rate in rates:
        if not 0 < rate <= 1:
            raise ValueError(f"rates must lie in (0, 1], got {rate}")
    schemes = [
        ("proposed", float(rate), base.construction, base.matrix_path)
        for rate in rates
    ] + [("uncoded", 1.0, Construction.IDENTITY, None)]
    rows = []
    for snr_db in snr_db_values:
        for scheme, rate, construction, path in schemes:
            l_tilde = _integral_blocklength(base.config.l, base.config.l / rate)[1]
            config = replace(base.config, l_tilde=l_tilde).at_snr_db(snr_db)
            plan = replace(
                base, config=config, construction=construction, matrix_path=path
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
    if base.fixed is None:
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


def oracle_equivalence_test(
    enc: EncodingMatrix, config: SystemConfig, trials: range
) -> float:
    """Full pipeline vs direct spectrum sampler, as a two-sample KS distance.

    Runs the transmissions ``trials`` (consecutive trial indices, keyed
    exactly as run_trials keys them) on the config's all-ones channel and
    draws as many samples from the weighted-exponential law implied by the
    Gram spectrum at that channel's power scaling, from the oracle stream
    keyed by the range's first index. All streams are keyed by
    ``config.master_seed``, so callers that give each test its own index
    range draw no stream twice.
    """
    if not isinstance(trials, range) or trials.step != 1:
        raise ValueError(f"trials must be a range of consecutive indices: {trials!r}")
    n = len(trials)
    if n < 1000:
        raise ValueError("need at least 1000 samples per side")
    ones = channel.all_ones_channel(config.k_users)
    pipeline, _ = _run_range(enc, config, ones, trials.start, trials.stop)

    p = channel.max_power_scaling(ones.min_gain, config)
    law = coding.distortion_law(enc, p / config.n0)
    oracle_rng = Rng(config.master_seed, stream_id(Purpose.ORACLE, trials.start))
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
