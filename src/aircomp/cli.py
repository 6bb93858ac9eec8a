"""Command-line front end.

Subcommands: construct, check, theory, regions, simulate, dist-test,
figures. Exit codes: 0 success, 1 validation/assertion failure, 2 usage
error: every failure, including an input file that cannot be read or
parsed and an output that cannot be written, raises a ValueError or an
OSError, and ``main`` alone reports it as one ``error:`` line. Every
output is checked (``_require_writable``) before any work, so a failed
run creates no file. All numeric output is locale-independent with 12
significant digits, and identical flags plus seeds reproduce identical
bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import pathlib
import sys
from dataclasses import asdict, replace

import numpy as np

from . import analysis, coding, experiments
from .channel import SystemConfig, db_to_linear
from .coding import Construction
from .experiments import ChannelMode, ExperimentPlan, Purpose, format_field, stream_id
from .numerics import Rng, ks_distance

ORTHONORMAL_TOLERANCE = 1e-10
# Sampled validation's confidence: with probability at least 1 - beta, at
# most q = 1 - beta^(1/n) of all row subsets have a ratio below the least of
# n uniform samples (Wilks, Ann. Math. Statist. 12, 1941).
WILKS_BETA = 0.05


def _require_writable(path: str) -> None:
    """Raise OSError unless ``path`` can be written; leave no new file behind."""
    try:
        open(path, "x", encoding="utf-8").close()
    except FileExistsError:
        # append mode checks writability without emptying an earlier result
        open(path, "a", encoding="utf-8").close()
    else:
        os.remove(path)


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities slip past range checks."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# ---------------------------------------------------------------------------
# construct / check
# ---------------------------------------------------------------------------


def _validate(enc: coding.EncodingMatrix, args) -> coding.ValidationReport:
    """Row-subset check under --seed, --max-exhaustive and --samples."""
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    return coding.validate(
        enc,
        max_exhaustive_subsets=args.max_exhaustive,
        sample_count=args.samples,
        rng=Rng(args.seed, stream_id(Purpose.VALIDATE)),
    )


def _print_shape(enc: coding.EncodingMatrix, report: coding.ValidationReport) -> None:
    print(f"shape: {enc.l_tilde}x{enc.l}")
    print(f"rate: {format_field(enc.rate)}")
    print(f"trace: {format_field(report.trace)}")


def _print_validation(report: coding.ValidationReport) -> None:
    print(f"power_ok: {str(report.power_ok).lower()}")
    print(
        f"rank_ok: {str(report.rank_ok).lower()} "
        f"({report.rank_mode.value}, {report.subsets_checked} subsets, "
        f"worst ratio {format_field(report.worst_min_singular_ratio)})"
    )
    if report.rank_mode is coding.RankMode.SAMPLED:
        q = -math.expm1(math.log(WILKS_BETA) / report.subsets_checked)
        print(
            f"rank_quantile: at most {format_field(100 * q)}% of subsets below "
            f"{format_field(report.worst_min_singular_ratio)} "
            f"({format_field(100 * (1 - WILKS_BETA))}%)"
        )
    print("gram_spectrum: " + " ".join(map(format_field, report.gram_spectrum)))


def cmd_construct(args) -> int:
    # the matrix simulate --seed S builds, by the same recipe
    config = SystemConfig(l=args.l, l_tilde=args.l_tilde, master_seed=args.seed)
    enc = ExperimentPlan(config).enc
    _require_writable(args.out)  # before validating, which can take seconds
    report = _validate(enc, args)
    gram = enc.phi.conj().T @ enc.phi
    gram_error = float(np.max(np.abs(gram - np.eye(enc.l))))
    coding.save_matrix(enc, args.out)

    _print_shape(enc, report)
    verdict = "ok" if gram_error < ORTHONORMAL_TOLERANCE else "FAILED"
    print(f"orthonormal: {verdict} (max deviation {format_field(gram_error)})")
    _print_validation(report)
    print(f"wrote {args.out}")
    if args.strict and not (report.ok and gram_error < ORTHONORMAL_TOLERANCE):
        return 1
    return 0


def cmd_check(args) -> int:
    enc = coding.load_matrix(args.matrix)
    report = _validate(enc, args)
    _print_shape(enc, report)
    _print_validation(report)
    if args.strict and not report.ok:
        return 1
    return 0


# ---------------------------------------------------------------------------
# theory / regions
# ---------------------------------------------------------------------------


def cmd_theory(args) -> int:
    rho_x = db_to_linear(args.snr_db)
    # Every value is computed before the first line is printed, so a
    # rejected input leaves stdout empty.
    law = analysis.DistortionLaw.optimal(
        args.l, args.l_tilde, args.p_w, rho_x, args.min_gain
    )
    lines = {
        "rate": args.l / args.l_tilde,
        "rho_x": rho_x,
        "gamma_opt": law.mean,
        "gamma_shape": law.shape,
        "gamma_scale": law.scale,
        "gamma_mean": law.mean,
        "gamma_variance": law.variance,
    }
    if args.matrix is not None:
        enc = coding.load_matrix(args.matrix, (args.l_tilde, args.l))
        # the optimal law's rho is the effective SNR rho_x * min_gain / (rate * p_w)
        lines["spectrum"] = " ".join(map(format_field, coding.gram_spectrum(enc)))
        lines["expected_mse"] = coding.distortion_law(enc, law.rho).mean
    for name, value in lines.items():
        print(f"{name}: {format_field(value)}")
    return 0


def cmd_regions(args) -> int:
    rows = experiments.sweep_rate_regions(
        args.epsilon, args.delta, args.eta, args.snr_db, args.p_w, args.min_gain
    )
    experiments.write_rows(rows, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.eta is not None and args.eta <= 0:
        raise ValueError("--eta must be positive")
    if args.assert_tolerance is not None and args.assert_tolerance < 0:
        raise ValueError("--assert-tolerance must be non-negative")
    config = SystemConfig.from_json(args.config) if args.config else SystemConfig()
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    plan = ExperimentPlan(
        config=config,
        construction=args.construction,
        trials=args.trials,
        channel_mode=args.mode,
        matrix_path=args.matrix,
    )
    plan.law  # a plan without a law fails before any output exists
    if args.out:
        for suffix in (".trials.csv", ".report.json"):
            _require_writable(args.out + suffix)
    ts = experiments.run_trials(plan, workers=args.threads)
    report = experiments.summarize(ts, eta=args.eta)
    ratio = report.mean / report.theory_mean

    print(f"trials: {ts.samples.size}")
    print(f"mean_mse: {format_field(report.mean)}")
    print(f"theory_mean: {format_field(report.theory_mean)}")
    print(f"mean_ratio: {format_field(ratio)}")
    print(f"var_mse: {format_field(report.variance)}")
    if report.theory_variance is not None:
        print(f"theory_var: {format_field(report.theory_variance)}")
    if report.ks_statistic is not None:
        print(f"ks_statistic: {format_field(report.ks_statistic)}")
    if report.exceedance_freq is not None:
        print(f"exceedance_freq: {format_field(report.exceedance_freq)}")

    if args.out:
        experiments.write_trials_csv(ts, args.out + ".trials.csv")
        blob = {"plan": plan.to_json(), "report": asdict(report)}
        with open(args.out + ".report.json", "w", encoding="utf-8") as fh:
            json.dump(blob, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}.trials.csv and {args.out}.report.json")

    if args.assert_tolerance is not None and abs(ratio - 1.0) > args.assert_tolerance:
        print(
            f"FAIL mean ratio {format_field(ratio)} outside "
            f"+-{format_field(args.assert_tolerance)}",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# dist-test
# ---------------------------------------------------------------------------


def cmd_dist_test(args) -> int:
    """Print one PASS/FAIL row per check; exit 0 only when every row passes.

    A row passes when its statistic is below its critical value: the 1%
    asymptotic KS points 1.63 / sqrt(n) (one sample) and 1.63 * sqrt(2 / n)
    (two samples of n), and for each Chernoff tail its bound plus three
    binomial standard errors of the observed frequency.
    """
    if min(args.ks_trials, args.chernoff_trials, args.oracle_n) < 1000:
        raise ValueError("all sample sizes must be at least 1000")

    # One run draws every trial under --seed, each index once: the KS row
    # reads trials [0, ks), the Chernoff rows [ks, ks + chernoff), and the
    # two oracle tests the next two ranges of oracle_n.
    ks, chernoff, n = args.ks_trials, args.chernoff_trials, args.oracle_n
    config = SystemConfig(master_seed=args.seed)
    plan = ExperimentPlan(
        config=config,
        trials=ks + chernoff,
        channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
    )
    ts = experiments.run_trials(plan, workers=args.threads)
    law = plan.law
    ks_statistic = ks_distance(ts.samples[:ks], law.cdf)
    rows = [("gamma-law-ks", ks_statistic, 1.63 / math.sqrt(ks))]

    samples = ts.samples[ks:]
    for eta in (0.5, 1.0, 2.0):
        freq = float(np.mean(samples >= (1.0 + eta) * law.mean))
        bound = analysis.chernoff_tail(config.l, eta)
        slack = 3.0 * math.sqrt(max(freq * (1 - freq), 1e-12) / samples.size)
        rows.append((f"chernoff-eta-{format_field(eta)}", freq, bound + slack))

    skew = coding.EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
    skew_config = SystemConfig(
        k_users=3, l=2, l_tilde=2, p_x=10.0, master_seed=args.seed
    )
    for name, enc, oracle_config, first in (
        ("orthonormal", plan.enc, config, ks + chernoff),
        ("skewed", skew, skew_config, ks + chernoff + n),
    ):
        stat = experiments.oracle_equivalence_test(
            enc, oracle_config, range(first, first + n)
        )
        rows.append((f"oracle-ks-{name}", stat, 1.63 * math.sqrt(2.0 / n)))

    for name, stat, critical in rows:
        print(
            f"{'PASS' if stat < critical else 'FAIL'} {name}: "
            f"statistic={format_field(stat)} critical={format_field(critical)}"
        )
    return 0 if all(stat < critical for _, stat, critical in rows) else 1


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _figure_rows(args) -> list[dict]:
    """The rows of figure --which under --seed, --trials and --threads."""
    config = SystemConfig(master_seed=args.seed)
    if args.which == 2:
        trials = 2000 if args.trials is None else args.trials
        base = ExperimentPlan(
            config=config,
            trials=trials,
            channel_mode=ChannelMode.RICIAN_PER_TRIAL,
        )
        return experiments.sweep_mse_vs_snr(
            base, [0, 5, 10, 15, 20], [0.25, 0.5], workers=args.threads
        )
    if args.which == 3:
        return experiments.sweep_rate_regions(
            0.02, 0.2, 1.0, [0, 5, 10, 15, 20, 25, 30]
        )
    trials = 500 if args.trials is None else args.trials
    base = ExperimentPlan(
        config=config.at_snr_db(15.0),
        trials=trials,
        channel_mode=ChannelMode.FIXED_FROM_SEED,
    )
    return experiments.sweep_blocklength(
        base, [10, 20, 40, 80], workers=args.threads
    )


def cmd_figures(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise ValueError("--trials must be at least 1")
    stem = {2: "fig2_mse_vs_snr", 3: "fig3_rate_regions", 4: "fig4_blocklength"}
    path = os.path.join(args.out_dir, stem[args.which] + ".csv")
    made = []  # the directories this run makes, outermost first
    try:
        # one component at a time, as written, so that ``..`` is followed
        # as the output path will follow it
        parts = pathlib.PurePath(args.out_dir).parts
        for directory in itertools.accumulate(parts, os.path.join):
            if not os.path.isdir(directory):
                os.mkdir(directory)
                made.append(directory)
        _require_writable(path)  # before the sweep, which can take minutes
        experiments.write_csv(_figure_rows(args), path)
    except BaseException:
        # a failed run removes what it made and nothing that was there before
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(directory)
        raise
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use.

    A build takes 1-2 ms (argparse sets up a help formatter for each
    option it adds), and ``parse_args`` never changes the parser, so every
    call returns the same one. Its defaults are read from
    module constants at the first call: a test that patches one must call
    ``build_parser.cache_clear()``.
    """
    parser = argparse.ArgumentParser(
        prog="aircomp",
        description=(
            "Coded over-the-air computation: encoding-matrix construction, "
            "closed-form theory, and Monte Carlo certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = []
    for name, func, text in (
        ("construct", cmd_construct, "build an orthonormal encoding matrix"),
        ("check", cmd_check, "validate a matrix file"),
        ("theory", cmd_theory, "closed-form distortion statistics"),
        ("regions", cmd_regions, "rate-region boundaries per criterion"),
        ("simulate", cmd_simulate, "run transmissions and summarize"),
        ("dist-test", cmd_dist_test, "statistical certification suite"),
        ("figures", cmd_figures, "reproduce the result tables"),
    ):
        parsers.append(sub.add_parser(name, help=text))
        parsers[-1].set_defaults(func=func)
    construct, check, theory, regions, simulate, dist_test, figures = parsers

    # A flag that several subcommands share is declared once, in a loop over
    # them, placed among each subcommand's own flags in its --help order.
    construct.add_argument("--l", type=int, required=True)
    construct.add_argument("--l-tilde", type=int, required=True)
    check.add_argument("--matrix", required=True)
    for p in (construct, check):
        p.add_argument("--seed", type=int, default=0)
    construct.add_argument("--out", required=True)
    for p in (construct, check):
        p.add_argument(
            "--max-exhaustive", type=int, default=coding.DEFAULT_MAX_EXHAUSTIVE_SUBSETS
        )
        p.add_argument("--samples", type=int, default=coding.DEFAULT_SAMPLE_COUNT)
        p.add_argument("--strict", action="store_true")

    theory.add_argument("--l", type=int, default=5)
    theory.add_argument("--l-tilde", type=int, default=10)
    regions.add_argument("--epsilon", type=_finite_float, required=True)
    regions.add_argument("--delta", type=_finite_float, default=0.2)
    regions.add_argument("--eta", type=_finite_float, default=1.0)
    regions.add_argument("--snr-db", type=_finite_float, nargs="+", required=True)
    for p in (theory, regions):
        p.add_argument("--p-w", type=_finite_float, default=1.0)
    theory.add_argument("--snr-db", type=_finite_float, default=10.0)
    for p in (theory, regions):
        p.add_argument("--min-gain", type=_finite_float, default=1.0)
    theory.add_argument("--matrix", default=None)

    simulate.add_argument("--config", default=None)
    simulate.add_argument("--trials", type=int, default=1000)
    simulate.add_argument(
        "--mode",
        choices=[m.value for m in ChannelMode],
        default=ChannelMode.RICIAN_PER_TRIAL.value,
    )
    simulate.add_argument(
        "--construction",
        choices=[c.value for c in Construction],
        default=Construction.RANDOM_ORTHONORMAL.value,
    )
    simulate.add_argument("--matrix", default=None)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--eta", type=_finite_float, default=None)
    simulate.add_argument("--out", default=None)
    simulate.add_argument("--assert-tolerance", type=_finite_float, default=None)

    dist_test.add_argument("--seed", type=int, default=0)
    dist_test.add_argument("--ks-trials", type=int, default=10_000)
    dist_test.add_argument("--chernoff-trials", type=int, default=100_000)
    dist_test.add_argument("--oracle-n", type=int, default=10_000)

    figures.add_argument("--which", type=int, choices=[2, 3, 4], required=True)
    figures.add_argument("--out-dir", default="results")
    figures.add_argument("--trials", type=int, default=None)
    figures.add_argument("--seed", type=int, default=0)

    for p in (simulate, dist_test, figures):
        p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place that turns a failure into exit 2."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "threads", 1) < 1:
            raise ValueError("--threads must be at least 1")
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
