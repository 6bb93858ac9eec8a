"""Command-line front end.

Subcommands: construct, check, theory, regions, simulate, dist-test,
figures. Exit codes: 0 success, 1 validation/assertion failure, 2 usage
error, which for every subcommand also covers input files that cannot be
read or parsed and outputs that cannot be written. All numeric output is
locale-independent with 12 significant digits, and identical flags plus
seeds reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace

import numpy as np

from . import analysis, coding, experiments
from .channel import SystemConfig, all_ones_channel, db_to_linear
from .coding import Construction
from .errors import AirCompError
from .experiments import ChannelMode, ExperimentPlan, format_field
from .numerics import Rng

_VALIDATE_STREAM = experiments.stream_id(experiments._STREAM_VALIDATE)

ORTHONORMAL_TOLERANCE = 1e-10


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


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
        rng=Rng(args.seed, _VALIDATE_STREAM),
    )


def _print_shape(enc: coding.EncodingMatrix) -> None:
    print(f"shape: {enc.l_tilde}x{enc.l}")
    print(f"rate: {format_field(enc.rate)}")
    print(f"trace: {format_field(float(np.trace(enc.gram).real))}")


def _print_validation(report: coding.ValidationReport) -> None:
    print(f"power_ok: {str(report.power_ok).lower()}")
    print(
        f"rank_ok: {str(report.rank_ok).lower()} "
        f"({report.rank_mode.value}, {report.subsets_checked} subsets, "
        f"worst ratio {format_field(report.worst_min_singular_ratio)})"
    )
    print("gram_spectrum: " + " ".join(map(format_field, report.gram_spectrum)))


def cmd_construct(args) -> int:
    enc = coding.construct_random_orthonormal(args.l_tilde, args.l, Rng(args.seed))
    report = _validate(enc, args)
    gram_error = float(np.max(np.abs(enc.gram - np.eye(enc.l))))
    coding.save_matrix(enc, args.out)

    _print_shape(enc)
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
    _print_shape(enc)
    _print_validation(report)
    if args.strict and not report.ok:
        return 1
    return 0


# ---------------------------------------------------------------------------
# theory / regions
# ---------------------------------------------------------------------------


def cmd_theory(args) -> int:
    enc = None if args.matrix is None else coding.load_matrix(args.matrix)
    if enc is not None and (enc.l_tilde, enc.l) != (args.l_tilde, args.l):
        return _fail(
            f"matrix file shape ({enc.l_tilde}, {enc.l}) does not match "
            f"--l-tilde/--l ({args.l_tilde}, {args.l})"
        )
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
    if enc is not None:
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
    if args.threads < 1:
        return _fail("--threads must be at least 1")
    if args.eta is not None and args.eta <= 0:
        return _fail("--eta must be positive")
    if args.assert_tolerance is not None and args.assert_tolerance < 0:
        return _fail("--assert-tolerance must be non-negative")
    config = SystemConfig.from_json(args.config) if args.config else SystemConfig()
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    plan = ExperimentPlan(
        config=config,
        construction=Construction(args.construction),
        trials=args.trials,
        channel_mode=ChannelMode(args.mode),
        output_path=args.out,
        matrix_path=args.matrix,
    )
    # A matrix that cannot be built or loaded fails before any output exists.
    enc = experiments.build_encoding(plan)
    if args.out:
        # Fail before the run, not after it, when an output cannot be written.
        # Append mode checks writability without emptying an earlier result.
        for suffix in (".trials.csv", ".report.json"):
            open(args.out + suffix, "a", encoding="utf-8").close()
    ts = experiments.run_trials(plan, workers=args.threads, enc=enc)
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


def _ks_critical(n: int) -> float:
    return 1.63 / math.sqrt(n)


def _ks_two_sample_critical(n: int) -> float:
    return 1.63 * math.sqrt(2.0 / n)


def cmd_dist_test(args) -> int:
    if min(args.ks_trials, args.chernoff_trials, args.oracle_n) < 1000:
        return _fail("all sample sizes must be at least 1000")
    if args.threads < 1:
        return _fail("--threads must be at least 1")
    checks = []

    config = SystemConfig(master_seed=args.seed)
    base = ExperimentPlan(
        config=config,
        trials=args.ks_trials,
        channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
    )
    ts = experiments.run_trials(base, workers=args.threads)
    report = experiments.summarize(ts)
    checks.append(
        (
            "gamma-law-ks",
            report.ks_statistic,
            _ks_critical(args.ks_trials),
            report.ks_statistic < _ks_critical(args.ks_trials),
        )
    )

    chern_plan = replace(base, trials=args.chernoff_trials)
    ts_big = experiments.run_trials(chern_plan, workers=args.threads)
    for eta in (0.5, 1.0, 2.0):
        freq = float(np.mean(ts_big.samples >= (1.0 + eta) * report.theory_mean))
        bound = analysis.chernoff_tail(config.l, eta)
        slack = 3.0 * math.sqrt(max(freq * (1 - freq), 1e-12) / ts_big.samples.size)
        name = f"chernoff-eta-{format_field(eta)}"
        checks.append((name, freq, bound + slack, freq <= bound + slack))

    ortho_stat = experiments.oracle_equivalence_test(
        ts.enc,
        replace(config, master_seed=args.seed + 1),
        all_ones_channel(config.k_users),
        args.oracle_n,
    )
    crit2 = _ks_two_sample_critical(args.oracle_n)
    checks.append(("oracle-ks-orthonormal", ortho_stat, crit2, ortho_stat < crit2))

    skew = coding.EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
    skew_config = SystemConfig(
        k_users=3, l=2, l_tilde=2, p_x=10.0, master_seed=args.seed + 2
    )
    skew_stat = experiments.oracle_equivalence_test(
        skew,
        skew_config,
        all_ones_channel(skew_config.k_users),
        args.oracle_n,
    )
    checks.append(("oracle-ks-skewed", skew_stat, crit2, skew_stat < crit2))

    all_ok = True
    for name, stat, critical, ok in checks:
        all_ok &= ok
        print(
            f"{'PASS' if ok else 'FAIL'} {name}: statistic={format_field(stat)} "
            f"critical={format_field(critical)}"
        )
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def cmd_figures(args) -> int:
    if args.threads < 1:
        return _fail("--threads must be at least 1")
    if args.trials is not None and args.trials < 1:
        return _fail("--trials must be at least 1")
    os.makedirs(args.out_dir, exist_ok=True)
    config = SystemConfig(master_seed=args.seed)

    if args.which == 2:
        trials = 2000 if args.trials is None else args.trials
        base = ExperimentPlan(
            config=config,
            trials=trials,
            channel_mode=ChannelMode.RICIAN_PER_TRIAL,
        )
        rows = experiments.sweep_mse_vs_snr(
            base, [0, 5, 10, 15, 20], [0.25, 0.5], workers=args.threads
        )
        path = os.path.join(args.out_dir, "fig2_mse_vs_snr.csv")
    elif args.which == 3:
        rows = experiments.sweep_rate_regions(
            0.02, 0.2, 1.0, [0, 5, 10, 15, 20, 25, 30]
        )
        path = os.path.join(args.out_dir, "fig3_rate_regions.csv")
    else:
        trials = 500 if args.trials is None else args.trials
        snr15 = replace(config, p_x=config.n0 * db_to_linear(15.0))
        base = ExperimentPlan(
            config=snr15,
            trials=trials,
            channel_mode=ChannelMode.FIXED_FROM_SEED,
        )
        rows = experiments.sweep_blocklength(
            base, [10, 20, 40, 80], workers=args.threads
        )
        path = os.path.join(args.out_dir, "fig4_blocklength.csv")

    experiments.write_csv(rows, path)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aircomp",
        description=(
            "Coded over-the-air computation: encoding-matrix construction, "
            "closed-form theory, and Monte Carlo certification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build an orthonormal encoding matrix")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--l-tilde", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--max-exhaustive", type=int, default=coding.DEFAULT_MAX_EXHAUSTIVE_SUBSETS)
    p.add_argument("--samples", type=int, default=coding.DEFAULT_SAMPLE_COUNT)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("check", help="validate a matrix file")
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-exhaustive", type=int, default=coding.DEFAULT_MAX_EXHAUSTIVE_SUBSETS)
    p.add_argument("--samples", type=int, default=coding.DEFAULT_SAMPLE_COUNT)
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("theory", help="closed-form distortion statistics")
    p.add_argument("--l", type=int, default=5)
    p.add_argument("--l-tilde", type=int, default=10)
    p.add_argument("--p-w", type=_finite_float, default=1.0)
    p.add_argument("--snr-db", type=_finite_float, default=10.0)
    p.add_argument("--min-gain", type=_finite_float, default=1.0)
    p.add_argument("--matrix", default=None)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("regions", help="rate-region boundaries per criterion")
    p.add_argument("--epsilon", type=_finite_float, required=True)
    p.add_argument("--delta", type=_finite_float, default=0.2)
    p.add_argument("--eta", type=_finite_float, default=1.0)
    p.add_argument("--snr-db", type=_finite_float, nargs="+", required=True)
    p.add_argument("--p-w", type=_finite_float, default=1.0)
    p.add_argument("--min-gain", type=_finite_float, default=1.0)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("simulate", help="run transmissions and summarize")
    p.add_argument("--config", default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument(
        "--mode",
        choices=[m.value for m in ChannelMode],
        default=ChannelMode.RICIAN_PER_TRIAL.value,
    )
    p.add_argument(
        "--construction",
        choices=[c.value for c in Construction],
        default=Construction.RANDOM_ORTHONORMAL.value,
    )
    p.add_argument("--matrix", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--eta", type=_finite_float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--assert-tolerance", type=_finite_float, default=None)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("dist-test", help="statistical certification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ks-trials", type=int, default=10_000)
    p.add_argument("--chernoff-trials", type=int, default=100_000)
    p.add_argument("--oracle-n", type=int, default=10_000)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_dist_test)

    p = sub.add_parser("figures", help="reproduce the result tables")
    p.add_argument("--which", type=int, choices=[2, 3, 4], required=True)
    p.add_argument("--out-dir", default="results")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the one place that turns errors into exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, AirCompError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
