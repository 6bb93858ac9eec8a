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
from dataclasses import replace

import numpy as np

from . import analysis, coding, experiments
from .channel import SystemConfig, all_ones_channel, db_to_linear
from .coding import Construction
from .errors import AirCompError
from .experiments import ChannelMode, ExperimentPlan
from .numerics import Rng

_VALIDATE_STREAM = experiments.stream_id(experiments._STREAM_VALIDATE)

ORTHONORMAL_TOLERANCE = 1e-10


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# construct / check
# ---------------------------------------------------------------------------


def _print_validation(report: coding.ValidationReport) -> None:
    print(f"power_ok: {str(report.power_ok).lower()}")
    print(
        f"rank_ok: {str(report.rank_ok).lower()} "
        f"({report.rank_mode.value}, {report.subsets_checked} subsets, "
        f"worst ratio {_fmt(report.worst_min_singular_ratio)})"
    )
    print("gram_spectrum: " + " ".join(_fmt(x) for x in report.gram_spectrum))


def cmd_construct(args) -> int:
    if args.l < 1 or args.l_tilde < args.l:
        return _fail(f"need --l-tilde >= --l >= 1, got ({args.l_tilde}, {args.l})")
    if args.samples < 1:
        return _fail("--samples must be at least 1")
    rng = Rng(args.seed)
    enc = coding.construct_random_orthonormal(args.l_tilde, args.l, rng)
    report = coding.validate(
        enc,
        max_exhaustive_subsets=args.max_exhaustive,
        sample_count=args.samples,
        rng=Rng(args.seed, _VALIDATE_STREAM),
    )
    gram_error = float(np.max(np.abs(enc.gram - np.eye(enc.l))))
    coding.save_matrix(enc, args.out)

    print(f"shape: {enc.l_tilde}x{enc.l}")
    print(f"rate: {_fmt(enc.rate)}")
    print(f"trace: {_fmt(float(np.trace(enc.gram).real))}")
    verdict = "ok" if gram_error < ORTHONORMAL_TOLERANCE else "FAILED"
    print(f"orthonormal: {verdict} (max deviation {_fmt(gram_error)})")
    _print_validation(report)
    print(f"wrote {args.out}")
    if args.strict and not (report.ok and gram_error < ORTHONORMAL_TOLERANCE):
        return 1
    return 0


def cmd_check(args) -> int:
    if args.samples < 1:
        return _fail("--samples must be at least 1")
    enc = coding.load_matrix(args.matrix)
    report = coding.validate(
        enc,
        max_exhaustive_subsets=args.max_exhaustive,
        sample_count=args.samples,
        rng=Rng(args.seed, _VALIDATE_STREAM),
    )
    print(f"shape: {enc.l_tilde}x{enc.l}")
    print(f"rate: {_fmt(enc.rate)}")
    print(f"trace: {_fmt(float(np.trace(enc.gram).real))}")
    _print_validation(report)
    if args.strict and not report.ok:
        return 1
    return 0


# ---------------------------------------------------------------------------
# theory / regions
# ---------------------------------------------------------------------------


def cmd_theory(args) -> int:
    if args.l < 1 or args.l_tilde < args.l:
        return _fail(f"need --l-tilde >= --l >= 1, got ({args.l_tilde}, {args.l})")
    if args.p_w <= 0 or args.n0 <= 0 or args.min_gain <= 0:
        return _fail("--p-w, --n0 and --min-gain must be positive")
    enc = None if args.matrix is None else coding.load_matrix(args.matrix)
    rho_x = db_to_linear(args.snr_db)
    rate = args.l / args.l_tilde
    params = analysis.optimal_mse_gamma(
        args.l, args.l_tilde, args.p_w, rho_x, args.min_gain
    )
    print(f"rate: {_fmt(rate)}")
    print(f"rho_x: {_fmt(rho_x)}")
    print(f"gamma_opt: {_fmt(analysis.gamma_opt(rate, args.p_w, rho_x, args.min_gain))}")
    print(f"gamma_shape: {_fmt(params.shape)}")
    print(f"gamma_scale: {_fmt(params.scale)}")
    print(f"gamma_mean: {_fmt(params.mean)}")
    print(f"gamma_variance: {_fmt(params.variance)}")
    if enc is not None:
        rho_star = rho_x * args.min_gain / (enc.rate * args.p_w)
        spectrum = coding.gram_spectrum(enc)
        print("spectrum: " + " ".join(_fmt(x) for x in spectrum))
        print(
            "expected_mse: "
            + _fmt(coding.theoretical_mse_expectation(enc, rho_star))
        )
    return 0


def cmd_regions(args) -> int:
    if args.epsilon <= 0:
        return _fail("--epsilon must be positive")
    if not 0 < args.delta < 1:
        return _fail("--delta must lie in (0, 1)")
    if args.eta <= 0:
        return _fail("--eta must be positive")
    if args.p_w <= 0 or args.min_gain <= 0:
        return _fail("--p-w and --min-gain must be positive")
    rows = experiments.sweep_rate_regions(
        args.epsilon,
        args.delta,
        args.eta,
        args.snr_db,
        p_w=args.p_w,
        min_gain=args.min_gain,
    )
    experiments.write_rows(rows, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.trials < 1:
        return _fail("--trials must be at least 1")
    if args.threads < 1:
        return _fail("--threads must be at least 1")
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
    ts = experiments.run_trials(plan, workers=args.threads)
    theory = experiments.theory_for_trials(ts)
    report = experiments.summarize(ts, theory, eta=args.eta)
    ratio = report.mean / report.theory_mean

    print(f"trials: {ts.samples.size}")
    print(f"mean_mse: {_fmt(report.mean)}")
    print(f"theory_mean: {_fmt(report.theory_mean)}")
    print(f"mean_ratio: {_fmt(ratio)}")
    print(f"var_mse: {_fmt(report.variance)}")
    print(f"theory_var: {_fmt(report.theory_variance)}")
    if report.ks_statistic is not None:
        print(f"ks_statistic: {_fmt(report.ks_statistic)}")
    if report.exceedance_freq is not None:
        print(f"exceedance_freq: {_fmt(report.exceedance_freq)}")

    if args.out:
        experiments.write_trials_csv(ts, args.out + ".trials.csv")
        blob = {"plan": plan.to_json(), "report": report.to_json()}
        with open(args.out + ".report.json", "w", encoding="utf-8") as fh:
            json.dump(blob, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.out}.trials.csv and {args.out}.report.json")

    if args.assert_tolerance is not None and abs(ratio - 1.0) > args.assert_tolerance:
        print(
            f"FAIL mean ratio {_fmt(ratio)} outside +-{_fmt(args.assert_tolerance)}",
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
    theory = experiments.theory_for_trials(ts)
    report = experiments.summarize(ts, theory)
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
        freq = float(np.mean(ts_big.samples >= (1.0 + eta) * theory.mean))
        bound = analysis.chernoff_tail(config.l, eta)
        slack = 3.0 * math.sqrt(max(freq * (1 - freq), 1e-12) / ts_big.samples.size)
        checks.append(
            (f"chernoff-eta-{_fmt(eta)}", freq, bound + slack, freq <= bound + slack)
        )

    ortho_stat = experiments.oracle_equivalence_test(
        ts.enc,
        config,
        all_ones_channel(config.k_users),
        args.oracle_n,
        Rng(args.seed + 1),
    )
    crit2 = _ks_two_sample_critical(args.oracle_n)
    checks.append(("oracle-ks-orthonormal", ortho_stat, crit2, ortho_stat < crit2))

    skew = coding.from_array(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
    skew_config = SystemConfig(
        k_users=3, l=2, l_tilde=2, p_x=10.0, master_seed=args.seed
    )
    skew_stat = experiments.oracle_equivalence_test(
        skew,
        skew_config,
        all_ones_channel(skew_config.k_users),
        args.oracle_n,
        Rng(args.seed + 2),
    )
    checks.append(("oracle-ks-skewed", skew_stat, crit2, skew_stat < crit2))

    all_ok = True
    for name, stat, critical, ok in checks:
        all_ok &= ok
        print(
            f"{'PASS' if ok else 'FAIL'} {name}: statistic={_fmt(stat)} "
            f"critical={_fmt(critical)}"
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
    p.add_argument("--p-w", type=float, default=1.0)
    p.add_argument("--n0", type=float, default=1.0)
    p.add_argument("--snr-db", type=float, default=10.0)
    p.add_argument("--min-gain", type=float, default=1.0)
    p.add_argument("--matrix", default=None)
    p.set_defaults(func=cmd_theory)

    p = sub.add_parser("regions", help="rate-region boundaries per criterion")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--snr-db", type=float, nargs="+", required=True)
    p.add_argument("--p-w", type=float, default=1.0)
    p.add_argument("--min-gain", type=float, default=1.0)
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
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--assert-tolerance", type=float, default=None)
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
