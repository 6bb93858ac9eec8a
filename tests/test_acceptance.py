"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines. Heavy Monte Carlo runs are shared across criteria through
module-scoped fixtures; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from aircomp import analysis, coding
from aircomp.analysis import DistortionLaw, chernoff_tail, min_source_length
from aircomp.channel import SystemConfig, all_ones_channel, run_round
from aircomp.coding import (
    Construction,
    construct_random_orthonormal,
    construct_repetition,
    validate,
)
from aircomp.experiments import (
    ChannelMode,
    ExperimentPlan,
    Purpose,
    oracle_equivalence_test,
    run_trials,
    stream_id,
    sweep_rate_regions,
)
from aircomp.numerics import Rng, ks_distance

SEED = 20240811

KS_ONE_SAMPLE_1PCT = 0.0163          # 1.63 / sqrt(10^4)
KS_TWO_SAMPLE_1PCT = 1.63 * math.sqrt(2.0 / 10**4)


def report(num, name, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def fixed_unit_plan(trials, snr_db, l, l_tilde, seed):
    config = SystemConfig(
        l=l,
        l_tilde=l_tilde,
        p_x=10.0 ** (snr_db / 10.0),
        master_seed=seed,
    )
    return ExperimentPlan(
        config=config,
        trials=trials,
        channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
    )


@pytest.fixture(scope="module")
def run_10db_half_rate():
    # 10 dB, L=5, L_tilde=10, unit min gain: the reference regime
    return run_trials(fixed_unit_plan(100_000, 10.0, 5, 10, SEED))


def test_criterion_1_optimality_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        for l, l_tilde in ((5, 10), (5, 20), (8, 16)):
            enc = construct_random_orthonormal(l_tilde, l, Rng(seed))
            gram = enc.phi.conj().T @ enc.phi
            worst = max(worst, float(np.max(np.abs(gram - np.eye(l)))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 1.0
    assert report(
        1,
        "orthonormal construction identity",
        ok,
        f"max |phi^H phi - I| = {worst:.2e} over 300 constructions "
        f"in {elapsed:.2f}s",
    )


def test_criterion_2_mean_mse(run_10db_half_rate):
    mean = float(np.mean(run_10db_half_rate.samples))
    error = abs(mean - 0.05) / 0.05
    assert report(
        2,
        "expected MSE at 10 dB, rate 1/2",
        error < 0.02,
        f"sample mean {mean:.6f} vs 0.05 (relative error {error:.3%}, "
        f"10^5 trials)",
    )


def test_criterion_3_gamma_law(run_10db_half_rate):
    # the first 10^4 trials are exactly the 10^4-trial run (index-keyed streams)
    samples = np.sort(run_10db_half_rate.samples[:10_000])
    law = DistortionLaw.optimal(5, 10, 1.0, 10.0, 1.0)
    stat = ks_distance(samples, law.cdf)
    assert report(
        3,
        "Gamma(5, 0.01) distortion law",
        stat < KS_ONE_SAMPLE_1PCT,
        f"one-sample KS {stat:.5f} < {KS_ONE_SAMPLE_1PCT} (10^4 trials)",
    )


def test_criterion_4_oracle_equivalence():
    enc = coding.EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
    config = SystemConfig(k_users=3, l=2, l_tilde=2, p_x=10.0, master_seed=SEED)
    stat = oracle_equivalence_test(enc, config, range(10_000))
    assert report(
        4,
        "pipeline vs spectrum-law sampler, spectrum {0.5, 1.5}",
        stat < KS_TWO_SAMPLE_1PCT,
        f"two-sample KS {stat:.5f} < {KS_TWO_SAMPLE_1PCT:.5f} "
        f"(10^4 per side)",
    )


def test_criterion_5_chernoff_bound(run_10db_half_rate):
    samples = run_10db_half_rate.samples
    n = samples.size
    mean = 0.05
    ok = True
    details = []
    for eta in (0.5, 1.0, 2.0):
        freq = float(np.mean(samples >= (1.0 + eta) * mean))
        bound = chernoff_tail(5.0, eta)
        slack = 3.0 * math.sqrt(max(freq * (1.0 - freq), 1e-12) / n)
        ok &= freq <= bound + slack
        details.append(f"eta={eta:g}: {freq:.4f} <= {bound:.4f}+{slack:.4f}")
    grid_ok = all(
        chernoff_tail(min_source_length(delta, eta), eta) <= delta
        for delta in (0.01, 0.05, 0.1, 0.2, 0.3)
        for eta in (0.25, 0.5, 1.0, 2.0, 4.0)
    )
    ok &= grid_ok
    details.append(f"5x5 source-length grid {'ok' if grid_ok else 'VIOLATED'}")
    assert report(5, "Chernoff tail bound", ok, "; ".join(details))


def test_criterion_6_rate_region_numbers():
    rows = sweep_rate_regions(0.02, 0.2, 1.0, [15.0])
    by_scheme = {r["scheme"]: r["rate"] for r in rows}
    expected_bound = f"{by_scheme['epsilon']:.6g}"
    probabilistic_bound = f"{by_scheme['epsilon_delta']:.6g}"
    six_digits_ok = expected_bound == "0.632456" and probabilistic_bound == "0.316228"

    snrs = [float(s) for s in np.arange(0.0, 30.5, 2.5)]
    grid = sweep_rate_regions(0.02, 0.2, 1.0, snrs)
    eps_rates = [r["rate"] for r in grid if r["scheme"] == "epsilon"]
    del_rates = [r["rate"] for r in grid if r["scheme"] == "epsilon_delta"]
    monotone = all(b >= a for a, b in zip(eps_rates, eps_rates[1:])) and all(
        b >= a for a, b in zip(del_rates, del_rates[1:])
    )
    nested = all(d <= e for d, e in zip(del_rates, eps_rates))

    ok = six_digits_ok and monotone and nested
    assert report(
        6,
        "rate-region boundaries at 15 dB",
        ok,
        f"expected-criterion {expected_bound}, probabilistic {probabilistic_bound}; "
        f"monotone={monotone}, nested={nested}",
    )


def test_criterion_7_blocklength_concentration():
    short = run_trials(fixed_unit_plan(10_000, 15.0, 5, 10, SEED + 1))
    long = run_trials(fixed_unit_plan(10_000, 15.0, 10, 20, SEED + 2))
    var_short = float(np.var(short.samples, ddof=1))
    var_long = float(np.var(long.samples, ddof=1))
    ratio = var_long / var_short
    variance_ok = abs(ratio - 0.5) <= 0.05

    mean_short = float(np.mean(short.samples))
    mean_long = float(np.mean(long.samples))
    se = math.hypot(
        math.sqrt(var_short / short.samples.size),
        math.sqrt(var_long / long.samples.size),
    )
    means_ok = abs(mean_long - mean_short) <= 3.0 * se

    ok = variance_ok and means_ok
    assert report(
        7,
        "variance halves when the codeword length doubles",
        ok,
        f"var ratio {ratio:.3f} (target 0.5 +- 0.05); "
        f"means {mean_short:.5f} vs {mean_long:.5f} within 3 SE = {3 * se:.5f}",
    )


def test_criterion_8_scaling_laws(run_10db_half_rate):
    base = float(np.mean(run_10db_half_rate.samples[:30_000]))
    high_snr = run_trials(fixed_unit_plan(30_000, 20.0, 5, 10, SEED + 3))
    low_rate = run_trials(fixed_unit_plan(30_000, 10.0, 5, 20, SEED + 4))
    snr_ratio = base / float(np.mean(high_snr.samples))
    rate_ratio = float(np.mean(low_rate.samples)) / base
    snr_ok = abs(snr_ratio - 10.0) / 10.0 <= 0.05
    rate_ok = abs(rate_ratio - 0.5) / 0.5 <= 0.05
    ok = snr_ok and rate_ok
    assert report(
        8,
        "SNR and rate scaling of the mean MSE",
        ok,
        f"10 dB/20 dB mean ratio {snr_ratio:.3f} (target 10 +- 5%); "
        f"R=0.25/R=0.5 mean ratio {rate_ratio:.3f} (target 0.5 +- 5%)",
    )


def test_criterion_9_uncoded_baseline_identity():
    # uncoded transmission (phi = I, R = 1) and the identity-construction
    # plan are the same scheme: same seeds must give identical samples
    config = SystemConfig(l=5, l_tilde=5, p_x=10.0, master_seed=SEED + 5)
    plan = ExperimentPlan(
        config=config,
        construction=Construction.IDENTITY,
        trials=2000,
        channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
    )
    coded_view = run_trials(plan)

    uncoded_enc = construct_repetition(config.l)
    ch = all_ones_channel(config.k_users)
    uncoded = np.array(
        [
            run_round(
                uncoded_enc,
                config,
                ch,
                Rng(config.master_seed, stream_id(Purpose.TRIAL, i)),
            )
            for i in range(plan.trials)
        ]
    )
    identical = np.array_equal(coded_view.samples, uncoded)
    rerun_identical = np.array_equal(run_trials(plan).samples, coded_view.samples)
    ok = identical and rerun_identical
    assert report(
        9,
        "identity construction equals the uncoded baseline",
        ok,
        f"2000 samples identical={identical}, rerun identical={rerun_identical}",
    )


def test_criterion_10_rank_condition_behavior():
    random_ok = True
    for seed in range(100):
        enc = construct_random_orthonormal(6, 3, Rng(seed, 777))
        rep = validate(enc)
        random_ok &= rep.rank_mode.value == "exhaustive" and rep.rank_ok
    repetition_reports = [validate(construct_repetition(2, 2)) for _ in range(3)]
    repetition_fails = all(
        (not r.rank_ok) and r.power_ok and r.subsets_checked == 6
        for r in repetition_reports
    )
    ok = random_ok and repetition_fails
    assert report(
        10,
        "row-subset rank condition",
        ok,
        f"random (6,3) exhaustive pass across 100 seeds={random_ok}; "
        f"repetition (2,2) deterministic fail={repetition_fails}",
    )
