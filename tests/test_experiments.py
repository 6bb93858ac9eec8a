import concurrent.futures
import io
import math
import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from aircomp import analysis, channel, cli, coding, experiments, numerics
from aircomp.channel import SystemConfig, all_ones_channel, max_power_scaling, run_round
from aircomp.coding import Construction, construct_random_orthonormal
from aircomp.errors import EmptySample, InvalidShape, NonIntegralBlocklength
from aircomp.experiments import (
    CSV_HEADER,
    ChannelMode,
    ExperimentPlan,
    TrialSet,
    _STREAM_TRIAL,
    build_encoding,
    ks_two_sample,
    oracle_equivalence_test,
    run_trials,
    stream_id,
    summarize,
    sweep_blocklength,
    sweep_mse_vs_snr,
    sweep_rate_regions,
    theory_for_trials,
    write_csv,
    write_rows,
    write_trials_csv,
)
from aircomp.numerics import Rng


def fixed_plan(trials=2000, seed=0, **config_overrides):
    cfg = SystemConfig(master_seed=seed, **config_overrides)
    return ExperimentPlan(
        config=cfg, trials=trials, channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN
    )


class TestExperimentPlan:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentPlan(config=SystemConfig(), trials=0)

    def test_coerces_enum_values(self):
        plan = ExperimentPlan(
            config=SystemConfig(),
            construction="identity",
            channel_mode="fixed-unit",
        )
        assert plan.construction is Construction.IDENTITY
        assert plan.channel_mode is ChannelMode.FIXED_UNIT_MIN_GAIN

    def test_matrix_path_requires_custom(self):
        # a matrix file the plan would never read is an error, not ignored
        with pytest.raises(ValueError, match="custom"):
            ExperimentPlan(config=SystemConfig(), matrix_path="phi.json")


class TestBuildEncoding:
    def test_random_orthonormal_is_seeded_from_config(self):
        plan = fixed_plan(seed=5)
        a = build_encoding(plan)
        b = build_encoding(plan)
        assert np.array_equal(a.phi, b.phi)

    def test_identity_requires_square_shape(self):
        plan = ExperimentPlan(
            config=SystemConfig(), construction=Construction.IDENTITY
        )
        with pytest.raises(InvalidShape):
            build_encoding(plan)

    def test_repetition_blocks(self):
        cfg = SystemConfig(l=5, l_tilde=15)
        plan = ExperimentPlan(config=cfg, construction=Construction.REPETITION)
        enc = build_encoding(plan)
        assert enc.l_tilde == 15
        assert np.allclose(enc.gram, np.eye(5), atol=1e-14)

    def test_custom_from_file(self, tmp_path):
        enc = construct_random_orthonormal(10, 5, Rng(6))
        path = tmp_path / "phi.json"
        coding.save_matrix(enc, path)
        plan = ExperimentPlan(
            config=SystemConfig(),
            construction=Construction.CUSTOM,
            matrix_path=str(path),
        )
        loaded = build_encoding(plan)
        assert np.array_equal(loaded.phi, enc.phi)

    def test_custom_requires_path(self):
        # checked when the plan is made, before any output or trial
        with pytest.raises(ValueError, match="matrix_path"):
            ExperimentPlan(config=SystemConfig(), construction=Construction.CUSTOM)


class TestRunTrials:
    def test_reruns_are_bitwise_identical(self):
        plan = fixed_plan(trials=500)
        a = run_trials(plan)
        b = run_trials(plan)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.channel_min_gains, b.channel_min_gains)
        assert np.array_equal(a.p_used, b.p_used)

    def test_mean_matches_expected_distortion(self):
        # 10 dB, rate 1/2, unit min gain -> expected MSE 0.05
        plan = fixed_plan(trials=20_000, seed=11)
        ts = run_trials(plan)
        assert np.mean(ts.samples) == pytest.approx(0.05, rel=0.02)
        assert np.all(ts.p_used == 20.0)
        assert np.all(ts.channel_min_gains == 1.0)

    def test_trial_streams_are_schedule_independent(self):
        plan = fixed_plan(trials=12, seed=13)
        ts = run_trials(plan)
        enc = build_encoding(plan)
        ch = all_ones_channel(plan.config.k_users)
        p = max_power_scaling(ch, plan.config)
        direct = run_round(
            enc,
            plan.config,
            ch,
            p,
            Rng(plan.config.master_seed, stream_id(_STREAM_TRIAL, 7)),
        )
        assert ts.samples[7] == direct.distortion

    def test_worker_count_does_not_change_results(self):
        plan = fixed_plan(trials=60, seed=14)
        serial = run_trials(plan, workers=1)
        parallel = run_trials(plan, workers=3)
        assert np.array_equal(serial.samples, parallel.samples)
        assert np.array_equal(serial.p_used, parallel.p_used)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        plan = fixed_plan(trials=20, seed=14)
        wide = run_trials(plan, workers=64)
        assert np.array_equal(wide.samples, run_trials(plan, workers=1).samples)

    def test_fixed_from_seed_holds_channel(self):
        cfg = SystemConfig(master_seed=15)
        plan = ExperimentPlan(
            config=cfg, trials=50, channel_mode=ChannelMode.FIXED_FROM_SEED
        )
        ts = run_trials(plan)
        assert np.all(ts.channel_min_gains == ts.channel_min_gains[0])
        assert np.all(ts.p_used == ts.p_used[0])

    def test_rician_per_trial_redraws(self):
        cfg = SystemConfig(master_seed=16)
        plan = ExperimentPlan(
            config=cfg, trials=50, channel_mode=ChannelMode.RICIAN_PER_TRIAL
        )
        ts = run_trials(plan)
        assert np.unique(ts.channel_min_gains).size > 1
        # power scaling tracks the per-trial channel
        expected_p = cfg.p_x * ts.channel_min_gains / (cfg.rate * cfg.p_w)
        assert np.allclose(ts.p_used, expected_p, rtol=1e-12)


def count_trial_loop_calls(monkeypatch):
    """Count engine calls made by run_trials' trial loop.

    Calls made while ``build_encoding`` or ``fixed_channel_for`` runs are
    one-off setup and are left out, so the counts are the per-trial call
    structure: the one the benchmark's trace self-check expects.
    """
    counts = dict.fromkeys(
        ("Rng", "run_round", "encode_and_precode", "sample_rician"), 0
    )
    in_setup = []

    def patch(owner, name, key=None, setup=False):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            if key is not None and not in_setup:
                counts[key] += 1
            if not setup:
                return original(*args, **kwargs)
            in_setup.append(name)
            try:
                return original(*args, **kwargs)
            finally:
                in_setup.pop()

        monkeypatch.setattr(owner, name, wrapper)

    patch(Rng, "__init__", key="Rng")
    for name in ("run_round", "encode_and_precode", "sample_rician"):
        patch(channel, name, key=name)
    for name in ("build_encoding", "fixed_channel_for"):
        patch(experiments, name, setup=True)
    return counts


class TestTrialLoopCallStructure:
    TRIALS = 7

    @pytest.mark.parametrize(
        "mode, rng_per_trial, rician_per_trial",
        [
            (ChannelMode.RICIAN_PER_TRIAL, 2, 1),
            (ChannelMode.FIXED_UNIT_MIN_GAIN, 1, 0),
            (ChannelMode.FIXED_FROM_SEED, 1, 0),
        ],
    )
    def test_calls_per_trial(self, monkeypatch, mode, rng_per_trial, rician_per_trial):
        cfg = SystemConfig(master_seed=17)
        plan = ExperimentPlan(config=cfg, trials=self.TRIALS, channel_mode=mode)
        counts = count_trial_loop_calls(monkeypatch)
        run_trials(plan, workers=1)
        t = self.TRIALS
        assert counts == {
            "Rng": rng_per_trial * t,
            "run_round": t,
            "encode_and_precode": cfg.k_users * t,
            "sample_rician": rician_per_trial * t,
        }


class TestDistTestCallStructure:
    def test_calls_match_bench_pins(self, monkeypatch, capsys):
        # bench/workloads.py pins these for dist-test: run_round and
        # encode_and_precode per KS, Chernoff and two oracle runs (10 users
        # on 10x5, 3 users on the skewed 2x2), one spectrum draw per oracle
        # sample, and at least one incomplete-gamma call per KS sample.
        counts = dict.fromkeys(
            (
                "run_round",
                "encode_and_precode",
                "sample_general_mse",
                "regularized_lower_gamma",
            ),
            0,
        )
        owners = {
            "run_round": [channel],
            "encode_and_precode": [channel],
            "sample_general_mse": [analysis],
            # bound in both modules, as the bench's tracer replaces both
            "regularized_lower_gamma": [numerics, analysis],
        }
        for name, modules in owners.items():
            original = getattr(modules[0], name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                monkeypatch.setattr(module, name, counted)
        n = 1000
        code = cli.main(
            [
                "dist-test", "--seed", "0", "--ks-trials", str(n),
                "--chernoff-trials", str(n), "--oracle-n", str(n),
            ]
        )
        assert code == 0
        assert "FAIL" not in capsys.readouterr().out
        assert counts["run_round"] == 4 * n
        assert counts["encode_and_precode"] == 10 * 3 * n + 3 * n
        assert counts["sample_general_mse"] == 2 * n
        assert counts["regularized_lower_gamma"] >= n


class TestTrialRange:
    @pytest.mark.parametrize(
        "mode", [ChannelMode.RICIAN_PER_TRIAL, ChannelMode.FIXED_UNIT_MIN_GAIN]
    )
    @pytest.mark.parametrize("start, stop", [(2**48, 2**48 + 1), (-1, 1)])
    def test_index_out_of_range_rejected_before_any_trial(
        self, monkeypatch, mode, start, stop
    ):
        plan = ExperimentPlan(config=SystemConfig(master_seed=3), channel_mode=mode)
        enc = build_encoding(plan)
        fixed = experiments.fixed_channel_for(plan)
        calls = []
        for name in ("run_round", "sample_rician"):
            monkeypatch.setattr(channel, name, lambda *a, **k: calls.append(a))
        with pytest.raises(ValueError, match="stream index out of range"):
            experiments._run_range(enc, plan.config, fixed, start, stop)
        assert calls == []

    def test_last_index_in_range_runs(self):
        plan = fixed_plan(trials=1)
        enc = build_encoding(plan)
        fixed = experiments.fixed_channel_for(plan)
        samples, _, _ = experiments._run_range(
            enc, plan.config, fixed, 2**48 - 1, 2**48
        )
        p = max_power_scaling(fixed, plan.config)
        rng = Rng(plan.config.master_seed, stream_id(_STREAM_TRIAL, 2**48 - 1))
        assert samples[0] == run_round(enc, plan.config, fixed, p, rng).distortion


class TestSummarize:
    def test_moments_of_synthetic_gamma_samples(self):
        # n0 / p = 1 / 20 at an orthonormal 10x5 code: Gamma(5, 0.01)
        samples = Rng(17).gen.gamma(5.0, 0.01, size=30_000)
        plan = fixed_plan(trials=30_000)
        ts = TrialSet(
            plan=plan,
            enc=build_encoding(plan),
            samples=samples,
            channel_min_gains=np.ones(samples.size),
            p_used=np.full(samples.size, 20.0),
        )
        report = summarize(ts)
        assert report.mean == pytest.approx(0.05, rel=0.02)
        assert report.variance == pytest.approx(5e-4, rel=0.05)
        assert report.theory_mean == pytest.approx(0.05)
        assert report.theory_variance == pytest.approx(5e-4)
        assert report.ks_statistic < 1.63 / math.sqrt(samples.size)

    def test_full_pipeline_gamma_fit(self):
        plan = fixed_plan(trials=10_000, seed=18)
        ts = run_trials(plan)
        report = summarize(ts)
        assert report.ks_statistic < 0.0163

    def test_ks_omitted_in_fading_mode(self):
        cfg = SystemConfig(master_seed=19)
        plan = ExperimentPlan(
            config=cfg, trials=100, channel_mode=ChannelMode.RICIAN_PER_TRIAL
        )
        ts = run_trials(plan)
        report = summarize(ts)
        assert report.ks_statistic is None

    def test_exceedance_frequency(self):
        samples = np.array([0.5, 1.5, 2.5, 3.5])
        plan = fixed_plan(trials=4)
        ts = TrialSet(
            plan=plan,
            enc=build_encoding(plan),
            samples=samples,
            channel_min_gains=np.ones(4),
            p_used=np.ones(4),
        )
        report = summarize(ts, eta=1.0)
        # theory mean n0 / p = 1, threshold (1 + 1) * 1 = 2 -> two of four exceed
        assert report.exceedance_freq == pytest.approx(0.5)

    def test_single_sample_is_degenerate(self):
        plan = fixed_plan(trials=1)
        ts = TrialSet(
            plan=plan,
            enc=build_encoding(plan),
            samples=np.array([0.05]),
            channel_min_gains=np.ones(1),
            p_used=np.ones(1),
        )
        report = summarize(ts)
        assert report.variance == 0.0
        assert report.degenerate

    def test_empty_rejected(self):
        plan = fixed_plan(trials=1)
        ts = TrialSet(
            plan=plan,
            enc=build_encoding(plan),
            samples=np.array([]),
            channel_min_gains=np.array([]),
            p_used=np.array([]),
        )
        with pytest.raises(EmptySample):
            summarize(ts)


class TestTheoryForTrials:
    def test_matches_closed_form_in_fixed_mode(self):
        plan = fixed_plan(trials=10, seed=20)
        ts = run_trials(plan)
        theory = theory_for_trials(ts)
        expected = analysis.DistortionLaw.optimal(5, 10, 1.0, 10.0, 1.0)
        assert theory.shape == expected.shape
        assert theory.scale == pytest.approx(expected.scale, rel=1e-12)


class TestSweepMseVsSnr:
    def test_grid_matches_theory(self):
        base = fixed_plan(trials=5000, seed=21)
        rows = sweep_mse_vs_snr(base, [10.0, 20.0], [0.5])
        by_key = {(r["snr_db"], r["scheme"], r["rate"]): r for r in rows}
        for row in rows:
            assert row["mean_mse"] / row["theory_mean"] == pytest.approx(1.0, abs=0.03)
        # 10 dB -> 20 dB at fixed rate shrinks the mean tenfold
        r10 = by_key[(10.0, "proposed", 0.5)]
        r20 = by_key[(20.0, "proposed", 0.5)]
        assert r10["mean_mse"] / r20["mean_mse"] == pytest.approx(10.0, rel=0.05)
        # rate 0.5 halves the uncoded mean at the same SNR
        u10 = by_key[(10.0, "uncoded", 1.0)]
        assert r10["mean_mse"] / u10["mean_mse"] == pytest.approx(0.5, rel=0.05)

    def test_uncoded_rows_present_per_snr(self):
        base = fixed_plan(trials=100, seed=22)
        rows = sweep_mse_vs_snr(base, [0.0, 10.0], [0.5])
        uncoded = [r for r in rows if r["scheme"] == "uncoded"]
        assert len(uncoded) == 2
        assert all(r["l_tilde"] == r["l"] for r in uncoded)

    def test_custom_base_keeps_identity_baseline(self, tmp_path):
        path = tmp_path / "phi.json"
        coding.save_matrix(construct_random_orthonormal(10, 5, Rng(6)), path)
        base = replace(
            fixed_plan(trials=3),
            construction=Construction.CUSTOM,
            matrix_path=str(path),
        )
        rows = sweep_mse_vs_snr(base, [10.0], [0.5])
        assert [r["scheme"] for r in rows] == ["proposed", "uncoded"]

    def test_non_integral_blocklength_rejected(self):
        base = fixed_plan(trials=10)
        with pytest.raises(NonIntegralBlocklength):
            sweep_mse_vs_snr(base, [10.0], [0.3])

    def test_rate_domain(self):
        base = fixed_plan(trials=10)
        with pytest.raises(ValueError):
            sweep_mse_vs_snr(base, [10.0], [1.5])


class TestSweepRateRegions:
    def test_fifteen_db_reference_values(self):
        rows = sweep_rate_regions(0.02, 0.2, 1.0, [15.0])
        by_scheme = {r["scheme"]: r for r in rows}
        assert by_scheme["epsilon"]["rate"] == pytest.approx(
            0.6324555320336759, rel=1e-12
        )
        assert by_scheme["epsilon_asymptotic"]["rate"] == pytest.approx(
            by_scheme["epsilon"]["rate"]
        )
        assert by_scheme["epsilon_delta"]["rate"] == pytest.approx(
            0.31622776601683794, rel=1e-12
        )
        assert by_scheme["epsilon_delta"]["l"] == 6

    def test_monotone_in_snr_and_nested(self):
        snrs = [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0]
        rows = sweep_rate_regions(0.02, 0.2, 1.0, snrs)
        for scheme in ("epsilon", "epsilon_delta"):
            rates = [r["rate"] for r in rows if r["scheme"] == scheme]
            assert all(b >= a for a, b in zip(rates, rates[1:]))
        for snr in snrs:
            at_snr = {r["scheme"]: r["rate"] for r in rows if r["snr_db"] == snr}
            assert at_snr["epsilon_delta"] <= at_snr["epsilon"]

    def test_caps_at_one(self):
        rows = sweep_rate_regions(1e9, 0.2, 1.0, [10.0])
        assert all(r["rate"] == 1.0 for r in rows)

    def test_expected_distortion_criteria_share_the_bound(self):
        rows = sweep_rate_regions(0.02, 0.2, 1.0, [0.0, 15.0])
        for snr in (0.0, 15.0):
            at_snr = {r["scheme"]: r for r in rows if r["snr_db"] == snr}
            assert at_snr["epsilon"]["rate"] == at_snr["epsilon_asymptotic"]["rate"]
            assert at_snr["epsilon"]["l"] is None
            assert at_snr["epsilon_asymptotic"]["l"] is None

    @pytest.mark.parametrize("delta, eta", [(0.2, 1.0), (0.01, 0.25), (0.5, 4.0)])
    def test_probabilistic_row_carries_min_source_length(self, delta, eta):
        (row,) = [
            r for r in sweep_rate_regions(0.02, delta, eta, [15.0])
            if r["scheme"] == "epsilon_delta"
        ]
        assert row["l"] == analysis.min_source_length(delta, eta)
        rho_x = channel.db_to_linear(15.0)
        assert row["rate"] == analysis.epsilon_rate_bound(
            0.02 / (1 + eta), rho_x, 1.0, 1.0
        )

    def test_l_min_is_snr_independent(self):
        rows = sweep_rate_regions(0.02, 0.2, 1.0, [0.0, 15.0, 30.0])
        l_mins = {r["l"] for r in rows if r["scheme"] == "epsilon_delta"}
        assert l_mins == {6}


class TestSweepBlocklength:
    def test_theory_variances_halve(self):
        cfg = SystemConfig(p_x=10**1.5, master_seed=23)
        base = ExperimentPlan(
            config=cfg, trials=2000, channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN
        )
        rows = sweep_blocklength(base, [10, 20, 40])
        theory = [r["theory_var"] for r in rows]
        assert theory[0] / theory[1] == pytest.approx(2.0, rel=1e-12)
        assert theory[1] / theory[2] == pytest.approx(2.0, rel=1e-12)
        # sample means agree across blocklengths within 3 standard errors
        means = [r["mean_mse"] for r in rows]
        ses = [math.sqrt(r["var_mse"] / r["trials"]) for r in rows]
        for i in (1, 2):
            assert abs(means[i] - means[0]) <= 3 * math.hypot(ses[i], ses[0])

    def test_blocklength_must_fit_rate(self):
        base = fixed_plan(trials=10)
        with pytest.raises(NonIntegralBlocklength):
            sweep_blocklength(base, [11])

    def test_fading_mode_rejected(self):
        plan = ExperimentPlan(
            config=SystemConfig(), trials=10, channel_mode=ChannelMode.RICIAN_PER_TRIAL
        )
        with pytest.raises(ValueError):
            sweep_blocklength(plan, [10])


class TestKsTwoSample:
    def test_matches_scipy(self):
        a = Rng(24).gen.exponential(size=400)
        b = Rng(25).gen.exponential(size=300)
        ours = ks_two_sample(a, b)
        theirs = scipy.stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_disjoint_samples(self):
        assert ks_two_sample([0.0, 1.0], [5.0, 6.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(EmptySample):
            ks_two_sample([], [1.0])


class TestOracleEquivalence:
    def test_orthonormal_pipeline_matches_spectrum_law(self):
        cfg = SystemConfig(master_seed=26)
        enc = construct_random_orthonormal(10, 5, Rng(26, 3))
        stat = oracle_equivalence_test(enc, cfg, all_ones_channel(cfg.k_users), 2000)
        assert stat < 1.63 * math.sqrt(2.0 / 2000)

    def test_skewed_spectrum_matches_too(self):
        cfg = SystemConfig(k_users=3, l=2, l_tilde=2, p_x=10.0, master_seed=27)
        enc = coding.EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
        stat = oracle_equivalence_test(enc, cfg, all_ones_channel(3), 2000)
        assert stat < 1.63 * math.sqrt(2.0 / 2000)

    def test_minimum_sample_size(self):
        cfg = SystemConfig(master_seed=28)
        enc = construct_random_orthonormal(10, 5, Rng(28))
        with pytest.raises(ValueError):
            oracle_equivalence_test(enc, cfg, all_ones_channel(10), 10)


class TestCsvOutput:
    def test_header_is_exact(self):
        buf = io.StringIO()
        write_rows([], buf)
        assert buf.getvalue() == (
            "experiment,snr_db,rate,l,l_tilde,scheme,trials,mean_mse,var_mse,"
            "theory_mean,theory_var,ks_stat,exceedance,bound\n"
        )

    def test_missing_fields_are_empty(self):
        rows = sweep_rate_regions(0.02, 0.2, 1.0, [15.0])
        buf = io.StringIO()
        write_rows(rows, buf)
        lines = buf.getvalue().splitlines()
        first = lines[1].split(",")
        assert first[0] == "rate_regions"
        assert first[7] == ""  # mean_mse does not apply to a region row

    def test_significant_digits(self):
        buf = io.StringIO()
        row = {key: None for key in CSV_HEADER}
        row.update(experiment="x", rate=0.6324555320336759)
        write_rows([row], buf)
        assert "0.632455532034" in buf.getvalue()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError):
            write_rows([{"nope": 1}], io.StringIO())

    def test_file_roundtrip_is_deterministic(self, tmp_path):
        rows = sweep_rate_regions(0.02, 0.2, 1.0, [0.0, 15.0])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(rows, p1)
        write_csv(rows, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_trials_csv(self, tmp_path):
        plan = fixed_plan(trials=5, seed=29)
        ts = run_trials(plan)
        path = tmp_path / "trials.csv"
        write_trials_csv(ts, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,distortion,min_gain,p_used"
        assert len(lines) == 6
