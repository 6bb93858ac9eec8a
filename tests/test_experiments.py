import concurrent.futures
import importlib
import io
import math
import os
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from aircomp import analysis, channel, cli, coding, experiments, numerics
from aircomp.channel import SystemConfig, all_ones_channel, max_power_scaling, run_round
from aircomp.coding import Construction, construct_random_orthonormal
from aircomp.errors import (
    EmptySample,
    InvalidShape,
    NonIntegralBlocklength,
    ZeroChannel,
)
from aircomp.experiments import (
    CSV_HEADER,
    ChannelMode,
    ExperimentPlan,
    TrialSet,
    Purpose,
    build_encoding,
    oracle_equivalence_test,
    run_trials,
    stream_id,
    summarize,
    sweep_blocklength,
    sweep_mse_vs_snr,
    sweep_rate_regions,
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
        assert np.allclose(enc.phi.conj().T @ enc.phi, np.eye(5), atol=1e-14)

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

    def test_repetition_requires_whole_blocks(self):
        plan = ExperimentPlan(
            config=SystemConfig(l=2, l_tilde=5), construction=Construction.REPETITION
        )
        with pytest.raises(InvalidShape, match="multiple of l"):
            build_encoding(plan)

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
        direct = run_round(
            enc,
            plan.config,
            ch,
            Rng(plan.config.master_seed, stream_id(Purpose.TRIAL, 7)),
        )
        assert ts.samples[7] == direct

    def test_rician_trial_replays_alone(self):
        # trial i needs only its channel stream and its trial stream
        cfg = SystemConfig(master_seed=17)
        plan = ExperimentPlan(
            config=cfg, trials=12, channel_mode=ChannelMode.RICIAN_PER_TRIAL
        )
        ts = run_trials(plan)
        ch = channel.sample_rician(cfg, Rng(17, stream_id(Purpose.CHANNEL, 7)))
        rng = Rng(17, stream_id(Purpose.TRIAL, 7))
        direct = run_round(build_encoding(plan), cfg, ch, rng)
        assert ts.samples[7] == direct
        assert ts.channel_min_gains[7] == ch.min_gain

    @pytest.mark.parametrize("mode", list(ChannelMode))
    def test_first_trials_equal_the_shorter_run(self, mode):
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=18), trials=80, channel_mode=mode
        )
        long = run_trials(plan)
        short = run_trials(replace(plan, trials=30))
        assert np.array_equal(long.samples[:30], short.samples)
        assert np.array_equal(long.channel_min_gains[:30], short.channel_min_gains)

    def test_worker_count_does_not_change_results(self):
        plan = fixed_plan(trials=60, seed=14)
        serial = run_trials(plan, workers=1)
        parallel = run_trials(plan, workers=3)
        assert np.array_equal(serial.samples, parallel.samples)
        assert np.array_equal(serial.p_used, parallel.p_used)

    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError, match="at least one worker"):
            run_trials(fixed_plan(trials=2), workers=0)

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_p_used_is_the_power_each_trial_ran_at(self, workers):
        # bit for bit the scalar max_power_scaling of each trial's channel
        cfg = SystemConfig(master_seed=16)
        plan = ExperimentPlan(
            config=cfg, trials=50, channel_mode=ChannelMode.RICIAN_PER_TRIAL
        )
        ts = run_trials(plan, workers=workers)
        expected = [
            max_power_scaling(
                channel.sample_rician(
                    cfg, Rng(16, stream_id(Purpose.CHANNEL, i))
                ).min_gain,
                cfg,
            )
            for i in range(plan.trials)
        ]
        assert np.array_equal(
            ts.p_used.view(np.uint64), np.array(expected).view(np.uint64)
        )


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


# At this SNR the law's variance overflows at every power scaling the plans
# below reach, while each trial alone would run.
LAW_OVERFLOW_DB = -2990.0


def overflow_plan(mode):
    cfg = SystemConfig(p_x=channel.db_to_linear(LAW_OVERFLOW_DB), master_seed=3)
    return ExperimentPlan(config=cfg, trials=5, channel_mode=mode)


class TestLawBeforeTrials:
    """Every caller reads its plan's law before its first trial."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_trials(overflow_plan(ChannelMode.FIXED_UNIT_MIN_GAIN)),
            lambda: sweep_blocklength(
                overflow_plan(ChannelMode.FIXED_FROM_SEED), [10, 20]
            ),
            lambda: sweep_mse_vs_snr(
                overflow_plan(ChannelMode.RICIAN_PER_TRIAL), [LAW_OVERFLOW_DB], [0.5]
            ),
            lambda: sweep_mse_vs_snr(
                overflow_plan(ChannelMode.FIXED_UNIT_MIN_GAIN), [LAW_OVERFLOW_DB],
                [0.5],
            ),
        ],
        ids=["run-trials", "blocklength", "mse-vs-snr-rician", "mse-vs-snr-fixed"],
    )
    def test_law_overflow_raises_before_any_round(self, monkeypatch, run):
        rounds = []
        original = channel.run_round

        def counted(*args):
            rounds.append(args)
            return original(*args)

        monkeypatch.setattr(channel, "run_round", counted)
        with pytest.raises(ValueError, match="law overflows"):
            run()
        assert rounds == []


def below_floor_plan():
    """A fixed-unit plan, min_gain 1, under a gain floor of 2."""
    cfg = SystemConfig(min_gain_floor=2.0, master_seed=3)
    return ExperimentPlan(
        config=cfg, trials=5, channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN
    )


class TestFloorBeforeTrials:
    """A fixed channel below the gain floor fails before the first trial."""

    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_trials(below_floor_plan()),
            lambda: sweep_mse_vs_snr(below_floor_plan(), [10.0], [0.5]),
            lambda: sweep_blocklength(below_floor_plan(), [10]),
        ],
        ids=["run-trials", "mse-vs-snr", "blocklength"],
    )
    def test_floor_raises_before_any_round(self, monkeypatch, run):
        rounds = []
        original = channel.run_round

        def counted(*args):
            rounds.append(args)
            return original(*args)

        monkeypatch.setattr(channel, "run_round", counted)
        with pytest.raises(ZeroChannel, match=r"1\.000e\+00 below floor 2\.000e\+00"):
            run()
        assert rounds == []


class TestBenchSetupPath:
    """bench/job.py's prepare, the set-up path the benchmark times.

    It builds each plan's matrix and fixed channel itself, through
    build_encoding and fixed_channel_for, so a plan that built either on
    construction would build it twice here.
    """

    BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

    @pytest.mark.parametrize(
        "name, plans",
        [
            ("simulate-rician", 1),
            ("dist-test", 1),
            ("blocklength-sweep", 4),
            ("construct-check", 0),
        ],
    )
    def test_prepare_builds_once_per_plan(self, monkeypatch, name, plans):
        monkeypatch.syspath_prepend(str(self.BENCH))
        job = importlib.import_module("job")
        workloads = importlib.import_module("workloads")
        seen = {"build_encoding": [], "fixed_channel_for": []}
        for fn, calls in seen.items():
            original = getattr(experiments, fn)

            def recorded(plan, _calls=calls, _original=original):
                _calls.append(plan)
                return _original(plan)

            monkeypatch.setattr(experiments, fn, recorded)
        for argv in workloads.make(name, 0, "unused", scale="tiny").calls:
            job.prepare(list(argv))
        builds, channels = seen.values()
        assert len(builds) == len(channels) == plans
        assert len({id(plan) for plan in builds + channels}) == plans


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
        samples, _ = experiments._run_range(
            enc, plan.config, fixed, 2**48 - 1, 2**48
        )
        rng = Rng(plan.config.master_seed, stream_id(Purpose.TRIAL, 2**48 - 1))
        assert samples[0] == run_round(enc, plan.config, fixed, rng)

    @pytest.mark.parametrize("mode", list(ChannelMode))
    def test_any_split_and_any_replay_give_the_same_trials(self, mode):
        # A trial's bits depend neither on the range it runs in nor on its
        # neighbours: each split concatenates to the whole run, and each
        # trial equals its lone replay from its own streams.
        plan = ExperimentPlan(
            config=SystemConfig(master_seed=19), trials=64, channel_mode=mode
        )
        cfg = plan.config
        enc = build_encoding(plan)
        fixed = experiments.fixed_channel_for(plan)
        whole = experiments._run_range(enc, cfg, fixed, 0, 64)
        for bounds in ([0, 1, 7, 64], [0, 63, 64]):
            parts = [
                experiments._run_range(enc, cfg, fixed, a, b)
                for a, b in zip(bounds, bounds[1:])
            ]
            for ours, pieces in zip(whole, zip(*parts)):
                assert np.array_equal(ours, np.concatenate(pieces))
        for i in range(64):
            ch = fixed
            if ch is None:
                ch_rng = Rng(19, stream_id(Purpose.CHANNEL, i))
                ch = channel.sample_rician(cfg, ch_rng)
            rng = Rng(19, stream_id(Purpose.TRIAL, i))
            assert whole[0][i] == run_round(enc, cfg, ch, rng)
            assert whole[1][i] == ch.min_gain


class TestSummarize:
    def test_moments_of_synthetic_gamma_samples(self):
        # n0 / p = 1 / 20 at an orthonormal 10x5 code: Gamma(5, 0.01)
        samples = Rng(17).gen.gamma(5.0, 0.01, size=30_000)
        plan = fixed_plan(trials=30_000)
        ts = TrialSet(
            plan=plan,
            samples=samples,
            channel_min_gains=np.ones(samples.size),
        )
        assert np.all(ts.p_used == 20.0)
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
            samples=samples,
            # p_x * 0.05 / (rate * p_w) = 1 at 10 dB and rate 1/2
            channel_min_gains=np.full(4, 0.05),
        )
        assert np.all(ts.p_used == 1.0)
        report = summarize(ts, eta=1.0)
        # theory mean n0 / p = 1, threshold (1 + 1) * 1 = 2 -> two of four exceed
        assert report.exceedance_freq == pytest.approx(0.5)

    def test_single_sample_is_degenerate(self):
        plan = fixed_plan(trials=1)
        ts = TrialSet(
            plan=plan,
            samples=np.array([0.05]),
            channel_min_gains=np.ones(1),
        )
        assert summarize(ts).variance == 0.0

    def test_empty_rejected(self):
        plan = fixed_plan(trials=1)
        ts = TrialSet(
            plan=plan,
            samples=np.array([]),
            channel_min_gains=np.array([]),
        )
        with pytest.raises(EmptySample):
            summarize(ts)


def reference_theory_mean(ts):
    """n0 mean(1 / p_used) sum_l 1 / (l lambda_l), each 1 / p taken at 1e-300."""
    lam = coding.gram_spectrum(ts.plan.enc)
    inverse_mean = np.mean(1e-300 / ts.p_used) * 1e300
    return ts.plan.config.n0 * inverse_mean * np.sum(1.0 / (lam.size * lam))


class TestTheoryForTrials:
    """Trial i's law is plan.law scaled by p / p_i, p being plan.power_scaling."""

    def test_matches_closed_form_in_fixed_mode(self):
        plan = fixed_plan(trials=10, seed=20)
        run_trials(plan)
        expected = analysis.DistortionLaw.optimal(5, 10, 1.0, 10.0, 1.0)
        assert plan.law.shape == expected.shape
        assert plan.law.scale == pytest.approx(expected.scale, rel=1e-12)

    @pytest.mark.parametrize("trials", [1000, 1003])
    def test_fixed_channel_law_does_not_depend_on_trial_count(self, trials):
        # the mean of 1000 equal values 1/p is one ulp off 1/p; each ratio
        # p / p_i is exactly 1, so the theory mean is the plan's law's
        ts = run_trials(fixed_plan(trials=trials, seed=1))
        exact = coding.distortion_law(ts.plan.enc, 20.0)
        assert exact.mean == 0.05
        assert ts.plan.law.mean == exact.mean
        assert summarize(ts).theory_mean == exact.mean

    def test_rician_theory_mean_averages_the_trials_laws(self):
        ts = run_trials(ExperimentPlan(config=SystemConfig(master_seed=3), trials=500))
        assert (ts.p_used >= ts.plan.power_scaling).all()
        assert summarize(ts).theory_mean == pytest.approx(
            reference_theory_mean(ts), rel=1e-14
        )

    def test_averaged_law_survives_an_overflowing_sum(self):
        # each 1 / p is near 5e306, so 1000 of them sum past the float
        # range; every ratio p / p_i lies in (0, 1], so theory never forms one
        config = SystemConfig(n0=1e-160, min_gain_floor=0.5).at_snr_db(-1470.0)
        plan = ExperimentPlan(config=config, trials=1000)
        gains = np.linspace(0.5, 1.0, 1000)
        ts = TrialSet(plan, np.zeros(1000), gains)
        with np.errstate(over="raise"):
            theory_mean = summarize(ts).theory_mean
        assert theory_mean == pytest.approx(reference_theory_mean(ts), rel=1e-14)

    def test_subnormal_scaling_fails_at_the_plan(self):
        # p_x = 1e-310: the floor's scaling is subnormal, which per-trial
        # fading rejects, while a fixed channel's law at p / n0 is exact
        config = SystemConfig(n0=1e-300).at_snr_db(-100.0)
        rician = ExperimentPlan(config=config, trials=20)
        with pytest.raises(ValueError, match="at the gain floor is subnormal"):
            rician.law
        fixed = ExperimentPlan(
            config=config, trials=20, channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN
        )
        assert fixed.law.mean == pytest.approx(5e9)

    def test_floor_scaling_must_be_normal(self):
        # at -1470 dB a floor of 0.1 puts p at 2e-308, below the least
        # normal float though 1 / p is finite; a floor of 0.5 puts it at 1e-307
        config = SystemConfig(n0=1e-160).at_snr_db(-1470.0)
        low, high = (
            ExperimentPlan(config=replace(config, min_gain_floor=floor), trials=20)
            for floor in (0.1, 0.5)
        )
        with pytest.raises(ValueError, match="subnormal"):
            low.law
        assert high.law.mean == pytest.approx(config.n0 / high.power_scaling)


class TestIllConditionedMatrix:
    """Custom 4x2 matrices U diag(sqrt(2 - lam), sqrt(lam)) V^H, kappa up to 4.5e8.

    A decoder or spectrum that goes through the Gram matrix squares kappa
    and loses every digit by lam = 1e-16; the SVD keeps both within kappa u.
    """

    # 3.29 standard errors: a two-sided 1e-3 false-alarm rate per row
    Z = 3.29
    # the modest constant p(m, n) of the SVD's error bounds, at m = 4, n = 2
    C = 16.0

    @pytest.mark.parametrize("lam", [1e-10, 1e-14, 1e-16, 1e-17])
    def test_decoder_and_law_hold_down_to_the_rank_tolerance(self, tmp_path, lam):
        u = construct_random_orthonormal(4, 2, Rng(1, 1)).phi
        v = construct_random_orthonormal(2, 2, Rng(1, 2)).phi
        path = str(tmp_path / "phi.json")
        coding.save_matrix(
            coding.EncodingMatrix((u * np.sqrt([2 - lam, lam])) @ v.conj().T), path
        )
        plan = ExperimentPlan(
            config=SystemConfig(k_users=3, l=2, l_tilde=4, master_seed=1),
            construction=Construction.CUSTOM,
            matrix_path=path,
            trials=3000,
            channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
        )
        ts = run_trials(plan)

        kappa = math.sqrt((2 - lam) / lam)
        residual = np.linalg.norm(plan.enc.decoder @ plan.enc.phi - np.eye(2), 2)
        assert residual <= self.C * kappa * np.finfo(float).eps / 2
        # the channel is fixed, so the law is exact and its variance is the
        # variance of one trial
        report = summarize(ts)
        standard_error = math.sqrt(report.theory_variance / plan.trials)
        assert abs(report.mean - report.theory_mean) <= self.Z * standard_error


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


class TestOracleEquivalence:
    def test_orthonormal_pipeline_matches_spectrum_law(self):
        cfg = SystemConfig(master_seed=26)
        enc = construct_random_orthonormal(10, 5, Rng(26, 3))
        stat = oracle_equivalence_test(enc, cfg, range(2000))
        assert stat < 1.63 * math.sqrt(2.0 / 2000)

    def test_skewed_spectrum_matches_too(self):
        cfg = SystemConfig(k_users=3, l=2, l_tilde=2, p_x=10.0, master_seed=27)
        enc = coding.EncodingMatrix(np.diag([math.sqrt(0.5), math.sqrt(1.5)]))
        stat = oracle_equivalence_test(enc, cfg, range(2000))
        assert stat < 1.63 * math.sqrt(2.0 / 2000)

    def test_minimum_sample_size(self):
        cfg = SystemConfig(master_seed=28)
        enc = construct_random_orthonormal(10, 5, Rng(28))
        with pytest.raises(ValueError):
            oracle_equivalence_test(enc, cfg, range(10))

    @pytest.mark.parametrize("trials", [2000, range(0, 4000, 2)])
    def test_trials_must_be_consecutive_indices(self, trials):
        cfg = SystemConfig(master_seed=28)
        enc = construct_random_orthonormal(10, 5, Rng(28))
        with pytest.raises(ValueError, match="range of consecutive indices"):
            oracle_equivalence_test(enc, cfg, trials)


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
