"""The benchmark's workloads: which CLI calls a job makes and what they imply.

A job is one process that runs a fixed list of ``aircomp`` CLI calls
(through ``aircomp.cli.main``). The workload seed is the only input the
benchmark varies; it becomes the ``--seed`` flag of every call, so the same
seed gives the same inputs and byte-identical outputs. Output paths are
relative to the checkout root, so stdout does not depend on where the
checkout lives.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import checks

# Job sizes. "full" is what the benchmark measures; "tiny" keeps the smoke
# test short. dist-test runs the CLI's default KS and oracle sizes, spelled
# out so the work per job stays fixed if those defaults change, but 5000 of
# the default 100000 Chernoff trials: those only repeat run_trials, and at
# the default size a run held two 9-second jobs whose median moved by 12%
# between runs, against 2% for the workloads with 20 jobs a run.
SIZES = {
    "full": {
        "sim_trials": 10_000,
        "ks_trials": 10_000,
        "chernoff_trials": 5_000,
        "oracle_n": 10_000,
        "fig_trials": 2_000,
        "setup_repeats": 11,
    },
    "tiny": {
        "sim_trials": 400,
        "ks_trials": 1_000,
        "chernoff_trials": 1_000,
        "oracle_n": 1_000,
        "fig_trials": 100,
        "setup_repeats": 2,
    },
}

# One shape where construct/check validate every row subset (C(16, 8) =
# 12870) and one where they sample 1000 of them.
CONSTRUCT_SHAPES = ((16, 8), (64, 32))

WHY = {
    "simulate-rician": (
        "per-trial Rician fading: two Philox streams, a channel draw and the "
        "per-user loop per trial, plus one CSV row per trial; KS kernels idle"
    ),
    "dist-test": (
        "certification suite (default KS and oracle sizes, 5000 Chernoff trials): "
        "fixed-channel trials plus the per-sample KS/incomplete-gamma and "
        "spectrum-sampler kernels"
    ),
    "blocklength-sweep": (
        "same engine as simulate-rician but matrices up to 80x40, so arithmetic "
        "and memory grow while per-trial Python overhead stays fixed"
    ),
    "construct-check": (
        "matrix construction, row-subset rank validation and matrix JSON I/O "
        "with no transmissions: the predicted no-change workload"
    ),
}


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    calls: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]  # files the calls write, compared across repeats
    work_units: int  # numerator of trials_per_s: pipeline rounds per job
    cmac_per_trial: float  # complex multiply-accumulates per round, from shapes
    check: Callable[[list[dict]], list[str]]
    # trace self-check, per job: a span name (calls), a boundary counter
    # ("coding.validate.subsets"), or "child<parent" (calls of child made
    # directly from parent); ``expected`` must match exactly, ``at_least``
    # is a lower bound
    expected: dict[str, int] = field(default_factory=dict)
    at_least: dict[str, int] = field(default_factory=dict)

    def with_threads(self, threads: int) -> "Workload":
        """The same job with ``--threads`` replaced (simulate, dist-test, figures)."""
        calls = tuple(
            tuple(str(threads) if prev == "--threads" else arg
                  for prev, arg in zip(("",) + call[:-1], call))
            for call in self.calls
        )
        return replace(self, calls=calls)


def _cmac(k: int, l_tilde: int, l: int) -> int:
    # K encodes (l_tilde x l), K fading multiplies, one decode (l x l_tilde)
    return k * l_tilde * l + k * l_tilde + l * l_tilde


def make(name: str, seed: int, workdir: str, scale: str = "full") -> Workload:
    """Build workload ``name`` for ``seed``; ``workdir`` is relative to the root."""
    size = SIZES[scale]
    s = str(seed)
    k = checks.K_USERS
    if name == "simulate-rician":
        trials = size["sim_trials"]
        out = os.path.join(workdir, "sim")
        return Workload(
            name=name,
            seed=seed,
            calls=((
                "simulate", "--mode", "rician-per-trial", "--eta", "1",
                "--trials", str(trials), "--seed", s, "--threads", "1",
                "--out", out,
            ),),
            outputs=(out + ".trials.csv", out + ".report.json"),
            work_units=trials,
            cmac_per_trial=_cmac(k, 10, 5),
            check=functools.partial(checks.check_simulate, trials=trials, out=out),
            expected={
                "channel.run_round": trials,
                "numerics.Rng<experiments.run_trials": 2 * trials,
                "channel.encode_and_precode": k * trials,
                "channel.sample_rician": trials,
            },
        )
    if name == "dist-test":
        ks, chern, oracle = (
            size["ks_trials"], size["chernoff_trials"], size["oracle_n"]
        )
        # ks + chernoff + orthonormal oracle rounds run the reference regime
        # (K=10, 10x5); the skewed oracle runs K=3 with a 2x2 matrix.
        reference = ks + chern + oracle
        return Workload(
            name=name,
            seed=seed,
            calls=((
                "dist-test", "--seed", s, "--threads", "1",
                "--ks-trials", str(ks), "--chernoff-trials", str(chern),
                "--oracle-n", str(oracle),
            ),),
            outputs=(),
            work_units=reference + oracle,
            cmac_per_trial=(reference * _cmac(k, 10, 5) + oracle * _cmac(3, 2, 2))
            / (reference + oracle),
            check=functools.partial(
                checks.check_dist_test,
                ks_trials=ks, chernoff_trials=chern, oracle_n=oracle,
            ),
            expected={
                "channel.run_round": reference + oracle,
                "numerics.Rng<experiments.run_trials": ks + chern,
                "channel.encode_and_precode": k * reference + 3 * oracle,
                "analysis.sample_general_mse": 2 * oracle,
            },
            at_least={"numerics.regularized_lower_gamma": ks},
        )
    if name == "blocklength-sweep":
        trials = size["fig_trials"]
        fig_dir = os.path.join(workdir, "fig")
        rounds = len(checks.BLOCKLENGTHS) * trials
        return Workload(
            name=name,
            seed=seed,
            calls=((
                "figures", "--which", "4", "--trials", str(trials), "--seed", s,
                "--threads", "1", "--out-dir", fig_dir,
            ),),
            outputs=(os.path.join(fig_dir, "fig4_blocklength.csv"),),
            work_units=rounds,
            cmac_per_trial=sum(_cmac(k, n, n // 2) for n in checks.BLOCKLENGTHS)
            / len(checks.BLOCKLENGTHS),
            check=functools.partial(
                checks.check_blocklength,
                trials=trials,
                out=os.path.join(fig_dir, "fig4_blocklength.csv"),
            ),
            expected={
                "channel.run_round": rounds,
                "numerics.Rng<experiments.run_trials": rounds,
                "channel.encode_and_precode": k * rounds,
            },
        )
    if name == "construct-check":
        paths = tuple(
            os.path.join(workdir, f"phi_{n}x{l}.json") for n, l in CONSTRUCT_SHAPES
        )
        calls = []
        subsets = 0
        for (n, l), path in zip(CONSTRUCT_SHAPES, paths):
            calls.append(("construct", "--l", str(l), "--l-tilde", str(n),
                          "--seed", s, "--out", path, "--strict"))
            calls.append(("check", "--matrix", path, "--seed", s, "--strict"))
            total = math.comb(n, l)
            subsets += 2 * (total if total <= 100_000 else 1000)
        return Workload(
            name=name,
            seed=seed,
            calls=tuple(calls),
            outputs=paths,
            # no transmissions: a "trial" here is one validated row subset
            work_units=subsets,
            cmac_per_trial=0.0,
            check=functools.partial(
                checks.check_construct, shapes=CONSTRUCT_SHAPES, paths=paths
            ),
            expected={
                "coding.validate": 2 * len(CONSTRUCT_SHAPES),
                "coding.validate.subsets": subsets,
                "channel.run_round": 0,
            },
        )
    raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")
