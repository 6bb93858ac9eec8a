import argparse
import ast
import csv
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import aircomp
from aircomp import channel, cli, coding, experiments, numerics
from aircomp.cli import main
from aircomp.numerics import Rng


def run_cli(*args):
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call; returns the call list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def assert_usage_error_before_output(capsys, code, *paths):
    """Exit 2 with an ``error:`` line, nothing on stdout, no file written."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    for path in paths:
        assert not os.path.exists(path)


class TestConstruct:
    def test_writes_matrix_and_reports_ok(self, tmp_path, capsys):
        out = tmp_path / "phi.json"
        code = run_cli(
            "construct", "--l", "5", "--l-tilde", "10", "--seed", "7",
            "--out", str(out),
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "orthonormal: ok" in captured
        assert "rank_ok: true" in captured
        blob = json.loads(out.read_text())
        assert blob["rows"] == 10 and blob["cols"] == 5

    def test_simulate_runs_the_matrix_construct_writes(self, tmp_path, capsys):
        path = str(tmp_path / "phi.json")
        run_cli("construct", "--l", "5", "--l-tilde", "10", "--seed", "11",
                "--out", path)
        capsys.readouterr()
        outputs = []
        for flags in ([], ["--construction", "custom", "--matrix", path]):
            code = run_cli("simulate", "--seed", "11", "--mode", "fixed-unit",
                           "--trials", "300", *flags)
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_identical_flags_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run_cli("construct", "--l", "4", "--l-tilde", "8", "--seed", "3", "--out", str(a))
        run_cli("construct", "--l", "4", "--l-tilde", "8", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_wide_shape_is_usage_error(self, tmp_path, capsys):
        # rejected by the config's shape rule, not by the CLI
        out = tmp_path / "x.json"
        code = run_cli("construct", "--l", "5", "--l-tilde", "4", "--out", str(out))
        assert_usage_error_before_output(capsys, code, out)

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "construct", "--l", "32", "--l-tilde", "64", "--samples", "0",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --samples")
        assert not (tmp_path / "x.json").exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # found before validating, which can take seconds
        validates = count_calls(monkeypatch, coding, "validate")
        code = run_cli(
            "construct", "--l", "2", "--l-tilde", "4",
            "--out", str(tmp_path / "missing" / "x.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert validates == []

    def test_usage_error_keeps_an_existing_out_file(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        out.write_text("earlier result\n")
        code = run_cli(
            "construct", "--l", "2", "--l-tilde", "4", "--samples", "0",
            "--out", str(out),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --samples")
        assert out.read_text() == "earlier result\n"

    def test_strict_passes_for_random_construction(self, tmp_path):
        code = run_cli(
            "construct", "--l", "3", "--l-tilde", "6", "--seed", "0",
            "--out", str(tmp_path / "x.json"), "--strict",
        )
        assert code == 0

    def test_strict_fails_on_a_rank_deficient_matrix(
        self, tmp_path, capsys, monkeypatch
    ):
        # two stacked identity blocks: orthonormal columns, duplicate rows
        monkeypatch.setattr(
            coding, "construct_random_orthonormal",
            lambda l_tilde, l, rng: coding.construct_repetition(5, 2),
        )
        out = tmp_path / "x.json"
        code = run_cli(
            "construct", "--l", "5", "--l-tilde", "10", "--out", str(out),
            "--strict",
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "orthonormal: ok" in captured
        assert "rank_ok: false" in captured
        assert json.loads(out.read_text())["rows"] == 10

    def test_negative_max_exhaustive_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "a.json"
        code = run_cli(
            "construct", "--l", "3", "--l-tilde", "6", "--seed", "1",
            "--out", str(out), "--max-exhaustive", "-5",
        )
        assert_usage_error_before_output(capsys, code, out)

    def test_more_subsets_than_int64_can_rank_is_usage_error(self, tmp_path, capsys):
        # C(70, 35) ~ 1.1e20 row subsets, all of them asked for
        out = tmp_path / "a.json"
        code = run_cli(
            "construct", "--l", "35", "--l-tilde", "70", "--seed", "1",
            "--out", str(out), "--max-exhaustive", str(10**21),
        )
        assert_usage_error_before_output(capsys, code, out)


class TestCheck:
    def test_construct_output_checks_clean(self, tmp_path, capsys):
        out = tmp_path / "phi.json"
        run_cli("construct", "--l", "3", "--l-tilde", "6", "--out", str(out))
        capsys.readouterr()
        assert run_cli("check", "--matrix", str(out)) == 0
        assert run_cli("check", "--matrix", str(out), "--strict") == 0

    def test_repetition_fails_under_strict(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        coding.save_matrix(coding.construct_repetition(2, 2), path)
        assert run_cli("check", "--matrix", str(path)) == 0
        captured = capsys.readouterr().out
        assert "rank_ok: false" in captured
        assert run_cli("check", "--matrix", str(path), "--strict") == 1

    def test_rank_verdict_does_not_depend_on_scale(self, tmp_path, capsys):
        # trace(phi^H phi) = 5 s^2, so --strict fails on power alone off s = 1;
        # at s = 1e160 it overflows, and is reported as inf without a warning
        enc = coding.construct_random_orthonormal(10, 5, Rng(3))
        path = str(tmp_path / "phi.json")
        rank_lines = set()
        for scale in (1e-150, 1e-4, 1.0, 1e4, 1e150, 1e160):
            coding.save_matrix(coding.EncodingMatrix(scale * enc.phi), path)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("check", "--matrix", path) == 0
                assert run_cli("check", "--matrix", path, "--strict") == (scale != 1.0)
            out = capsys.readouterr().out
            rank_lines.update(l for l in out.splitlines() if l.startswith("rank_ok"))
            assert ("trace: inf" in out.splitlines()) == (scale == 1e160)
        assert len(rank_lines) == 1
        assert rank_lines.pop().startswith("rank_ok: true (exhaustive, 252 subsets")

    def test_only_sampled_validation_states_a_quantile(self, tmp_path, capsys):
        # C(10, 5) = 252 subsets: exhaustive by default, sampled at 200
        path = str(tmp_path / "phi.json")
        run_cli("construct", "--l", "5", "--l-tilde", "10", "--out", path)
        assert "rank_quantile" not in capsys.readouterr().out
        for argv in (
            ["construct", "--l", "5", "--l-tilde", "10", "--out", path],
            ["check", "--matrix", path],
        ):
            assert run_cli(*argv, "--max-exhaustive", "10", "--samples", "200") == 0
            lines = capsys.readouterr().out.splitlines()
            (rank,) = (l for l in lines if l.startswith("rank_ok: "))
            worst = rank.rpartition("worst ratio ")[2].rstrip(")")
            (quantile,) = (l for l in lines if l.startswith("rank_quantile: "))
            # 1 - 0.05^(1/200)
            assert quantile == (
                f"rank_quantile: at most 1.48670392313% of subsets below {worst} (95%)"
            )

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run_cli("check", "--matrix", str(tmp_path / "nope.json")) == 2

    def test_zero_samples_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        coding.save_matrix(coding.construct_repetition(2), path)
        assert run_cli("check", "--matrix", str(path), "--samples", "0") == 2
        assert capsys.readouterr().err.startswith("error: --samples")

    def test_strict_fails_on_a_rank_deficient_matrix(
        self, tmp_path, capsys, monkeypatch
    ):
        # two stacked identity blocks: orthonormal columns, duplicate rows
        monkeypatch.setattr(
            coding, "construct_random_orthonormal",
            lambda l_tilde, l, rng: coding.construct_repetition(5, 2),
        )
        out = tmp_path / "x.json"
        code = run_cli(
            "construct", "--l", "5", "--l-tilde", "10", "--out", str(out),
            "--strict",
        )
        captured = capsys.readouterr().out
        assert code == 1
        assert "orthonormal: ok" in captured
        assert "rank_ok: false" in captured
        assert json.loads(out.read_text())["rows"] == 10

    def test_negative_max_exhaustive_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        coding.save_matrix(coding.construct_repetition(2), path)
        code = run_cli("check", "--matrix", str(path), "--max-exhaustive", "-1")
        assert_usage_error_before_output(capsys, code)

    # int() would read each as a valid shape: 2x2 and 2x1
    @pytest.mark.parametrize("rows, cols", [(2.5, 2), (2, True)])
    def test_non_integral_shape_is_usage_error(self, tmp_path, capsys, rows, cols):
        path = tmp_path / "phi.json"
        n = int(rows) * int(cols)
        blob = {"rows": rows, "cols": cols, "re": [1.0] * n, "im": [0.0] * n}
        path.write_text(json.dumps(blob))
        code = run_cli("check", "--matrix", str(path))
        assert_usage_error_before_output(capsys, code)


class TestSubnormalMatrix:
    # an orthonormal 10x5 matrix times 1e-309 failed its SVD, and times
    # 1e-308 was checked as a zero matrix; every entry is subnormal in both
    @pytest.mark.parametrize("scale", [1e-309, 1e-308])
    @pytest.mark.parametrize(
        "argv",
        [
            ["check"],
            ["theory", "--l", "5", "--l-tilde", "10"],
            ["simulate", "--trials", "3", "--out", "run", "--construction", "custom"],
        ],
        ids=["check", "theory", "simulate"],
    )
    def test_is_usage_error_before_output(
        self, tmp_path, monkeypatch, capsys, scale, argv
    ):
        monkeypatch.chdir(tmp_path)
        phi = scale * coding.construct_random_orthonormal(10, 5, Rng(3)).phi
        blob = {"rows": 10, "cols": 5, "re": phi.real.ravel().tolist(),
                "im": phi.imag.ravel().tolist()}
        with open("tiny.json", "w") as fh:
            json.dump(blob, fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(*argv, "--matrix", "tiny.json")
        assert_usage_error_before_output(
            capsys, code, "run.trials.csv", "run.report.json"
        )


class TestTheory:
    def test_reference_values(self, capsys):
        code = run_cli("theory", "--l", "5", "--l-tilde", "10", "--snr-db", "10")
        out = capsys.readouterr().out
        assert code == 0
        assert "gamma_opt: 0.05" in out
        assert "gamma_scale: 0.01" in out
        assert "gamma_variance: 0.0005" in out

    def test_matrix_spectrum_path(self, tmp_path, capsys):
        path = tmp_path / "skew.json"
        coding.save_matrix(
            coding.EncodingMatrix(np.diag([np.sqrt(0.5), np.sqrt(1.5)])), path
        )
        code = run_cli(
            "theory", "--l", "2", "--l-tilde", "2", "--snr-db", "0",
            "--matrix", str(path),
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "spectrum: 0.5 1.5" in out
        # rho* = 1 at 0 dB and rate 1, so expected MSE is 4/3
        assert "expected_mse: 1.33333333333" in out

    def test_matrix_shape_must_match_flags(self, tmp_path, capsys):
        path = tmp_path / "phi.json"
        coding.save_matrix(coding.construct_random_orthonormal(8, 4, Rng(1)), path)
        code = run_cli(
            "theory", "--l", "5", "--l-tilde", "10", "--matrix", str(path),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: matrix file shape (8, 4)")

    @pytest.mark.parametrize(
        "content",
        [
            None,
            "{not json",
            '{"rows": 2}',
            "[1]",
            '{"rows": 1, "cols": 1, "re": {"a": 1}, "im": [0]}',
            '{"rows": 1, "cols": 1, "re": 5, "im": [0]}',
            '{"rows": 1, "cols": 1, "re": ["1"], "im": [0]}',
            '{"rows": 1, "cols": 1, "re": [1], "im": [true]}',
            '{"rows": 1, "cols": 1, "re": [1], "im": [null]}',
            '{"rows": 1, "cols": 1, "re": [NaN], "im": [0]}',
            '{"rows": 1, "cols": 1, "re": [1.0], "im": [Infinity]}',
            '{"rows": 1, "cols": 1, "re": [-Infinity], "im": [0.0]}',
            '{"rows": 1, "cols": 1, "re": [1e400], "im": [0.0]}',
            '{"rows": 1, "cols": 1, "re": [1' + '0' * 400 + '], "im": [0]}',
            # rows * cols matches the entry count, or negates it
            '{"rows": -2, "cols": -3, "re": [1,1,1,1,1,1], "im": [0,0,0,0,0,0]}',
            '{"rows": -3, "cols": -1, "re": [1, 1, 1], "im": [0, 0, 0]}',
            '{"rows": 3, "cols": -1, "re": [1, 1, 1], "im": [0, 0, 0]}',
        ],
    )
    def test_bad_matrix_is_usage_error_before_output(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "phi.json"
        if content is not None:
            path.write_text(content)
        # a well-formed 1x1 file would pass at these flags
        code = run_cli("theory", "--l", "1", "--l-tilde", "1", "--matrix", str(path))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")


    @pytest.mark.parametrize(
        "flags",
        [
            ["--l", "5", "--l-tilde", "4"],
            ["--l", "0", "--l-tilde", "0"],
            ["--p-w", "0"],
            ["--min-gain", "-1"],
            # rho = 1e300 / (0.5 * 1e-300) overflows
            ["--p-w", "1e-300", "--snr-db", "3000"],
            # the spectrum of an orthonormal 10x5 matrix times 1e160 overflows
            ["--matrix", "big.json"],
        ],
    )
    def test_library_range_error_is_usage_error_before_output(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        # DistortionLaw owns these checks
        monkeypatch.chdir(tmp_path)
        enc = coding.construct_random_orthonormal(10, 5, Rng(1))
        coding.save_matrix(coding.EncodingMatrix(1e160 * enc.phi), "big.json")
        assert_usage_error_before_output(capsys, run_cli("theory", *flags))

    @pytest.mark.parametrize(
        "flags",
        [
            # rho = 10 * 1e-320 / 0.5 is subnormal: mean and variance overflow
            ["--min-gain", "1e-320"],
            ["--p-w", "1e300", "--snr-db", "-100"],
            # rho = 2e300: the variance 5 / (5 rho)^2 underflows to 0
            ["--snr-db", "3000"],
        ],
    )
    def test_overflowing_law_is_usage_error_before_output(self, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("theory", *flags)
        assert_usage_error_before_output(capsys, code)

    def test_rank_deficient_matrix_is_usage_error_before_output(
        self, tmp_path, capsys
    ):
        path = tmp_path / "phi.json"
        blob = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 1.0, 0.0], "im": [0.0] * 4}
        path.write_text(json.dumps(blob))
        code = run_cli("theory", "--l", "2", "--l-tilde", "2", "--matrix", str(path))
        assert_usage_error_before_output(capsys, code)


class TestRegions:
    def test_reference_rows(self, capsys):
        code = run_cli(
            "regions", "--epsilon", "0.02", "--eta", "1", "--delta", "0.2",
            "--snr-db", "15",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.632455532034" in out
        assert "0.316227766017" in out
        epsilon_delta_row = [
            line for line in out.splitlines() if "epsilon_delta" in line
        ][0]
        assert epsilon_delta_row.split(",")[3] == "6"  # l_min column

    def test_huge_epsilon_caps_at_one(self, capsys):
        run_cli("regions", "--epsilon", "1e9", "--snr-db", "0")
        out = capsys.readouterr().out
        for line in out.splitlines()[1:]:
            assert line.split(",")[2] == "1"

    def test_bounds_beyond_float_range_are_exact(self, capsys):
        # epsilon * rho_x = 1e600 overflows on its way to 1e-5
        code = run_cli(
            "regions", "--epsilon", "1e300", "--snr-db", "3000",
            "--min-gain", "1e-300", "--p-w", "1e305",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert [line.split(",")[2] for line in out.splitlines()[1:]] == [
            "1e-05", "1e-05", "5e-06"
        ]

    def test_underflowing_bound_is_usage_error(self, capsys):
        # the bound is 1e-600
        code = run_cli("regions", "--epsilon", "1e-300", "--snr-db", "-3000")
        assert_usage_error_before_output(capsys, code)

    def test_bad_delta_is_usage_error(self, capsys):
        code = run_cli(
            "regions", "--epsilon", "0.02", "--delta", "1.5", "--snr-db", "15"
        )
        assert_usage_error_before_output(capsys, code)

    @pytest.mark.parametrize(
        "flags",
        [
            ["--epsilon", "0"],
            ["--epsilon", "0.02", "--delta", "0"],
            ["--epsilon", "0.02", "--eta", "0"],
            ["--epsilon", "0.02", "--p-w", "0"],
            ["--epsilon", "0.02", "--min-gain", "-1"],
        ],
    )
    def test_library_range_error_is_usage_error_before_output(self, capsys, flags):
        # sweep_rate_regions validates every value before a row is written
        code = run_cli("regions", *flags, "--snr-db", "0", "15")
        assert_usage_error_before_output(capsys, code)

    def test_subnormal_delta_prints_source_length(self, capsys):
        code = run_cli(
            "regions", "--epsilon", "0.02", "--delta", "1e-320", "--snr-db", "0"
        )
        out = capsys.readouterr().out
        assert code == 0
        row = [line for line in out.splitlines() if "epsilon_delta" in line][0]
        assert row.split(",")[3] == "2402"

    def test_source_length_beyond_float_range_is_usage_error(self, capsys):
        code = run_cli(
            "regions", "--epsilon", "0.02", "--eta", "1e-200", "--snr-db", "0"
        )
        assert_usage_error_before_output(capsys, code)


_FF = cli._finite_float
_MAX_EX = coding.DEFAULT_MAX_EXHAUSTIVE_SUBSETS
_SAMPLES = coding.DEFAULT_SAMPLE_COUNT
_MODES = ["fixed-unit", "rician-per-trial", "fixed-from-seed"]
_CONSTRUCTIONS = ["random_orthonormal", "identity", "repetition", "custom"]

# Per subcommand, each option's strings -> (dest, default, type, choices,
# nargs, action, required), recorded from the parser before its shared
# flags were declared in loops.
PARSER_TABLE = {
    "construct": {
        ("--l",): ("l", None, int, None, None, "_StoreAction", True),
        ("--l-tilde",): ("l_tilde", None, int, None, None, "_StoreAction", True),
        ("--seed",): ("seed", 0, int, None, None, "_StoreAction", False),
        ("--out",): ("out", None, None, None, None, "_StoreAction", True),
        ("--max-exhaustive",): (
            "max_exhaustive", _MAX_EX, int, None, None, "_StoreAction", False
        ),
        ("--samples",): ("samples", _SAMPLES, int, None, None, "_StoreAction", False),
        ("--strict",): ("strict", False, None, None, 0, "_StoreTrueAction", False),
    },
    "check": {
        ("--matrix",): ("matrix", None, None, None, None, "_StoreAction", True),
        ("--seed",): ("seed", 0, int, None, None, "_StoreAction", False),
        ("--max-exhaustive",): (
            "max_exhaustive", _MAX_EX, int, None, None, "_StoreAction", False
        ),
        ("--samples",): ("samples", _SAMPLES, int, None, None, "_StoreAction", False),
        ("--strict",): ("strict", False, None, None, 0, "_StoreTrueAction", False),
    },
    "theory": {
        ("--l",): ("l", 5, int, None, None, "_StoreAction", False),
        ("--l-tilde",): ("l_tilde", 10, int, None, None, "_StoreAction", False),
        ("--p-w",): ("p_w", 1.0, _FF, None, None, "_StoreAction", False),
        ("--snr-db",): ("snr_db", 10.0, _FF, None, None, "_StoreAction", False),
        ("--min-gain",): ("min_gain", 1.0, _FF, None, None, "_StoreAction", False),
        ("--matrix",): ("matrix", None, None, None, None, "_StoreAction", False),
    },
    "regions": {
        ("--epsilon",): ("epsilon", None, _FF, None, None, "_StoreAction", True),
        ("--delta",): ("delta", 0.2, _FF, None, None, "_StoreAction", False),
        ("--eta",): ("eta", 1.0, _FF, None, None, "_StoreAction", False),
        ("--snr-db",): ("snr_db", None, _FF, None, "+", "_StoreAction", True),
        ("--p-w",): ("p_w", 1.0, _FF, None, None, "_StoreAction", False),
        ("--min-gain",): ("min_gain", 1.0, _FF, None, None, "_StoreAction", False),
    },
    "simulate": {
        ("--config",): ("config", None, None, None, None, "_StoreAction", False),
        ("--trials",): ("trials", 1000, int, None, None, "_StoreAction", False),
        ("--mode",): (
            "mode", "rician-per-trial", None, _MODES, None, "_StoreAction", False
        ),
        ("--construction",): (
            "construction", "random_orthonormal", None, _CONSTRUCTIONS, None,
            "_StoreAction", False,
        ),
        ("--matrix",): ("matrix", None, None, None, None, "_StoreAction", False),
        ("--seed",): ("seed", None, int, None, None, "_StoreAction", False),
        ("--eta",): ("eta", None, _FF, None, None, "_StoreAction", False),
        ("--out",): ("out", None, None, None, None, "_StoreAction", False),
        ("--assert-tolerance",): (
            "assert_tolerance", None, _FF, None, None, "_StoreAction", False
        ),
        ("--threads",): ("threads", 1, int, None, None, "_StoreAction", False),
    },
    "dist-test": {
        ("--seed",): ("seed", 0, int, None, None, "_StoreAction", False),
        ("--ks-trials",): ("ks_trials", 10000, int, None, None, "_StoreAction", False),
        ("--chernoff-trials",): (
            "chernoff_trials", 100000, int, None, None, "_StoreAction", False
        ),
        ("--oracle-n",): ("oracle_n", 10000, int, None, None, "_StoreAction", False),
        ("--threads",): ("threads", 1, int, None, None, "_StoreAction", False),
    },
    "figures": {
        ("--which",): ("which", None, int, [2, 3, 4], None, "_StoreAction", True),
        ("--out-dir",): ("out_dir", "results", None, None, None, "_StoreAction", False),
        ("--trials",): ("trials", None, int, None, None, "_StoreAction", False),
        ("--seed",): ("seed", 0, int, None, None, "_StoreAction", False),
        ("--threads",): ("threads", 1, int, None, None, "_StoreAction", False),
    },
}


class TestParser:
    def test_every_option_matches_the_table(self):
        parser = cli.build_parser()
        (sub,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert list(sub.choices) == list(PARSER_TABLE)
        for name, expected in PARSER_TABLE.items():
            subparser = sub.choices[name]
            found = {
                tuple(a.option_strings): (
                    a.dest, a.default, a.type, a.choices, a.nargs,
                    type(a).__name__, a.required,
                )
                for a in subparser._actions
                if not isinstance(a, argparse._HelpAction)
            }
            assert found == expected, name
            func = "cmd_" + name.replace("-", "_")
            assert subparser.get_default("func") is getattr(cli, func)

    def test_one_parser_per_process(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        built = parser.parse_args(
            ["construct", "--l", "2", "--l-tilde", "4", "--out", "x.json"]
        )
        checked = parser.parse_args(["check", "--matrix", "x.json"])
        assert built.l == 2 and built.out == "x.json"
        assert checked.command == "check" and checked.matrix == "x.json"
        assert not hasattr(checked, "l") and not hasattr(checked, "out")

    def test_one_process_prints_what_fresh_processes_print(self, tmp_path, capsys):
        # construct then check through main in this process, against one
        # fresh interpreter per call: the reused parser changes no byte
        path = str(tmp_path / "phi.json")
        calls = [
            ["construct", "--l", "4", "--l-tilde", "8", "--seed", "3",
             "--out", path, "--strict"],
            ["check", "--matrix", path, "--seed", "3", "--max-exhaustive", "10",
             "--samples", "40", "--strict"],
        ]
        in_process = []
        for argv in calls:
            assert main(argv) == 0
            in_process.append(capsys.readouterr().out)
        src = os.path.dirname(os.path.dirname(aircomp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        fresh = [
            subprocess.run(
                [sys.executable, "-m", "aircomp.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            ).stdout
            for argv in calls
        ]
        assert in_process == fresh


def unused_imports(directory):
    """Per module of ``directory``, the names it imports but never reads.

    __init__ imports only to re-export, so it is left out.
    """
    unused = {}
    for path in sorted(directory.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if imported - used:
            unused[path.name] = sorted(imported - used)
    return unused


class TestImports:
    def test_no_unused_imports_in_src(self):
        assert unused_imports(pathlib.Path(aircomp.__file__).parent) == {}

    def test_no_unused_imports_in_tests(self):
        assert unused_imports(pathlib.Path(__file__).parent) == {}

    def test_cli_import_skips_pool_and_numpy_random(self):
        # A fresh interpreter: this test process has already loaded them.
        # Single-worker runs never start a pool, and numpy.random is only
        # needed once a stream is drawn from.
        code = (
            "import sys, aircomp, aircomp.cli; "
            "print(' '.join(m for m in ('multiprocessing', "
            "'concurrent.futures.process', 'numpy.random') if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(aircomp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert done.stdout.split() == []

    def test_every_subcommand_runs_without_test_only_packages(self, tmp_path):
        # numpy is the only runtime dependency: a fresh interpreter runs
        # every subcommand at tiny sizes and none of the test suite's own
        # packages gets imported on the way.
        code = """
import contextlib, io, json, sys
from aircomp.cli import main
calls = [
    ["construct", "--l", "2", "--l-tilde", "4", "--out", "phi.json"],
    ["check", "--matrix", "phi.json"],
    ["theory", "--matrix", "phi.json", "--l", "2", "--l-tilde", "4"],
    ["regions", "--epsilon", "0.02", "--snr-db", "0", "10"],
    ["simulate", "--trials", "3", "--eta", "1", "--out", "run"],
    ["simulate", "--mode", "fixed-unit", "--trials", "3"],
    ["dist-test", "--ks-trials", "1000", "--chernoff-trials", "1000",
     "--oracle-n", "1000"],
    ["figures", "--which", "2", "--trials", "2", "--out-dir", "fig"],
    ["figures", "--which", "3", "--out-dir", "fig"],
    ["figures", "--which", "4", "--trials", "2", "--out-dir", "fig"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in calls]
loaded = [m for m in ("scipy", "hypothesis", "pytest") if m in sys.modules]
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
        src = os.path.dirname(os.path.dirname(aircomp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path,
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(done.stdout)
        assert result == {"codes": [0] * 10, "loaded": []}


class TestBadFloatFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--trials", "3", "--eta", "nan"],
            ["simulate", "--trials", "3", "--eta", "inf"],
            ["simulate", "--trials", "3", "--eta", "-2"],
            ["simulate", "--trials", "3", "--eta", "0"],
            ["simulate", "--trials", "3", "--assert-tolerance", "-1"],
            ["simulate", "--trials", "3", "--assert-tolerance", "nan"],
            ["regions", "--epsilon", "0.1", "--snr-db", "nan"],
            ["regions", "--epsilon", "nan", "--snr-db", "10"],
            ["regions", "--epsilon", "0.1", "--snr-db", "5000"],
            ["theory", "--p-w", "nan"],
            ["theory", "--snr-db", "inf"],
            ["theory", "--snr-db", "5000"],
        ],
    )
    def test_is_usage_error(self, argv, capsys):
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "error: " in captured.err
        assert captured.out == ""

    def test_non_number_is_usage_error(self, capsys):
        code = run_cli("theory", "--snr-db", "abc")
        captured = capsys.readouterr()
        assert code == 2
        assert "not a number: 'abc'" in captured.err
        assert captured.out == ""

    def test_zero_tolerance_is_accepted(self, capsys):
        # a sample mean never equals the theory mean exactly, so a zero
        # tolerance passes the flag check (exit 2) and fails the run (exit 1)
        code = run_cli(
            "simulate", "--mode", "fixed-unit", "--trials", "10",
            "--assert-tolerance", "0",
        )
        assert code == 1
        assert "FAIL mean ratio" in capsys.readouterr().err


class TestSimulate:
    def test_fixed_unit_reproduces_theory(self, capsys):
        code = run_cli(
            "simulate", "--mode", "fixed-unit", "--trials", "4000", "--seed", "1",
            "--assert-tolerance", "0.05",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "theory_mean: 0.05" in out
        assert "mean_ratio:" in out

    def test_trials_beyond_stream_range_is_usage_error(self, capsys):
        # 10^15 trials pass 2^48 stream indices; the range check runs before
        # the per-trial arrays (7 PiB each) are allocated
        code = run_cli("simulate", "--trials", str(10**15))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: stream index out of range\n"
        assert captured.out == ""

    def test_zero_trials_is_usage_error(self, tmp_path, capsys):
        # ExperimentPlan rejects it before any output file is opened
        prefix = str(tmp_path / "run")
        code = run_cli("simulate", "--trials", "0", "--out", prefix)
        assert_usage_error_before_output(
            capsys, code, prefix + ".trials.csv", prefix + ".report.json"
        )

    def test_config_file_and_artifacts(self, tmp_path, capsys):
        config = {
            "k_users": 4, "l": 2, "l_tilde": 4, "p_w": 1.0, "n0": 1.0,
            "snr_db": 10.0, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
            "master_seed": 9,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        prefix = str(tmp_path / "run")
        code = run_cli(
            "simulate", "--config", str(cfg_path), "--trials", "50",
            "--mode", "fixed-from-seed", "--out", prefix,
        )
        assert code == 0
        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["plan"]["config"]["k_users"] == 4
        assert report["report"]["mean"] > 0
        lines = (tmp_path / "run.trials.csv").read_text().splitlines()
        assert lines[0] == "trial,distortion,min_gain,p_used"
        assert len(lines) == 51

    @pytest.mark.parametrize(
        "key, value",
        [
            ("snr_db", float("nan")),
            ("rician_kappa_db", float("nan")),
            ("p_w", float("inf")),
            ("k_users", 2.7),
            ("l_tilde", 10.9),
            ("master_seed", 1.5),
            ("k_users", True),
            ("p_w", None),
            ("p_w", [1]),
            ("p_w", True),
            ("p_w", "1"),
            pytest.param("n0", 10**400, id="n0-int-beyond-float"),
            # key None: the whole file is the value, not an object
            (None, 5),
        ],
    )
    def test_bad_config_number_fails_before_outputs_exist(
        self, tmp_path, capsys, key, value
    ):
        config = value if key is None else {
            "k_users": 4, "l": 2, "l_tilde": 4, "p_w": 1.0, "n0": 1.0,
            "snr_db": 10.0, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
            "master_seed": 9, key: value,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        prefix = str(tmp_path / "run")
        code = run_cli(
            "simulate", "--config", str(cfg_path), "--trials", "5",
            "--mode", "fixed-from-seed", "--out", prefix,
        )
        assert_usage_error_before_output(
            capsys, code, prefix + ".trials.csv", prefix + ".report.json"
        )

    def test_custom_matrix_is_loaded_once(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "phi.json"
        run_cli("construct", "--l", "5", "--l-tilde", "10", "--out", str(path))
        loads = count_calls(monkeypatch, coding, "load_matrix")
        code = run_cli(
            "simulate", "--construction", "custom", "--matrix", str(path),
            "--mode", "fixed-unit", "--trials", "5",
        )
        assert code == 0
        assert len(loads) == 1

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        runs = count_calls(monkeypatch, experiments, "run_trials")
        code = run_cli(
            "simulate", "--trials", "3", "--out", str(tmp_path / "missing" / "p"),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        # reported before any trial runs or any summary line is printed
        assert captured.out == ""
        assert runs == []

    def test_failed_run_keeps_earlier_outputs(self, tmp_path, capsys):
        prefix = str(tmp_path / "run")
        assert run_cli("simulate", "--trials", "3", "--out", prefix) == 0
        before = {
            suffix: (tmp_path / f"run{suffix}").read_bytes()
            for suffix in (".trials.csv", ".report.json")
        }
        # a run that fails leaves the outputs of the earlier run as they were
        code = run_cli(
            "simulate", "--trials", "3", "--out", prefix,
            "--construction", "custom", "--matrix", str(tmp_path / "absent.json"),
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        for suffix, data in before.items():
            assert (tmp_path / f"run{suffix}").read_bytes() == data

    def test_failure_after_output_check_keeps_earlier_outputs(
        self, tmp_path, capsys, monkeypatch
    ):
        prefix = str(tmp_path / "run")
        assert run_cli("simulate", "--trials", "3", "--out", prefix) == 0
        before = {
            suffix: (tmp_path / f"run{suffix}").read_bytes()
            for suffix in (".trials.csv", ".report.json")
        }

        def failing_run(*args, **kwargs):
            raise ValueError("run failed")

        monkeypatch.setattr(experiments, "run_trials", failing_run)
        code = run_cli("simulate", "--trials", "3", "--out", prefix)
        assert code == 2
        assert capsys.readouterr().err == "error: run failed\n"
        for suffix, data in before.items():
            assert (tmp_path / f"run{suffix}").read_bytes() == data

    @pytest.mark.parametrize(
        "flags",
        [
            ["--construction", "custom", "--matrix", "absent.json"],
            # 4x2 file against the default 10x5 config
            ["--construction", "custom", "--matrix", "small.json"],
            # identity needs l_tilde == l, and the default config is 10x5
            ["--construction", "identity"],
            # orthonormal 10x5 times 1e160: its Gram spectrum overflows
            ["--construction", "custom", "--matrix", "big.json", "--mode", "fixed-unit"],
        ],
    )
    def test_bad_matrix_fails_before_outputs_exist(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        run_cli("construct", "--l", "2", "--l-tilde", "4",
                "--out", str(tmp_path / "small.json"))
        big = coding.construct_random_orthonormal(10, 5, Rng(3)).phi * 1e160
        coding.save_matrix(coding.EncodingMatrix(big), tmp_path / "big.json")
        capsys.readouterr()
        runs = count_calls(monkeypatch, experiments, "run_trials")
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        code = run_cli("simulate", "--trials", "3", "--out", str(tmp_path / "run"),
                       *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not (tmp_path / "run.trials.csv").exists()
        assert not (tmp_path / "run.report.json").exists()
        assert runs == []

    def test_subnormal_power_scaling_fails_before_outputs_exist(
        self, tmp_path, capsys, monkeypatch
    ):
        # p_x = 1e-310, so the floor's scaling, which the plan's law is
        # taken at under per-trial fading, is subnormal: that fails before
        # any trial
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1e-300,
            "snr_db": -100, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
            "master_seed": 0,
        }))
        runs = count_calls(monkeypatch, experiments, "run_trials")
        prefix = str(tmp_path / "run")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "simulate", "--config", str(cfg_path), "--mode", "rician-per-trial",
                "--trials", "20", "--out", prefix,
            )
        assert_usage_error_before_output(
            capsys, code, prefix + ".trials.csv", prefix + ".report.json"
        )
        assert runs == []

    def test_rician_run_far_above_its_floor_writes_its_outputs(self, tmp_path, capsys):
        # The plan's law is checked at the floor's scaling; drawn scalings
        # lie about 1e6 times higher, and each trial's theory is that law
        # scaled by p / p_i <= 1, so nothing leaves the float range after
        # the trials (at 1650 dB mean_ratio is round-off, not a pass).
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1.0,
            "snr_db": 1650, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
            "master_seed": 0,
        }))
        prefix = str(tmp_path / "o")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(
                "simulate", "--config", str(cfg_path), "--mode", "rician-per-trial",
                "--trials", "20", "--out", prefix,
            )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "theory_mean: " in captured.out
        for suffix in (".trials.csv", ".report.json"):
            assert os.path.getsize(prefix + suffix) > 0

    @pytest.mark.parametrize(
        "mode", ["fixed-unit", "fixed-from-seed", "rician-per-trial"]
    )
    def test_law_overflow_fails_before_trials(
        self, tmp_path, capsys, monkeypatch, mode
    ):
        # At -2990 dB every trial runs at p ~ 1e-299, so the run's law
        # overflows, while the law at rho = 1 would not; per-trial fading
        # checks the law at the gain floor's power scaling, which bounds
        # every realized law. At 3000 dB the variance underflows to 0, and
        # with a matrix of singular values 1e100 the mean does too.
        huge = str(tmp_path / "huge.json")
        phi = coding.construct_random_orthonormal(10, 5, Rng(3)).phi * 1e100
        coding.save_matrix(coding.EncodingMatrix(phi), huge)
        runs = count_calls(monkeypatch, experiments, "run_trials")
        prefix = str(tmp_path / "run")
        for snr_db, flags in (
            (-2990, []),
            (3000, []),
            (3000, ["--construction", "custom", "--matrix", huge]),
        ):
            cfg_path = tmp_path / "config.json"
            cfg_path.write_text(json.dumps({
                "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1.0,
                "snr_db": snr_db, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
                "master_seed": 0,
            }))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run_cli(
                    "simulate", "--config", str(cfg_path), "--mode", mode,
                    "--trials", "20", "--out", prefix, *flags,
                )
            assert_usage_error_before_output(
                capsys, code, prefix + ".trials.csv", prefix + ".report.json"
            )
        assert runs == []

    def test_rician_factor_beyond_float_range_fails_before_outputs_exist(
        self, tmp_path, capsys, monkeypatch
    ):
        # only the per-trial channel draws read the factor, so the config
        # itself must reject it
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1.0,
            "snr_db": 10.0, "rician_kappa_db": 3100, "min_gain_floor": 1e-6,
            "master_seed": 0,
        }))
        runs = count_calls(monkeypatch, experiments, "run_trials")
        prefix = str(tmp_path / "kk")
        code = run_cli(
            "simulate", "--config", str(cfg_path), "--mode", "rician-per-trial",
            "--trials", "5", "--out", prefix,
        )
        assert_usage_error_before_output(
            capsys, code, prefix + ".trials.csv", prefix + ".report.json"
        )
        assert runs == []

    @pytest.mark.parametrize("snr_db", [1000, 1600, 3000])
    def test_extreme_snr_ends_in_an_exit_code(self, tmp_path, capsys, snr_db):
        # Rounding in the chain leaves distortions far above a law this
        # narrow, so the KS statistic reads the CDF deep in its upper tail;
        # at 3000 dB the law's variance underflows, a usage error.
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1.0,
            "snr_db": snr_db, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
            "master_seed": 0,
        }))
        code = run_cli(
            "simulate", "--config", str(cfg_path), "--mode", "fixed-unit",
            "--trials", "200",
        )
        capsys.readouterr()
        assert code in (0, 2)

    def test_fixed_channel_below_floor_fails_before_outputs_exist(
        self, tmp_path, capsys, monkeypatch
    ):
        # the all-ones channel has min_gain 1, below this floor
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1.0,
            "snr_db": 10.0, "rician_kappa_db": 5.0, "min_gain_floor": 2.0,
            "master_seed": 0,
        }))
        runs = count_calls(monkeypatch, experiments, "run_trials")
        prefix = str(tmp_path / "o")
        code = run_cli(
            "simulate", "--config", str(cfg_path), "--mode", "fixed-unit",
            "--trials", "5", "--out", prefix,
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: channel gain 1.000e+00 below floor 2.000e+00\n"
        assert captured.out == ""
        for suffix in (".trials.csv", ".report.json"):
            assert not os.path.exists(prefix + suffix)
        assert runs == []

    def test_fixed_from_seed_draws_its_channel_once(self, capsys, monkeypatch):
        draws = count_calls(monkeypatch, channel, "sample_rician")
        code = run_cli("simulate", "--mode", "fixed-from-seed", "--trials", "20")
        capsys.readouterr()
        assert code == 0
        assert len(draws) == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--matrix", "phi.json"],  # a file that would never be read
            ["--construction", "custom"],  # no file to read
        ],
    )
    def test_matrix_and_construction_must_agree(self, tmp_path, capsys, flags):
        prefix = tmp_path / "run"
        code = run_cli("simulate", "--trials", "3", "--out", str(prefix), *flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_rician_mode_omits_conditional_variance(self, tmp_path, capsys):
        # The Gamma variance conditions on one channel; per-trial fading
        # mixes over channels, so no variance is reported as theory.
        prefix = str(tmp_path / "run")
        code = run_cli(
            "simulate", "--mode", "rician-per-trial", "--trials", "20",
            "--eta", "1", "--out", prefix,
        )
        keys = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert code == 0
        assert "theory_var" not in keys
        assert {"theory_mean", "exceedance_freq"} <= set(keys)
        report = json.loads((tmp_path / "run.report.json").read_text())["report"]
        assert report["theory_variance"] is None
        assert report["theory_mean"] > 0

    def test_artifacts_are_deterministic(self, tmp_path, capsys):
        prefixes = [str(tmp_path / "a"), str(tmp_path / "b")]
        for prefix in prefixes:
            run_cli(
                "simulate", "--trials", "30", "--seed", "4", "--out", prefix,
            )
        a = (tmp_path / "a.trials.csv").read_bytes()
        b = (tmp_path / "b.trials.csv").read_bytes()
        assert a == b

    def test_shorter_run_is_a_prefix_of_the_trials_csv(self, tmp_path, capsys):
        for trials in ("30", "80"):
            run_cli(
                "simulate", "--trials", trials, "--seed", "4",
                "--out", str(tmp_path / trials),
            )
        short = (tmp_path / "30.trials.csv").read_text().splitlines()
        long = (tmp_path / "80.trials.csv").read_text().splitlines()
        assert len(short) == 31
        assert long[:31] == short

    def test_assertion_failure_exit_code(self, capsys):
        code = run_cli(
            "simulate", "--mode", "fixed-unit", "--trials", "1000",
            "--seed", "2", "--assert-tolerance", "1e-9",
        )
        assert code == 1

    def test_threads_do_not_change_output(self, tmp_path):
        for prefix, threads in ((tmp_path / "s", "1"), (tmp_path / "p", "2")):
            run_cli(
                "simulate", "--trials", "40", "--seed", "5",
                "--mode", "fixed-unit", "--threads", threads,
                "--out", str(prefix),
            )
        assert (tmp_path / "s.trials.csv").read_bytes() == (
            tmp_path / "p.trials.csv"
        ).read_bytes()


class TestOversizeInput:
    # 2^44 complex entries are 256 TiB, beyond a 47-bit user address space,
    # so no host can grant the allocation and it fails at once
    def test_simulate_is_usage_error(self, tmp_path, capsys):
        config = {
            "k_users": 2**44, "l": 1, "l_tilde": 1, "p_w": 1.0, "n0": 1.0,
            "snr_db": 10.0, "rician_kappa_db": 5.0, "min_gain_floor": 1e-6,
            "master_seed": 0,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code = run_cli(
            "simulate", "--config", str(path), "--mode", "fixed-unit",
            "--trials", "2",
        )
        assert_usage_error_before_output(capsys, code)

    def test_construct_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run_cli(
            "construct", "--l", str(2**22), "--l-tilde", str(2**22),
            "--out", str(out),
        )
        assert_usage_error_before_output(capsys, code, out)


class TestOneLawPerRun:
    @pytest.mark.parametrize(
        "argv, laws",
        [
            pytest.param(["simulate", "--trials", "5"], 1, id="simulate-rician"),
            pytest.param(
                ["simulate", "--trials", "5", "--mode", "fixed-unit"], 1,
                id="simulate-fixed-unit",
            ),
            pytest.param(
                ["simulate", "--trials", "5", "--mode", "fixed-from-seed"], 1,
                id="simulate-fixed-from-seed",
            ),
            # 5 SNRs x (2 rates + uncoded) rows, one law each
            pytest.param(
                ["figures", "--which", "2", "--trials", "2"], 15, id="figures-2"
            ),
            pytest.param(
                ["figures", "--which", "4", "--trials", "2"], 4, id="figures-4"
            ),
            # the plan's law and one per oracle test
            pytest.param(
                ["dist-test", "--ks-trials", "1000", "--chernoff-trials", "1000",
                 "--oracle-n", "1000"], 3,
                id="dist-test",
            ),
        ],
    )
    def test_each_run_builds_one_law(self, tmp_path, capsys, monkeypatch, argv, laws):
        built = count_calls(monkeypatch, coding, "distortion_law")
        if argv[0] == "figures":
            argv = argv + ["--out-dir", str(tmp_path)]
        assert run_cli(*argv) == 0
        assert len(built) == laws


class TestDistTest:
    def test_small_suite_passes(self, capsys):
        code = run_cli(
            "dist-test", "--seed", "0", "--ks-trials", "1000",
            "--chernoff-trials", "2000", "--oracle-n", "1000",
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") == 6
        assert "gamma-law-ks" in out
        assert "oracle-ks-skewed" in out

    def test_builds_each_matrix_once(self, capsys, monkeypatch):
        builds = count_calls(monkeypatch, experiments, "build_encoding")
        run_cli(
            "dist-test", "--ks-trials", "1000", "--chernoff-trials", "1000",
            "--oracle-n", "1000",
        )
        # once for the one run of KS and Chernoff trials; the skewed oracle
        # matrix is built directly
        assert len(builds) == 1

    def test_draws_each_stream_once_under_its_seed(self, capsys, monkeypatch):
        keys = []
        original = numerics.Rng.__init__

        def recording(self, master_seed, stream=0):
            keys.append((master_seed, stream))
            original(self, master_seed, stream)

        monkeypatch.setattr(numerics.Rng, "__init__", recording)
        ks, chernoff, n = 1000, 1500, 1000
        run_cli(
            "dist-test", "--seed", "5", "--ks-trials", str(ks),
            "--chernoff-trials", str(chernoff), "--oracle-n", str(n),
        )
        capsys.readouterr()
        assert {seed for seed, _ in keys} == {5}
        assert len(set(keys)) == len(keys)
        # a trial stream per transmission, one oracle sampler per oracle
        # test and the matrix's construction stream
        assert len(keys) == ks + chernoff + 2 * n + 2 + 1

    def test_tiny_sizes_rejected(self):
        assert run_cli("dist-test", "--ks-trials", "10") == 2

    def test_zero_threads_is_usage_error(self, capsys):
        assert run_cli("dist-test", "--threads", "0") == 2
        assert capsys.readouterr().err.startswith("error: --threads")


class TestFigures:
    def test_rate_region_table(self, tmp_path, capsys):
        code = run_cli("figures", "--which", "3", "--out-dir", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "fig3_rate_regions.csv").read_text().splitlines()
        assert lines[0].startswith("experiment,snr_db,rate")
        assert len(lines) == 1 + 7 * 3  # 7 SNR points, 3 criteria

    def test_mse_table(self, tmp_path, capsys):
        code = run_cli(
            "figures", "--which", "2", "--out-dir", str(tmp_path),
            "--trials", "10",
        )
        assert code == 0
        lines = (tmp_path / "fig2_mse_vs_snr.csv").read_text().splitlines()
        assert len(lines) == 1 + 5 * 3  # 5 SNRs x (2 rates + uncoded)

    def test_blocklength_table(self, tmp_path, capsys):
        code = run_cli(
            "figures", "--which", "4", "--out-dir", str(tmp_path),
            "--trials", "20",
        )
        assert code == 0
        lines = (tmp_path / "fig4_blocklength.csv").read_text().splitlines()
        assert len(lines) == 1 + 4

    def test_blocklength_builds_one_matrix_per_row(
        self, tmp_path, capsys, monkeypatch
    ):
        builds = count_calls(monkeypatch, experiments, "build_encoding")
        run_cli(
            "figures", "--which", "4", "--out-dir", str(tmp_path), "--trials", "2",
        )
        assert len(builds) == 4

    @pytest.mark.parametrize(
        "which, name", [("2", "fig2_mse_vs_snr.csv"), ("4", "fig4_blocklength.csv")]
    )
    def test_one_trial_leaves_var_mse_empty(self, tmp_path, capsys, which, name):
        code = run_cli(
            "figures", "--which", which, "--out-dir", str(tmp_path), "--trials", "1",
        )
        assert code == 0
        with open(tmp_path / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["var_mse"] == "" for row in rows)

    def test_out_dir_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "taken"
        path.write_text("")
        code = run_cli("figures", "--which", "3", "--out-dir", str(path))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_nonpositive_trials_is_usage_error(self, tmp_path, capsys, trials):
        code = run_cli(
            "figures", "--which", "4", "--out-dir", str(tmp_path / "fig"),
            "--trials", trials,
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --trials")
        assert not (tmp_path / "fig").exists()

    def test_unknown_figure_is_usage_error(self, tmp_path):
        assert run_cli("figures", "--which", "9", "--out-dir", str(tmp_path)) == 2

    def test_identical_flags_identical_bytes(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            run_cli(
                "figures", "--which", "2", "--out-dir", str(d),
                "--trials", "10", "--seed", "6",
            )
        assert (dirs[0] / "fig2_mse_vs_snr.csv").read_bytes() == (
            dirs[1] / "fig2_mse_vs_snr.csv"
        ).read_bytes()


def files_under(root):
    """Every file below ``root`` with its bytes; directories are left out."""
    return {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def unreachable_floor(tmp_path, monkeypatch):
    """A floor that no Rician draw clears: the first trial's draw fails."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "k_users": 10, "l": 5, "l_tilde": 10, "p_w": 1.0, "n0": 1.0,
        "snr_db": 10.0, "rician_kappa_db": 5.0, "min_gain_floor": 50,
        "master_seed": 0,
    }))
    return ["--config", str(path), "--mode", "rician-per-trial"]


def stopped_sweep(tmp_path, monkeypatch):
    def stop(*args, **kwargs):
        raise ValueError("sweep stopped")

    monkeypatch.setattr(experiments, "run_trials", stop)
    return []


# Each command that writes files: its flags up to the output location, the
# suffixes that location takes in the files it writes, what makes it fail
# after its output check (flags to add, after any patch), and that error.
WRITERS = [
    pytest.param(
        ["construct", "--l", "2", "--l-tilde", "4", "--out"], [""],
        lambda tmp_path, monkeypatch: ["--samples", "0"],
        "error: --samples must be at least 1\n",
        id="construct",
    ),
    pytest.param(
        ["simulate", "--trials", "20", "--out"], [".trials.csv", ".report.json"],
        unreachable_floor,
        "error: 10 coefficient(s) violated the gain floor 50.0 for 1000 "
        "consecutive draws\n",
        id="simulate",
    ),
    pytest.param(
        ["figures", "--which", "2", "--trials", "300", "--out-dir"],
        ["/fig2_mse_vs_snr.csv"],
        stopped_sweep,
        "error: sweep stopped\n",
        id="figures",
    ),
]


@pytest.mark.parametrize("flags, suffixes, fail_after_check, error", WRITERS)
class TestOutputRule:
    """Every command checks each output before any work, and a command that
    fails creates no file and leaves an earlier result as it was."""

    @pytest.mark.parametrize("blocked", ["missing-directory", "directory"])
    def test_unwritable_output_fails_before_any_work(
        self, tmp_path, capsys, monkeypatch, flags, suffixes, fail_after_check,
        error, blocked,
    ):
        if blocked == "missing-directory":
            # a directory that is missing and cannot be made: a file has
            # its name, so figures' makedirs fails too
            (tmp_path / "taken").write_text("")
            base = str(tmp_path / "taken" / "run")
        else:
            # the last output names a directory; any output checked before
            # it must leave no file
            base = str(tmp_path / "run")
            os.makedirs(base + suffixes[-1])
        before = files_under(tmp_path)
        runs = count_calls(monkeypatch, experiments, "run_trials")
        validates = count_calls(monkeypatch, coding, "validate")
        code = run_cli(*flags, base)
        assert_usage_error_before_output(capsys, code)
        assert runs == validates == []
        assert files_under(tmp_path) == before

    @pytest.mark.parametrize("earlier", [False, True])
    def test_failure_after_the_check_leaves_the_files_as_they_were(
        self, tmp_path, capsys, monkeypatch, flags, suffixes, fail_after_check,
        error, earlier,
    ):
        base = str(tmp_path / "run")
        if earlier:
            os.makedirs(os.path.dirname(base + suffixes[-1]), exist_ok=True)
            for suffix in suffixes:
                pathlib.Path(base + suffix).write_text(f"earlier {suffix}\n")
        extra = fail_after_check(tmp_path, monkeypatch)
        before = files_under(tmp_path)
        code = run_cli(*flags, base, *extra)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == error
        assert captured.out == ""
        assert files_under(tmp_path) == before
