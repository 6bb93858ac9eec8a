"""Output checks for benchmark jobs.

Every check returns a list of problems; an empty list means the job's
output is correct. Consistency checks compare numbers the CLI prints with
the files it writes and hold exactly up to the 12 significant digits of
the output format, so they raise no false alarms. Every statistical gate
states its false-alarm rate under the law the program certifies; each is
at most ALPHA per gate, so across the few thousand jobs a benchmark
campaign runs a spurious failure stays improbable.
"""

from __future__ import annotations

import csv
import json
import math
import re

import numpy as np

# False-alarm rate of each statistical gate under the certified law.
ALPHA = 1e-6

# Relative slack for values the CLI rounds to 12 significant digits.
REL = 1e-9

# Reference regime (SystemConfig defaults): 10 users, l = 5, l_tilde = 10,
# unit source and noise power, 10 dB transmit-SNR cap, gain floor 1e-6.
K_USERS = 10
L = 5
RATE = 0.5
P_W = 1.0
N0 = 1.0
P_X = 10.0
GAIN_FLOOR = 1e-6


def close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def fields(text: str) -> dict[str, str]:
    """``key: value`` lines of CLI output as a dict (first occurrence wins)."""
    out: dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _number(fields_: dict[str, str], key: str, problems: list[str]) -> float:
    try:
        value = float(fields_[key])
    except (KeyError, ValueError):
        problems.append(f"missing or malformed {key!r} line")
        return math.nan
    if not math.isfinite(value):
        problems.append(f"{key} is not finite")
    return value


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------


def gamma_sum_log_tail(total: float, scales, shape: float) -> float:
    """Log Chernoff bound on the tail of S = sum_i scales_i * G_i beyond ``total``.

    The G_i are independent Gamma(shape, 1). Above the mean this bounds
    log P(S >= total), below it log P(S <= total); at the mean it is 0.
    The bound uses the exact moment generating function, so it holds for
    any number of terms and any spread of the scales (no normal
    approximation).
    """
    c = np.asarray(scales, dtype=float)
    mean = shape * float(c.sum())
    if total <= 0.0:
        return -math.inf
    if total == mean:
        return 0.0

    def slope(t):  # derivative of the cumulant generating function
        return shape * float(np.sum(c / (1.0 - t * c)))

    if total > mean:
        lo, hi = 0.0, (1.0 - 1e-12) / float(c.max())
    else:
        lo, hi = -1.0 / float(c.max()), 0.0
        while slope(lo) > total:
            lo *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if slope(mid) < total:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    return -t * total - shape * float(np.sum(np.log1p(-t * c)))


def gamma_upper_tail(shape: int, x: float) -> float:
    """P(G >= x) for G ~ Gamma(shape, 1) with integer shape (Poisson sum)."""
    term, total = 1.0, 1.0
    for k in range(1, shape):
        term *= x / k
        total += term
    return math.exp(-x) * total


def gamma_mean_false_alarm(k: float, z: float) -> float:
    """Chernoff bound on P(|z-score| > z) for the mean of Gamma draws.

    The mean of n Gamma(l, theta) draws is Gamma(k, theta / n) with
    k = n * l, whose z-score is sqrt(k) * (mean / E mean - 1).
    """
    eta = z / math.sqrt(k)
    upper = math.exp(-k * (eta - math.log1p(eta)))
    lower = math.exp(-k * (-eta - math.log1p(-eta))) if eta < 1 else 0.0
    return upper + lower


def dkw_critical(n: int, alpha: float = ALPHA) -> float:
    """One-sample KS distance exceeded with probability <= alpha (DKW-Massart)."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def dkw_two_sample_critical(n: int, alpha: float = ALPHA) -> float:
    """Two-sample KS distance (n per side) exceeded with probability <= alpha.

    Triangle inequality through the common law plus DKW-Massart on each
    side: P(D > e) <= 4 exp(-n e^2 / 2).
    """
    return math.sqrt(2.0 * math.log(4.0 / alpha) / n)


def hoeffding_critical(n: int, alpha: float = ALPHA) -> float:
    """Deviation of a frequency from its probability exceeded w.p. <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


# ---------------------------------------------------------------------------
# simulate-rician
# ---------------------------------------------------------------------------

TRIALS_HEADER = ["trial", "distortion", "min_gain", "p_used"]


def check_simulate(calls, trials: int, out: str) -> list[str]:
    """``simulate --mode rician-per-trial --eta 1 --out out`` in the reference regime.

    Consistency (no false alarms): the CSV has one row per trial, p_used is
    the maximal power scaling of its min_gain, and the printed mean,
    variance, theory mean and exceedance frequency are those of the CSV.

    Statistics: given the channels, trial i's distortion is
    Gamma(l, m_i / l) with m_i = n0 / p_used_i, independently across
    trials, so their sum has an exactly known law. The gate rejects when
    the Chernoff bound on the tail beyond the observed sum falls below
    ALPHA / 2 on either side: false-alarm rate <= ALPHA. The statistic
    z = (sum d - sum m) / sqrt(sum m^2 / l) is reported alongside; it is
    not gated on a normal quantile because 1 / min_gain is heavy tailed
    and a single trial can carry much of the variance.
    """
    (call,) = calls
    problems: list[str] = []
    if call["rc"] != 0:
        return [f"simulate exited {call['rc']}"]
    f = fields(call["stdout"])
    if f.get("trials") != str(trials):
        problems.append(f"trials line {f.get('trials')!r}, expected {trials}")
    mean_mse = _number(f, "mean_mse", problems)
    theory_mean = _number(f, "theory_mean", problems)
    var_mse = _number(f, "var_mse", problems)
    exceedance = _number(f, "exceedance_freq", problems)
    if f"wrote {out}.trials.csv and {out}.report.json" not in call["stdout"]:
        problems.append("missing 'wrote' line")
    if problems:
        return problems

    try:
        with open(out + ".trials.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read trials CSV: {exc}"]
    if not rows or rows[0] != TRIALS_HEADER:
        return ["trials CSV header differs"]
    body = rows[1:]
    if len(body) != trials:
        return [f"trials CSV has {len(body)} rows, expected {trials}"]
    try:
        index = np.array([int(r[0]) for r in body])
        data = np.array([[float(x) for x in r[1:]] for r in body])
    except (ValueError, IndexError):
        return ["trials CSV has malformed rows"]
    if not np.array_equal(index, np.arange(trials)):
        problems.append("trial column is not 0..trials-1")
    if data.shape != (trials, 3) or not np.isfinite(data).all():
        return problems + ["trials CSV has non-finite or missing values"]
    d, min_gain, p_used = data.T
    if np.any(d <= 0):
        problems.append("nonpositive distortion")
    if np.any(min_gain < GAIN_FLOOR):
        problems.append("min_gain below the gain floor")
    p_star = P_X * min_gain / (RATE * P_W)
    if np.any(np.abs(p_used - p_star) > REL * p_star):
        problems.append("p_used is not the maximal power scaling of min_gain")
    m = N0 / p_used
    if not close(float(np.mean(d)), mean_mse):
        problems.append("mean_mse differs from the CSV mean")
    if not close(float(np.var(d, ddof=1)), var_mse, 1e-8):
        problems.append("var_mse differs from the CSV variance")
    if not close(float(np.mean(m)), theory_mean):
        problems.append("theory_mean differs from mean(n0 / p_used)")
    exceed_count = int(np.sum(d >= 2.0 * theory_mean))
    if abs(exceed_count - exceedance * trials) > 1.0 + 1e-6:
        problems.append("exceedance_freq differs from the CSV")

    try:
        with open(out + ".report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        if report["plan"]["trials"] != trials or not close(
            report["report"]["mean"], mean_mse
        ):
            problems.append("report.json disagrees with stdout")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report.json: {exc}")

    log_tail = gamma_sum_log_tail(float(d.sum()), m / L, L)
    if log_tail < math.log(ALPHA / 2.0):
        z = (d.sum() - m.sum()) / math.sqrt(np.sum(m**2) / L)
        problems.append(
            f"sum of distortions outside its conditional law "
            f"(z={z:.3f}, tail bound {math.exp(log_tail):.3g})"
        )
    return problems


# ---------------------------------------------------------------------------
# dist-test
# ---------------------------------------------------------------------------

DIST_LINE = re.compile(r"^(PASS|FAIL) (\S+): statistic=(\S+) critical=(\S+)$")
DIST_NAMES = [
    "gamma-law-ks",
    "chernoff-eta-0.5",
    "chernoff-eta-1",
    "chernoff-eta-2",
    "oracle-ks-orthonormal",
    "oracle-ks-skewed",
]


def check_dist_test(calls, ks_trials: int, chernoff_trials: int, oracle_n: int):
    """``dist-test``: six well-formed verdict lines, each consistent and sound.

    Consistency (no false alarms): six lines in the fixed order, each
    label PASS exactly when its statistic is within its printed critical
    value, the printed KS critical values are the documented 1.63/sqrt(n)
    and 1.63*sqrt(2/n), and the exit code is 0 exactly when all six pass.

    The program's own gates are 1% KS tests, so about 3% of seeds print a
    FAIL line and exit 1 even when the program is right. Counting those as
    failures would make a benchmark campaign over many seeds fail by
    chance, so this check gates each statistic at false-alarm rate ALPHA
    instead: the KS distances against DKW-Massart bounds (one- and
    two-sample) and the Chernoff exceedance frequencies against the exact
    Gamma(l) tail with a Hoeffding margin. Six gates: at most 6 * ALPHA per
    job.
    """
    (call,) = calls
    lines = call["stdout"].splitlines()
    parsed = [DIST_LINE.match(line) for line in lines]
    if len(lines) != 6 or not all(parsed):
        return [f"expected six verdict lines, got {lines!r}"]
    problems: list[str] = []
    names = [m.group(2) for m in parsed]
    if names != DIST_NAMES:
        return [f"verdict lines {names}, expected {DIST_NAMES}"]
    all_pass = True
    for m in parsed:
        label, name = m.group(1), m.group(2)
        try:
            stat, critical = float(m.group(3)), float(m.group(4))
        except ValueError:
            problems.append(f"{name}: malformed numbers")
            continue
        within = stat <= critical if name.startswith("chernoff") else stat < critical
        if (label == "PASS") != within:
            problems.append(f"{name}: label {label} contradicts {stat} vs {critical}")
        all_pass &= label == "PASS"
        if name == "gamma-law-ks":
            if not close(critical, 1.63 / math.sqrt(ks_trials)):
                problems.append(f"{name}: critical value {critical}")
            if stat > dkw_critical(ks_trials):
                problems.append(f"{name}: KS distance {stat} beyond the ALPHA bound")
        elif name.startswith("oracle"):
            if not close(critical, 1.63 * math.sqrt(2.0 / oracle_n)):
                problems.append(f"{name}: critical value {critical}")
            if stat > dkw_two_sample_critical(oracle_n):
                problems.append(f"{name}: KS distance {stat} beyond the ALPHA bound")
        else:
            eta = float(name.rsplit("-", 1)[1])
            exact = gamma_upper_tail(L, L * (1.0 + eta))
            if abs(stat - exact) > hoeffding_critical(chernoff_trials):
                problems.append(
                    f"{name}: exceedance {stat} too far from the exact tail {exact:.6g}"
                )
    if (call["rc"] == 0) != all_pass or call["rc"] not in (0, 1):
        problems.append(f"exit code {call['rc']} contradicts the verdict lines")
    return problems


# ---------------------------------------------------------------------------
# blocklength-sweep
# ---------------------------------------------------------------------------

FIG_HEADER = [
    "experiment", "snr_db", "rate", "l", "l_tilde", "scheme", "trials",
    "mean_mse", "var_mse", "theory_mean", "theory_var", "ks_stat",
    "exceedance", "bound",
]
BLOCKLENGTHS = (10, 20, 40, 80)

# |z| bound on each row's mean; its false-alarm rate is computed per row
# from the exact Gamma law of the mean (gamma_mean_false_alarm).
FIG_Z = 6.0


def check_blocklength(calls, trials: int, out: str) -> list[str]:
    """``figures --which 4``: four rows whose means match the Gamma law.

    Consistency: the fixed schema, l_tilde in {10, 20, 40, 80} at rate 1/2
    and 15 dB, one theory mean for all rows (the channel is held fixed),
    and theory_var = theory_mean^2 / l.

    Statistics: each row's mean of ``trials`` Gamma(l, theta) draws must
    lie within |z| <= 6, z = (mean - theory_mean) / sqrt(theory_var /
    trials). Under the law the mean is exactly Gamma(l * trials), and the
    Chernoff bound puts the false-alarm rate below 1e-7 per row at
    trials = 2000 (computed, and required to stay below ALPHA).
    """
    (call,) = calls
    if call["rc"] != 0:
        return [f"figures exited {call['rc']}"]
    if call["stdout"] != f"wrote {out}\n":
        return [f"unexpected stdout {call['stdout']!r}"]
    try:
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return [f"cannot read figure CSV: {exc}"]
    if not rows or rows[0] != FIG_HEADER or len(rows) != 1 + len(BLOCKLENGTHS):
        return ["figure CSV has the wrong header or row count"]
    problems: list[str] = []
    theory_means = []
    for row, l_tilde in zip(rows[1:], BLOCKLENGTHS):
        rec = dict(zip(FIG_HEADER, row))
        try:
            l = int(rec["l"])
            ok = (
                rec["experiment"] == "blocklength"
                and rec["scheme"] == "proposed"
                and int(rec["l_tilde"]) == l_tilde
                and 2 * l == l_tilde
                and int(rec["trials"]) == trials
                and close(float(rec["snr_db"]), 15.0)
                and close(float(rec["rate"]), RATE)
                and rec["ks_stat"] == rec["exceedance"] == rec["bound"] == ""
            )
            mean, theory_mean, theory_var = (
                float(rec[k]) for k in ("mean_mse", "theory_mean", "theory_var")
            )
        except (KeyError, ValueError):
            problems.append(f"l_tilde={l_tilde}: malformed row")
            continue
        if not ok:
            problems.append(f"l_tilde={l_tilde}: row fields differ from the sweep")
            continue
        theory_means.append(theory_mean)
        if not close(theory_var, theory_mean**2 / l):
            problems.append(f"l_tilde={l_tilde}: theory_var is not theory_mean^2 / l")
        false_alarm = gamma_mean_false_alarm(l * trials, FIG_Z)
        if false_alarm > ALPHA:
            problems.append(f"l_tilde={l_tilde}: gate too weak ({false_alarm:.3g})")
        z = (mean - theory_mean) / math.sqrt(theory_var / trials)
        if abs(z) > FIG_Z:
            problems.append(f"l_tilde={l_tilde}: mean_mse off theory by z={z:.2f}")
    if theory_means and not all(close(t, theory_means[0]) for t in theory_means):
        problems.append("theory_mean differs between rows of one fixed channel")
    return problems


# ---------------------------------------------------------------------------
# construct-check
# ---------------------------------------------------------------------------


def check_construct(calls, shapes, paths) -> list[str]:
    """``construct --strict`` then ``check --strict`` of the written file, per shape.

    construct must report an orthonormal matrix that passes power and rank
    validation (exhaustive when C(l_tilde, l) <= 100000, else sampled) and
    check must report the same shape, trace, validation and Gram spectrum
    lines for the file. The only random outcome is rank_ok, which fails
    only if some row subset of a random orthonormal matrix has a
    singular-value ratio below 1e-9, an event of probability far below
    ALPHA.
    """
    problems: list[str] = []
    for (l_tilde, l), path, pair in zip(shapes, paths, zip(calls[::2], calls[1::2])):
        built, checked = pair
        tag = f"{l_tilde}x{l}"
        if built["rc"] != 0 or checked["rc"] != 0:
            problems.append(f"{tag}: exit codes {built['rc']}, {checked['rc']}")
            continue
        fb, fc = fields(built["stdout"]), fields(checked["stdout"])
        mode = "exhaustive" if math.comb(l_tilde, l) <= 100_000 else "sampled"
        subsets = math.comb(l_tilde, l) if mode == "exhaustive" else 1000
        if fb.get("shape") != tag or not fb.get("orthonormal", "").startswith("ok"):
            problems.append(f"{tag}: construct did not report an orthonormal matrix")
        if fb.get("power_ok") != "true":
            problems.append(f"{tag}: power_ok is not true")
        if not fb.get("rank_ok", "").startswith(f"true ({mode}, {subsets} subsets,"):
            problems.append(f"{tag}: rank line {fb.get('rank_ok')!r}")
        for key in ("shape", "rate", "trace", "power_ok", "rank_ok", "gram_spectrum"):
            if fb.get(key) != fc.get(key):
                problems.append(f"{tag}: check reports a different {key}")
        if f"wrote {path}" not in built["stdout"].splitlines():
            problems.append(f"{tag}: missing 'wrote' line")
        try:
            with open(path, encoding="utf-8") as fh:
                blob = json.load(fh)
            if (blob["rows"], blob["cols"]) != (l_tilde, l):
                problems.append(f"{tag}: matrix file has the wrong shape")
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{tag}: unreadable matrix file: {exc}")
    return problems
