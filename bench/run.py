"""aircomp benchmark: end-to-end CLI timings and a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.WHY): simulate-rician, dist-test,
blocklength-sweep, construct-check. Each job is a fresh process running
the workload's ``aircomp`` CLI calls through ``aircomp.cli.main`` with
``--threads 1`` and BLAS pinned to one thread; jobs run one after another
(a closed loop with one client) for S seconds, at least two per run so
their outputs can be compared byte for byte. Every job's output is checked
(checks.py); a job that crashes, fails its check, or prints different bytes
from the run's first job counts as failed.

--trace 0 reports the end-to-end metrics: median job_s (entry into
cli.main to return), cpu_s, trials_per_s at the stated job size, setup_s
(median fresh-process time to the first trial), peak_rss_mb and ok_frac.
Times are rescaled to a reference host speed (see CAL_REF_S).
--trace 1 alternates untraced and traced jobs (spans.py) and reports the
per-layer metrics, the tracing overhead, and the process-pool speed-up of
simulate-rician at two workers; traced counts must equal what the job's
shape implies (the trace self-check).

The last stdout line is the JSON result; the line before it carries the
run's provenance. Full per-job details go to
.bench_work/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads

SRC = "src"
WORK = ".bench_work"
JOB = os.path.join(os.path.dirname(os.path.abspath(__file__)), "job.py")

# A run must end within 180 s; stop starting work well before.
DEADLINE_S = 165.0
MIN_JOBS = 2
BLAS_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
POOL_WORKERS = min(2, os.cpu_count() or 1)

# Times are rescaled to the host speed at which job.calibrate() takes this
# long (an unthrottled Intel Xeon vCPU of the reference host), using the
# probe timed right before and after each job. Shared hosts slow a vCPU by
# up to ~2x for tens of seconds; without the rescaling that alone moves a
# run's median job time by 30-50%. Raw wall times stay in the details file.
CAL_REF_S = 0.11

END_TO_END_UNITS = {
    "job_s": "s",
    "cpu_s": "s",
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}

# Per-layer span statistics: span name -> statistics reported for it.
SPAN_STATS = {
    "numerics.Rng": ("count", "busy_s"),
    "numerics.sample_complex_gaussian": ("count", "busy_s"),
    "numerics.ks_distance": ("busy_s",),
    "numerics.regularized_lower_gamma": ("count", "busy_s"),
    "channel.run_round": ("count", "busy_s", "self_s"),
    "channel.sample_rician": ("count", "busy_s"),
    "channel.encode_and_precode": ("count", "busy_s"),
    "channel.sample_sources": ("busy_s",),
    "channel.superpose": ("busy_s",),
    "channel.decode_sum": ("busy_s",),
    "coding.validate": ("busy_s",),
    "coding.construct_random_orthonormal": ("busy_s",),
    "coding.load_matrix": ("busy_s",),
    "analysis.gamma_cdf": ("count", "busy_s"),
    "analysis.sample_general_mse": ("count", "busy_s"),
    "experiments.run_trials": ("busy_s", "self_s"),
    "experiments.build_encoding": ("busy_s",),
    "experiments.summarize": ("busy_s",),
    "experiments.oracle_equivalence_test": ("self_s",),
    "experiments.write_trials_csv": ("busy_s",),
    "cli.main": ("self_s",),
}
STAT_UNITS = {"count": "count", "busy_s": "s", "self_s": "s"}
COUNTER_UNITS = {
    "channel.sample_rician.redraws": "count",
    "coding.validate.subsets": "count",
    "coding.save_matrix.bytes": "bytes",
    "experiments.write_trials_csv.bytes": "bytes",
}
OTHER_LAYER_UNITS = {
    "channel.run_round.p50_us": "us",
    "channel.run_round.p99_us": "us",
    "channel.cmac_per_trial": "computed-cmac",
    "coding.validate.us_per_subset": "us",
    "experiments.pool_speedup_2w": "ratio",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {
        f"{span}.{stat}": STAT_UNITS[stat]
        for span, stats in SPAN_STATS.items()
        for stat in stats
    }
    return {**units, **COUNTER_UNITS, **OTHER_LAYER_UNITS}


class Runner:
    """Spawns job processes for one workload and keeps their records."""

    def __init__(self, root: str, log=sys.stderr):
        self.root = root
        self.log = log
        self.started = time.monotonic()
        self.env = {
            **os.environ,
            **BLAS_ENV,
            "PYTHONPATH": os.pathsep.join(
                p for p in (os.path.join(root, SRC), os.environ.get("PYTHONPATH")) if p
            ),
        }
        self.jobs: list[dict] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def spawn(self, spec: dict) -> tuple[dict | None, float, str | None]:
        """Run job.py with ``spec``; return (record, spawn time, error)."""
        spec = {"src": os.path.join(self.root, SRC), **spec}
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, JOB, json.dumps(spec)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return None, spawned, "job timed out"
        if proc.returncode != 0:
            return None, spawned, f"job process exited {proc.returncode}: {err[-2000:]}"
        return json.loads(out.splitlines()[-1]), spawned, None

    def job(self, wl: workloads.Workload, kind: str, trace: bool = False) -> dict:
        """Run one job of ``wl``, check its output and record it."""
        for path in wl.outputs:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            if os.path.exists(path):
                os.remove(path)
        index = len(self.jobs)
        spec = {"calls": [list(c) for c in wl.calls], "trace": trace, "job_id": index}
        if trace:
            spec["spans_out"] = os.path.join(WORK, wl.name, "spans.npz")
        t0 = time.monotonic()
        record, _, error = self.spawn(spec)
        job = {"kind": kind, "workload": wl.name, "wall_s": time.monotonic() - t0}
        if record is None:
            job["problems"] = [error]
        else:
            calls = record["calls"]
            speed = CAL_REF_S / statistics.mean(record["cal_s"])
            wall_s = sum(c["wall_s"] for c in calls)
            job.update(
                speed=speed,
                wall_job_s=wall_s,
                job_s=wall_s * speed,
                cpu_s=sum(c["cpu_s"] for c in calls) * speed,
                peak_rss_mb=record["peak_rss_mb"],
                import_s=record["import_s"] * speed,
                calls=calls,
                trace=record.get("trace"),
                problems=wl.check(calls),
                digest=digest(calls, wl.outputs),
            )
            if trace:
                job["problems"] += self_check(wl, record["trace"])
        for problem in job["problems"]:
            print(f"[{wl.name} job {index} {kind}] {problem}", file=self.log)
        self.jobs.append(job)
        return job

    def setup_s(self, wl: workloads.Workload) -> tuple[float, dict]:
        """Fresh-process time from spawn until ready for the first trial."""
        record, spawned, error = self.spawn(
            {"calls": [list(c) for c in wl.calls], "setup": True}
        )
        if record is None:
            raise RuntimeError(f"set-up process failed: {error}")
        speed = CAL_REF_S / record["cal_s"][0]
        return (record["ready"] - spawned) * speed, record["versions"]


def digest(calls: list[dict], outputs) -> str:
    h = hashlib.sha256()
    for call in calls:
        h.update(call["stdout"].encode())
    for path in outputs:
        try:
            with open(path, "rb") as fh:
                h.update(fh.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def require_same_bytes(jobs: list[dict], what: str) -> None:
    """Flag every job whose outputs differ from the first job's bytes."""
    done = [j for j in jobs if "digest" in j]
    for job in done[1:]:
        if job["digest"] != done[0]["digest"]:
            job["problems"].append(f"output bytes differ from the first {what} job")


def trace_value(trace: dict, key: str) -> int:
    if "<" in key:
        return trace["by_parent"].get(key, 0)
    if key in trace["counters"]:
        return trace["counters"][key]
    return trace["spans"].get(key, {}).get("count", 0)


def self_check(wl: workloads.Workload, trace: dict) -> list[str]:
    problems = []
    for key, want in wl.expected.items():
        got = trace_value(trace, key)
        if got != want:
            problems.append(f"trace self-check: {key} = {got}, expected {want}")
    for key, least in wl.at_least.items():
        got = trace_value(trace, key)
        if got < least:
            problems.append(f"trace self-check: {key} = {got}, expected >= {least}")
    return problems


def layer_metrics(wl: workloads.Workload, job: dict) -> dict[str, float]:
    """Per-layer values of one traced job."""
    trace = job["trace"]
    spans = trace["spans"]
    values = {}
    for span, stats in SPAN_STATS.items():
        for stat in stats:
            values[f"{span}.{stat}"] = float(spans.get(span, {}).get(stat, 0))
    for key in COUNTER_UNITS:
        values[key] = float(trace["counters"].get(key, 0))
    values["channel.run_round.p50_us"] = trace["run_round"]["p50_us"]
    values["channel.run_round.p99_us"] = trace["run_round"]["p99_us"]
    subsets = values["coding.validate.subsets"]
    values["coding.validate.us_per_subset"] = (
        values["coding.validate.busy_s"] / subsets * 1e6 if subsets else 0.0
    )
    units = per_layer_units()
    values = {
        k: v * job["speed"] if units[k] in ("s", "us") else v
        for k, v in values.items()
    }
    values["channel.cmac_per_trial"] = float(wl.cmac_per_trial)
    values["cli.import_s"] = job["import_s"]
    values["trace.spans"] = float(trace["span_total"])
    return values


def median_of(jobs: list[dict], key: str) -> float:
    return statistics.median(j[key] for j in jobs)


def measured(jobs: list[dict]) -> list[dict]:
    """Jobs to take timings from: the correct ones, else any that ran."""
    timed = [j for j in jobs if "job_s" in j]
    return [j for j in timed if not j["problems"]] or timed


def run_end_to_end(runner: Runner, wl, seconds: float, setup_repeats: int) -> dict:
    setups = [runner.setup_s(wl)[0] for _ in range(setup_repeats)]
    begin = time.monotonic()
    last = 0.0
    while len(runner.jobs) < MIN_JOBS or (
        time.monotonic() - begin + last <= seconds and runner.remaining() > last
    ):
        last = runner.job(wl, "timed")["wall_s"]
    require_same_bytes(runner.jobs, "timed")
    return summarize_jobs(wl, runner.jobs, setups)


def summarize_jobs(wl, jobs: list[dict], setups: list[float]) -> dict:
    """End-to-end metrics of a run's jobs and set-up times."""
    timed = measured(jobs)
    if not timed:
        raise RuntimeError("no job ran to completion")
    job_s = median_of(timed, "job_s")
    failed = sum(1 for j in jobs if j["problems"])
    return {
        "job_s": job_s,
        "cpu_s": median_of(timed, "cpu_s"),
        "trials_per_s": wl.work_units / job_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median_of(timed, "peak_rss_mb"),
        "ok_frac": (len(jobs) - failed) / len(jobs),
    }


def run_traced(runner: Runner, wl, seconds: float, scale: str) -> dict:
    begin = time.monotonic()
    last = 0.0
    while not runner.jobs or (
        time.monotonic() - begin + last <= seconds and runner.remaining() > last
    ):
        t0 = time.monotonic()
        runner.job(wl, "untraced")
        runner.job(wl, "traced", trace=True)
        last = time.monotonic() - t0
    require_same_bytes(runner.jobs, "untraced or traced")

    pool_wl = workloads.make(
        "simulate-rician", wl.seed, os.path.join(WORK, wl.name, "pool"), scale
    )
    pooled = pool_wl.with_threads(POOL_WORKERS)
    # 1, 2, 2, 1 workers, so a drift in machine speed cancels out
    pool_jobs = [
        runner.job(w, f"pool-{n}w")
        for w, n in ((pool_wl, 1), (pooled, POOL_WORKERS), (pooled, POOL_WORKERS), (pool_wl, 1))
    ]
    require_same_bytes(pool_jobs, "pool")

    traced = measured([j for j in runner.jobs if j["kind"] == "traced"])
    untraced = measured([j for j in runner.jobs if j["kind"] == "untraced"])
    serial = measured(pool_jobs[::3])
    parallel = measured(pool_jobs[1:3])
    if not (traced and untraced and serial and parallel):
        raise RuntimeError("traced, untraced or pool jobs did not run to completion")
    per_job = [layer_metrics(wl, j) for j in traced]
    values = {k: statistics.median(v[k] for v in per_job) for k in per_job[0]}
    values["trace.overhead_s"] = median_of(traced, "job_s") - median_of(untraced, "job_s")
    values["experiments.pool_speedup_2w"] = (
        median_of(serial, "job_s") / median_of(parallel, "job_s")
    )
    return values


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    package = os.path.join(root, SRC, "aircomp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: str = "full", log=sys.stderr) -> dict:
    """One benchmark run from the checkout root (the working directory);
    returns the result and the details behind it."""
    root = os.getcwd()
    runner = Runner(root, log)
    load = os.getloadavg()
    wl = workloads.make(workload, seed, os.path.join(WORK, workload), scale)
    os.makedirs(os.path.join(root, WORK, workload), exist_ok=True)
    # warm-up: compiles bytecode and fills the file cache; not timed
    _, versions = runner.setup_s(wl)
    if trace:
        values = run_traced(runner, wl, seconds, scale)
        units = per_layer_units()
    else:
        values = run_end_to_end(runner, wl, seconds, workloads.SIZES[scale]["setup_repeats"])
        units = END_TO_END_UNITS
    failed = sum(1 for j in runner.jobs if j["problems"])
    timed = measured(runner.jobs)
    provenance = {
        "workload": workload,
        "seed": seed,
        "program_seed": wl.seed,
        "scale": scale,
        "trace": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_start": load,
        "versions": versions,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "job_env": BLAS_ENV,
        "threads_per_job": 1,
        "pool_workers": POOL_WORKERS,
        "calls": [list(c) for c in wl.calls],
        "jobs": len(runner.jobs),
        "cal_ref_s": CAL_REF_S,
        "median_speed": statistics.median(j["speed"] for j in timed),
        "median_wall_job_s": statistics.median(j["wall_job_s"] for j in timed),
    }
    result = {
        "correct": failed == 0,
        "attempted": len(runner.jobs),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return {"result": result, "provenance": provenance, "jobs": runner.jobs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not os.path.isfile(os.path.join(SRC, "aircomp", "cli.py")):
        print(
            f"error: {os.path.join(SRC, 'aircomp')} not found; run from the root "
            "of an aircomp checkout",
            file=sys.stderr,
        )
        return 2
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    result = out["result"]
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"jobs attempted {result['attempted']}, failed {result['failed']}")
    print("provenance: " + json.dumps(out["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
