"""One benchmark job process: run aircomp CLI calls and report their cost.

Usage: python3 bench/job.py '<json spec>'

The spec lists the calls (argv lists for ``aircomp.cli.main``), the source
directory aircomp must be imported from, and whether to trace. The job
prints one JSON record on stdout: import time, versions, and per call the
exit code, captured stdout and stderr, wall time from entry into
``cli.main`` to its return, and user+sys CPU time of this process and its
reaped children over that interval; plus the peak resident memory.

With ``"setup": true`` the job instead does only what precedes the first
trial of its calls (import, argument parsing, encoding matrices and the
fixed channel) and reports the CLOCK_MONOTONIC time at which it was ready,
so the caller can time the whole fresh process from its spawn.

Either way the record carries ``cal_s``, the host-speed probe (calibrate)
timed outside the measured interval: before and after the calls of a job,
after the ready time of a set-up.
"""

import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def calibrate() -> float:
    """Seconds for a fixed loop of small complex matmuls, the host-speed probe.

    Shared hosts slow a vCPU down by up to ~2x for tens of seconds at a
    time. The probe runs the kind of work the jobs do (tiny numpy calls
    driven by the interpreter) right before and after a job, so the caller
    can rescale the job's times to a fixed host speed.
    """
    import numpy as np

    m = np.ones((10, 5), dtype=complex)
    v = np.ones(5, dtype=complex)
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(100_000):
        total += (m @ v)[0].real
    return time.perf_counter() - t0


def prepare(argv) -> None:
    """The work a CLI call does before its first trial (see module docstring)."""
    from dataclasses import replace

    from aircomp import cli, experiments
    from aircomp.channel import SystemConfig, db_to_linear
    from aircomp.experiments import ChannelMode, ExperimentPlan

    args = cli.build_parser().parse_args(argv)
    if args.command == "simulate":
        plans = [
            ExperimentPlan(
                config=SystemConfig(master_seed=args.seed),
                trials=args.trials,
                channel_mode=ChannelMode(args.mode),
            )
        ]
    elif args.command == "dist-test":
        plans = [
            ExperimentPlan(
                config=SystemConfig(master_seed=args.seed),
                trials=args.ks_trials,
                channel_mode=ChannelMode.FIXED_UNIT_MIN_GAIN,
            )
        ]
    elif args.command == "figures":  # --which 4: four codeword lengths at 15 dB
        config = SystemConfig(master_seed=args.seed, p_x=db_to_linear(15.0))
        plans = [
            ExperimentPlan(
                config=replace(config, l=n // 2, l_tilde=n),
                trials=args.trials,
                channel_mode=ChannelMode.FIXED_FROM_SEED,
            )
            for n in (10, 20, 40, 80)
        ]
    else:  # construct / check: building and validating the matrix is the job
        plans = []
    for plan in plans:
        experiments.build_encoding(plan)
        experiments.fixed_channel_for(plan)


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import aircomp.cli

    import_s = time.perf_counter() - t0
    import numpy

    package_dir = os.path.dirname(os.path.abspath(aircomp.__file__))
    if package_dir != os.path.abspath(os.path.join(spec["src"], "aircomp")):
        print(f"aircomp imported from {package_dir}, not from {spec['src']}", file=sys.stderr)
        return 3
    record = {
        "import_s": import_s,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "aircomp": getattr(aircomp, "__version__", "unknown"),
        },
    }
    if spec.get("setup"):
        for argv in spec["calls"]:
            prepare(argv)
        record["ready"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        record["cal_s"] = [calibrate()]
        print(json.dumps(record))
        return 0

    tracer = None
    if spec.get("trace"):
        import spans

        tracer = spans.install(spec["job_id"])
    cal_before = calibrate()
    calls = []
    for argv in spec["calls"]:
        out, err = io.StringIO(), io.StringIO()
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = aircomp.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - t0
        calls.append(
            {
                "argv": list(argv),
                "rc": rc,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
                "wall_s": wall,
                "cpu_s": cpu_seconds() - c0,
            }
        )
    record["cal_s"] = [cal_before, calibrate()]
    record["calls"] = calls
    record["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        record["trace"] = tracer.summary()
        tracer.dump(spec["spans_out"])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
