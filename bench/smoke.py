"""Smoke test of the benchmark at tiny sizes.

Run from the checkout root:  python3 bench/smoke.py

For every workload it makes one end-to-end run and one traced run at the
"tiny" job sizes and checks that each metric BENCHMARK.json names is
emitted with its unit and that the runs are correct. It then corrupts real
outputs (a PASS flipped to FAIL in dist-test, one perturbed row of the
simulate trials CSV) and checks that the output checks reject them and that
the rejected jobs lower ok_frac. Exits 0 when everything holds.
"""

from __future__ import annotations

import io
import json
import os
import sys

import run
import workloads

SEED = 7
SCALE = "tiny"


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    if not result["correct"] or result["failed"]:
        fail(f"{label}: run not correct ({result['failed']} failed)")
    emitted = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(emitted) != sorted(names):
        fail(f"{label}: emitted {sorted(set(emitted) ^ set(names))} differ from BENCHMARK.json")
    for metric in declared:
        got = emitted[metric["name"]]
        if got["unit"] != metric["unit"] or not isinstance(got["value"], float):
            fail(f"{label}: {metric['name']} emitted as {got}")


def counted_as_failed(wl, good: dict, problems: list[str], what: str) -> None:
    """A rejected job, next to a clean one, must halve ok_frac."""
    if not problems:
        fail(f"{what} was not detected")
    bad = dict(good, problems=problems)
    values = run.summarize_jobs(wl, [bad, dict(good, problems=[])], setups=[1.0])
    if values["ok_frac"] != 0.5:
        fail(f"{what} not counted: ok_frac={values['ok_frac']}")


def corrupted_outputs() -> None:
    runner = run.Runner(os.getcwd(), log=io.StringIO())
    workdir = os.path.join(run.WORK, "smoke")

    dist = workloads.make("dist-test", SEED, workdir, SCALE)
    good = runner.job(dist, "smoke")
    if good["problems"]:
        fail(f"dist-test job failed before corruption: {good['problems']}")
    call = good["calls"][0]
    flipped = [dict(call, stdout=call["stdout"].replace("PASS", "FAIL", 1))]
    counted_as_failed(dist, good, dist.check(flipped), "a flipped PASS line")

    sim = workloads.make("simulate-rician", SEED, workdir, SCALE)
    good = runner.job(sim, "smoke")
    if good["problems"]:
        fail(f"simulate job failed before corruption: {good['problems']}")
    path = sim.outputs[0]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    trial, distortion, rest = lines[5].split(",", 2)
    lines[5] = f"{trial},{float(distortion) * 1.01!r},{rest}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    counted_as_failed(sim, good, sim.check(good["calls"]), "a perturbed trials CSV row")


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = sorted(w["name"] for w in bench["workloads"])
    if names != sorted(workloads.WHY):
        fail(f"BENCHMARK.json workloads {names} differ from workloads.WHY")
    for workload in names:
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            out = run.run(workload, SEED, 1.0, trace, scale=SCALE)
            check_metrics(out["result"], declared, f"{workload} trace={int(trace)}")
            print(f"ok {workload} trace={int(trace)}: {len(declared)} metrics")
    corrupted_outputs()
    print("ok corrupted outputs are counted as failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
