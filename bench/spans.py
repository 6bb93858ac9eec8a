"""Span tracing of aircomp's layers, installed from outside the package.

``install`` wraps every public function of the traced modules, plus the
constructor of ``numerics.Rng``, and records one span per call: name,
start, end, parent span and the job id. Callers often bind a function at
import time (``from .numerics import Rng, ks_distance`` in experiments,
``regularized_lower_gamma`` in analysis), so each wrapper replaces every
module attribute that still points at the original; otherwise the wrapped
name would silently count nothing. Rng is counted through its class's
``__init__``, which every binding of the class shares.

Self time is the part of a span not covered by spans of other layers
(modules): calls a function makes into its own module count as its own
time. ``cli.main``'s self time is therefore all parsing, formatting and
printing, and ``experiments.run_trials``'s is the loop and chunk overhead
outside the channel and numerics layers.

Spans stay in typed arrays while the job runs; ``summary`` aggregates
them and ``dump`` writes them out once the job is done.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("numerics", "coding", "channel", "analysis", "experiments", "cli")


def _path_bytes(arguments) -> int:
    return os.path.getsize(arguments["path"])


# Counts taken at a span's boundary from its arguments and result.
COUNTERS = {
    "channel.sample_rician": ("redraws", lambda a, r: r.redraws),
    "coding.validate": ("subsets", lambda a, r: r.subsets_checked),
    "coding.save_matrix": ("bytes", lambda a, r: _path_bytes(a)),
    "experiments.write_trials_csv": ("bytes", lambda a, r: _path_bytes(a)),
}


class Tracer:
    def __init__(self, job_id: int):
        self.job_id = job_id
        self.names: list[str] = []
        self.counters: Counter = Counter()
        self._name = array("H")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._self = array("q")
        # open spans: [span index, layer, time covered by other layers]
        self._stack: list[list] = []

    def wrap(self, name: str, layer: str, fn):
        ix = len(self.names)
        self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        names, parents, starts = self._name, self._parent, self._start
        ends, selfs = self._end, self._self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(ix)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0)
            selfs.append(0)
            frame = [sid, layer, 0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                ends[sid] = t1
                selfs[sid] = dur - frame[2]
                if stack:
                    up = stack[-1]
                    up[2] += dur if up[1] != layer else frame[2]
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters[f"{name}.{counter[0]}"] += counter[1](
                    bound.arguments, result
                )
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16),
            "parent": np.frombuffer(self._parent, dtype=np.int32),
            "start_ns": np.frombuffer(self._start, dtype=np.int64),
            "end_ns": np.frombuffer(self._end, dtype=np.int64),
            "self_ns": np.frombuffer(self._self, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per span name: count, busy_s, self_s; per (child, parent) counts;
        the boundary counters; p50/p99 of run_round in microseconds."""
        a = self.arrays()
        n = len(self.names)
        name = a["name"].astype(np.int64)
        parent = a["parent"]
        dur = (a["end_ns"] - a["start_ns"]).astype(float)
        count = np.bincount(name, minlength=n)
        busy = np.bincount(name, weights=dur, minlength=n) / 1e9
        own = np.bincount(name, weights=a["self_ns"].astype(float), minlength=n) / 1e9
        spans = {
            self.names[i]: {"count": int(count[i]), "busy_s": busy[i], "self_s": own[i]}
            for i in range(n)
            if count[i]
        }
        has_parent = parent >= 0
        pair = name[has_parent] * n + name[parent[has_parent]]
        pairs = np.bincount(pair, minlength=n * n)
        by_parent = {
            f"{self.names[i // n]}<{self.names[i % n]}": int(pairs[i])
            for i in np.flatnonzero(pairs)
        }
        rr = self.names.index("channel.run_round")
        rounds = dur[name == rr] / 1e3
        percentiles = (
            dict(zip(("p50_us", "p99_us"), np.percentile(rounds, [50, 99]).tolist()))
            if rounds.size
            else {"p50_us": 0.0, "p99_us": 0.0}
        )
        return {
            "spans": spans,
            "by_parent": by_parent,
            "counters": dict(self.counters),
            "run_round": percentiles,
            "span_total": int(name.size),
        }

    def dump(self, path: str) -> None:
        """Write every span to ``path``: per span the name index (into
        ``names``), parent span index (-1 at the root), start, end and self
        time in ns; ``job`` identifies the job all of them belong to."""
        np.savez(path, names=np.array(self.names), job=self.job_id, **self.arrays())


def install(job_id: int) -> Tracer:
    """Wrap the public functions of every traced aircomp module."""
    modules = {layer: importlib.import_module(f"aircomp.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("aircomp"), *modules.values()]
    tracer = Tracer(job_id)
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if (
                attr.startswith("_")
                or not inspect.isfunction(obj)
                or obj.__module__ != module.__name__
            ):
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", layer, obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)
    rng = modules["numerics"].Rng
    rng.__init__ = tracer.wrap("numerics.Rng", "numerics", rng.__init__)
    return tracer
