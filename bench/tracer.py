"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent index). Stage spans are parents; the
layer calls inside them are children. Nothing is written until the run
ends. ``NullTracer`` has the same interface and records nothing, so the
untraced run pays one extra Python call per layer call.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np


class NullTracer:
    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def _begin(self, name):
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(i)
        return i

    def call(self, name, fn, *args, **kwargs):
        i = self._begin(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[i] = perf_counter()
            self.starts[i] = t0
            self._open.pop()

    @contextmanager
    def span(self, name):
        i = self._begin(name)
        self.starts[i] = perf_counter()
        try:
            yield
        finally:
            self.ends[i] = perf_counter()
            self._open.pop()

    def self_times(self):
        """Per-span duration minus the time its child spans cover."""
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        own = dur.copy()
        parents = np.asarray(self.parents, dtype=int)
        has_parent = parents >= 0
        np.subtract.at(own, parents[has_parent], dur[has_parent])
        return own

    def summary(self, wall_s):
        """{name: (calls, self ms total, self ms per call p50, share of wall)}."""
        own = self.self_times()
        by_name = {}
        for name, t in zip(self.names, own):
            by_name.setdefault(name, []).append(t)
        out = {}
        for name, ts in by_name.items():
            ts = np.asarray(ts)
            out[name] = (len(ts), 1e3 * ts.sum(), 1e3 * float(np.median(ts)), ts.sum() / wall_s)
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent"],
                    "spans": [
                        [n, s, e, p]
                        for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
                    ],
                },
                fh,
            )
