"""In-memory span tracing and the statistics the benchmark reports.

A span is (id, parent, name, start, end, attrs).  Times come from
time.perf_counter, which is CLOCK_MONOTONIC on Linux and therefore shared
by the benchmark process and its forked pool workers.  Spans stay in
memory; a forked worker writes its own spans to one JSON file when it
exits, and the parent merges those files with collect_workers().
"""

from __future__ import annotations

import functools
import glob
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from multiprocessing.util import Finalize

TAIL_SAMPLES = 10  # a reported percentile needs at least this many samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile in TAIL_PERCENTILES with >= TAIL_SAMPLES of n samples beyond it."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; p=50 is the lower median for even counts."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_time(span, children) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (span[4] - span[3]) - covered(span[3], span[4], [(c[3], c[4]) for c in children])


class Tracer:
    """Records spans around wrapped module attributes.

    wrap() replaces an attribute with a traced wrapper and remembers the
    original; unwrap() restores every patched attribute.  In a forked
    child the inherited stack still names the span that was open at fork
    time, so worker spans get that span as their parent.
    """

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._stack: list[str] = []
        self._seq = 0
        self._patches: list[tuple] = []

    def _enter_process(self) -> None:
        pid = os.getpid()
        if pid != self.pid:  # first span in a forked worker
            self.pid, self.spans, self._seq = pid, [], 0
            Finalize(None, self._write_worker_file, exitpriority=10)

    def _write_worker_file(self) -> None:
        with open(os.path.join(self.out_dir, f"spans-{self.pid}.json"), "w") as fh:
            json.dump(self.spans, fh)

    @contextmanager
    def span(self, name: str, **attrs):
        self._enter_process()
        self._seq += 1
        sid = f"{self.pid}.{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs))

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Trace calls of owner.attr; describe(args, result) adds span attributes."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, result))
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def collect_workers(self) -> int:
        """Merge and delete the span files of exited workers; returns how many."""
        paths = glob.glob(os.path.join(self.out_dir, "spans-*.json"))
        for path in paths:
            with open(path) as fh:
                self.spans.extend(tuple(s) for s in json.load(fh))
            os.remove(path)
        return len(paths)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)
