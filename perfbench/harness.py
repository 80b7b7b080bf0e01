"""Runs one workload: repeated set-ups, timed units, and the traced run."""

from __future__ import annotations

import os
import platform
import resource
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy

import layers
from checks import csv_trials
from hostspeed import HostSpeed
from spans import Tracer

SETUP_REPS = 3
SETUP_BATCH_S = 0.02  # before each unit, a cheap set-up repeats until this much time has passed


def environment(workload: str, seed: int, trace: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "trace": trace, "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any exited child (Linux: KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


class Outcomes:
    """Checks unit results and counts operations attempted and failed.

    The first result of each unit is checked.  Repeats of a unit do the same
    work, so they count no new operations; each must match the first.
    """

    def __init__(self, workload, golden: dict | None):
        self.workload, self.golden = workload, golden
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.first: dict[str, object] = {}

    def __call__(self, key: str, out) -> None:
        attempted, failed, errors, output = self.workload.check(key, out, self.golden)
        if key not in self.first:
            self.first[key] = output
            self.attempted += attempted
            self.failed += failed
            self.errors += errors
        elif output != self.first[key]:
            self.errors.append(f"{key}: output differs between passes of one run")


def wall(t0: float, t1: float) -> float:
    return t1 - t0


def timed_setup(workload, seed: int, out_dir: str, times: list, tracer=None, elapsed=wall):
    """One set-up; appends its elapsed(start, end) to times. Returns (state, byte counts, hard errors)."""
    t0 = time.perf_counter()
    with tracer.span("setup") if tracer else nullcontext():
        out = workload.setup(seed, out_dir)
    times.append(elapsed(t0, time.perf_counter()))
    return out


def run_units(units, budget: float, on_result, min_passes: int = 1, tracer=None,
              between=None, elapsed=wall) -> tuple[dict, dict]:
    """Cycle through the units until the next one would end past the budget.

    At least min_passes passes run.  Returns elapsed(start, end) of each
    unit, per unit key, of the untraced and of the traced units; the
    budget counts wall time.  Each result is checked by on_result
    outside the timed region.  between(), if given, runs before
    each unit, inside the budget.  With a tracer, the unit at position i of
    pass p runs traced when p + i is even: neighbouring units and the
    passes of each key alternate, so both sides see the same host speed.
    """
    plain, traced = defaultdict(list), defaultdict(list)
    start, passes = time.perf_counter(), 0
    while True:
        for i, (key, fn) in enumerate(units):
            on = tracer is not None and (passes + i) % 2 == 0
            times = traced if on else plain
            last = times[key][-1] if times[key] else 0.0  # elapsed() is at most the wall time
            if passes >= min_passes and time.perf_counter() - start + last > budget:
                return plain, traced
            if between is not None:
                between()
            if on:
                layers.install(tracer)
            try:
                t0 = time.perf_counter()
                with tracer.span("unit", key=key) if on else nullcontext():
                    out = fn()
                times[key].append(elapsed(t0, time.perf_counter()))
            finally:
                if on:
                    tracer.unwrap()
            on_result(key, out)
        passes += 1


def pass_seconds(times: dict) -> float:
    """One pass: the mean wall time of each unit key, summed over keys.

    A mean, not a median: on a shared host the CPU speed switches between
    levels every few seconds, and a median of unit times jumps with it,
    while a mean over the run follows the share of time at each level.
    """
    return sum(sum(v) / len(v) for v in times.values())


def end_to_end(workload, seed: int, seconds: float, out_dir: str, check) -> tuple[dict, list, list]:
    """(metrics, hard errors, info lines) of an untraced run.

    Set-up runs SETUP_REPS times first, then before each unit until
    SETUP_BATCH_S has passed (at least once), so that its samples spread
    over the same stretch of time as the units.  setup_s is their mean,
    for the reason pass_seconds gives.  Both times are corrected for the
    host speed (see hostspeed.py); the undivided ones are info lines.
    With pool workers the probes would wait for the CPUs the workers
    hold, so the host speed is then sampled during set-ups only.
    """
    setups, errors = [], []
    host = HostSpeed()
    solo = workload.jobs == 1

    def set_up():
        with nullcontext() if solo else host:
            state, _, errs = timed_setup(workload, seed, out_dir, setups, elapsed=host.elapsed)
        errors.extend(errs)
        return state

    def batch():
        stop = time.perf_counter() + SETUP_BATCH_S
        set_up()
        while time.perf_counter() < stop:
            set_up()

    with host if solo else nullcontext():
        for _ in range(SETUP_REPS):
            state = set_up()
        times, _ = run_units(workload.units(state, seed, out_dir), seconds, check,
                             between=batch, elapsed=host.elapsed)
    slowdown = host.slowdown()
    raw_setup, raw_pass = sum(setups) / len(setups), pass_seconds(times)
    metrics = {
        "setup_s": raw_setup / slowdown,
        "pass_s": raw_pass / slowdown,
        "peak_rss_mb": peak_rss_mb(),
        "ok_ops_frac": (check.attempted - check.failed) / check.attempted,
    }
    info = [f"unit {k}: n={len(v)} mean={sum(v) / len(v):.4f} s (not divided by the slowdown)"
            for k, v in times.items()]
    info.append(f"set-ups: n={len(setups)}")
    info.append(f"host slowdown = {slowdown:.4f} over {len(host.starts)} probes;"
                f" undivided setup_s = {raw_setup:.6g} s, pass_s = {raw_pass:.6g} s")
    if workload.sweeps:
        kept = sum(csv_trials(t) for t in check.first.values())
        info.append(f"trials_per_s = {kept / metrics['pass_s']:.6g} 1/s ({kept} trials kept per pass)")
    return metrics, errors, info


def traced(workload, seed: int, seconds: float, out_dir: str, check) -> tuple[dict, list, list]:
    """(per-layer metrics, hard errors, info lines) of a run whose units alternate traced and untraced."""
    tracer = Tracer(out_dir)
    layers.install(tracer)
    try:
        for _ in range(SETUP_REPS):
            state, sizes, errors = timed_setup(workload, seed, out_dir, [], tracer)
    finally:
        tracer.unwrap()
    units = workload.units(state, seed, out_dir)
    plain, timed = run_units(units, seconds, check, 2 * workload.traced_passes, tracer)
    workers = tracer.collect_workers()
    tracer.dump(os.path.join(out_dir, "spans.json"))
    metrics = layers.layer_metrics(tracer.spans, workload)
    metrics.update({f"construct.{k}": v for k, v in sizes.items()})
    if not workload.sweeps:
        metrics.update(layers.step_us(state))
    base = pass_seconds(plain)
    metrics["trace.overhead_s"] = pass_seconds(timed) - base
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / base
    info = [f"spans: {len(tracer.spans)}, from {workers} pool workers"]
    info += [f"unit {k}: untraced n={len(plain[k])}, traced n={len(timed[k])}" for k in plain]
    return metrics, errors + layers.trace_errors(metrics), info
