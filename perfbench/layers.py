"""Per-layer metrics of a traced run, named by module.

install() wraps the program's public entry points at the module
attributes where their callers look them up.  layer_metrics() turns the
recorded spans into the per-layer metrics listed in BENCHMARK.json.
Spans hang under two kinds of root that the benchmark opens itself:
"setup" (one per set-up) and "unit" (one per timed unit, attrs["key"]).
A "per pass" figure is, for each unit key, the median over that key's
units, summed over keys.  A layer a workload does not run reads 0.
"""

from __future__ import annotations

import time
from collections import defaultdict

from scra import codec, construct, simulate
from scra import density_evolution as de

import checks
from spans import median, percentile, self_time, tail_percentile
from workloads import COUPLED, DE_SEARCHES

BANDS = ("below", "near", "above")
STEP_EPS = 0.49
STEP_WARM = 100  # steps from the initial state to the fixed state de.step_us times


def install(tracer) -> None:
    w = tracer.wrap
    w(construct, "build_sc_ra", "construct.build")
    w(construct, "build_sc_ldpc", "construct.build")
    w(construct, "save_descriptor", "construct.save_descriptor")
    w(construct, "export_alist", "construct.export_alist")
    w(construct, "load_descriptor", "construct.load_descriptor")
    w(codec, "encode", "codec.encode")
    w(simulate, "run_sweep", "simulate.run_sweep", lambda a, r: {"kept": int(r.trials.sum())})
    w(simulate.SimResult, "to_csv", "simulate.to_csv")
    w(simulate, "code_build_id", "simulate.code_build_id")
    w(simulate, "trial_stream", "simulate.trial_stream")
    w(simulate, "transmit_bec", "codec.transmit_bec", lambda a, r: {"eps": float(a[1])})
    w(simulate, "decode_peel", "codec.decode_peel",
      lambda a, r: {"sweeps": r.iterations, "stalled": not r.recovered})
    w(de, "threshold", "de.threshold",
      lambda a, r: {"capped": len(checks.capped_probes(r.probes, de.MAX_ITERS))})
    w(de, "de_run", "de.de_run", lambda a, r: {"iters": r.iterations})


def _dur(s) -> float:
    return s[4] - s[3]


def _order(s) -> tuple[int, int]:
    pid, seq = s[0].split(".")
    return int(pid), int(seq)


def group_by_root(spans) -> list[tuple[tuple, list[tuple]]]:
    """(root span, its descendants) for every root span."""
    by_id = {s[0]: s for s in spans}
    groups: dict[str, list] = {s[0]: [] for s in spans if s[1] is None}
    for s in spans:
        r = s
        while r[1] is not None:
            r = by_id[r[1]]
        if r is not s:
            groups[r[0]].append(s)
    return [(by_id[rid], sorted(desc, key=_order)) for rid, desc in groups.items()]


def step_us(models: dict, calls: int = 200, batches: int = 11) -> dict:
    """Median µs per model.step call on each coupled model's fixed mid-wave state.

    The state is STEP_WARM steps from the start at STEP_EPS; building it is
    not timed.
    """
    out = {}
    for kind in COUPLED:
        step, s = models[kind].step, models[kind].initial_state(STEP_EPS)
        for _ in range(STEP_WARM):
            s = step(s)
        per_call = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                step(s)
            per_call.append((time.perf_counter() - t0) / calls)
        out[f"de.step_us.{kind}"] = median(per_call) * 1e6
    return out


def layer_metrics(spans, workload) -> dict:
    groups = group_by_root(spans)
    setups = [desc for root, desc in groups if root[2] == "setup"]
    units = [(root[5]["key"], desc) for root, desc in groups if root[2] == "unit"]

    def per_setup(name: str) -> float:
        return median([sum(_dur(s) for s in desc if s[2] == name) for desc in setups])

    def per_pass(fn) -> float:
        by_key = defaultdict(list)
        for key, desc in units:
            by_key[key].append(fn(desc))
        return sum(median(v) for v in by_key.values())

    def named(desc, name):
        return [s for s in desc if s[2] == name]

    m = {
        "construct.build_s": per_setup("construct.build"),
        "construct.save_descriptor_s": per_setup("construct.save_descriptor"),
        "construct.export_alist_s": per_setup("construct.export_alist"),
        "construct.load_descriptor_s": per_setup("construct.load_descriptor"),
        "codec.encode_ms": per_setup("codec.encode") * 1e3,
    }
    m.update({f"de.step_us.{kind}": 0.0 for kind in COUPLED})  # timed apart by step_us()

    # Each decode follows the transmit of the same trial in the same process.
    peel = {b: [] for b in BANDS}
    transmit, streams = [], []
    for _, desc in units:
        last_eps = {}
        for s in desc:
            pid = s[0].split(".")[0]
            if s[2] == "codec.transmit_bec":
                last_eps[pid] = s[5]["eps"]
                transmit.append(_dur(s))
            elif s[2] == "simulate.trial_stream":
                streams.append(_dur(s))
            elif s[2] == "codec.decode_peel":
                peel[workload.band(last_eps[pid])].append(s)
    all_peel = [s for b in BANDS for s in peel[b]]

    def pct(values, p):
        return percentile(values, p) if values else 0.0

    for b in BANDS:
        durs = [_dur(s) for s in peel[b]]
        sweeps = sum(s[5]["sweeps"] for s in peel[b])
        m[f"codec.peel_ms.p50.{b}"] = pct(durs, 50) * 1e3
        m[f"codec.peel_ms.p90.{b}"] = pct(durs, 90) * 1e3
        m[f"codec.peel_sweeps_mean.{b}"] = sweeps / len(durs) if durs else 0.0
        m[f"codec.peel_us_per_sweep.{b}"] = sum(durs) / sweeps * 1e6 if sweeps else 0.0
        m[f"codec.peel_n.{b}"] = len(durs)
    m["codec.peel_ms.p99"] = pct([_dur(s) for s in all_peel], 99) * 1e3
    m["codec.stalled_frac"] = (
        sum(s[5]["stalled"] for s in all_peel) / len(all_peel) if all_peel else 0.0
    )
    m["codec.transmit_us.p50"] = pct(transmit, 50) * 1e6
    m["simulate.trial_stream_us.p50"] = pct(streams, 50) * 1e6

    def sweep_self(desc):
        total = 0.0
        for rs in named(desc, "simulate.run_sweep"):
            total += self_time(rs, [s for s in desc if s[1] == rs[0]])
        return total

    decoded = per_pass(lambda d: len(named(d, "codec.decode_peel")))
    kept = per_pass(lambda d: sum(s[5]["kept"] for s in named(d, "simulate.run_sweep")))
    m["simulate.build_id_s"] = per_pass(lambda d: sum(map(_dur, named(d, "simulate.code_build_id"))))
    m["simulate.self_s"] = per_pass(sweep_self)
    m["simulate.trials_decoded"] = decoded
    m["simulate.trials_kept"] = kept
    m["simulate.kept_ratio"] = kept / decoded if decoded else 0.0

    runs = [s for _, desc in units for s in named(desc, "de.de_run")]
    iters = sum(s[5]["iters"] for s in runs)
    for kind, _, _ in DE_SEARCHES:
        m[f"de.search_s.{kind}"] = median(
            [_dur(s) for key, desc in units if key == kind for s in named(desc, "de.threshold")]
        )
    m["de.probes"] = per_pass(lambda d: len(named(d, "de.de_run")))
    m["de.iters"] = per_pass(lambda d: sum(s[5]["iters"] for s in named(d, "de.de_run")))
    m["de.capped_probes"] = per_pass(lambda d: sum(s[5]["capped"] for s in named(d, "de.threshold")))
    m["de.us_per_iter"] = sum(map(_dur, runs)) / iters * 1e6 if iters else 0.0
    return m


def trace_errors(m: dict) -> list[str]:
    """A p90 band or the p99 with fewer than 10 samples beyond it, or lost worker spans."""
    counts = {b: m[f"codec.peel_n.{b}"] for b in BANDS}
    if not sum(counts.values()):
        return []
    need = [(f"codec.peel_ms.p90.{b}", n, 90.0) for b, n in counts.items()]
    need.append(("codec.peel_ms.p99", sum(counts.values()), 99.0))
    errors = [
        f"{name} rests on {n} samples, too few for its percentile"
        for name, n, p in need
        if (tail_percentile(n) or 0.0) < p
    ]
    if m["simulate.trials_decoded"] < m["simulate.trials_kept"]:
        errors.append("fewer decode_peel spans than trials kept: worker spans were lost")
    return errors
