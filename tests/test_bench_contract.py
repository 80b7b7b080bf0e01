"""The benchmark's hold on the program: every attribute it wraps or calls exists.

perfbench/ wraps module attributes by name and drives the public entry
points directly, so a rename that the rest of the suite survives would
break only a benchmark run.  This installs the tracer and runs one
set-up of each sweep workload to catch that in the test suite: build,
save, alist export, reload, equality with the built code and encoding,
on the large fig5 codes too.  It also calls each wrapped attribute whose
span the benchmark describes, so that the span attributes the per-layer
metrics read are checked as well, and times one DE step of each coupled
model as the thresholds workload does.
"""

import sys
from pathlib import Path

import numpy as np

from scra import codec, construct, simulate
from scra import density_evolution as de
from scra.ensembles import ScRaParams

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_entry_points_exist(tmp_path):
    tracer = Tracer(str(tmp_path))
    try:
        layers.install(tracer)
    finally:
        tracer.unwrap()
    for name, codes in (("waterfall", ["ra_M100"]), ("fig5_pool", ["ra_M300", "ldpc_M660"])):
        workload = WORKLOADS[name]
        state, sizes, errors = workload.setup(0, str(tmp_path))
        assert errors == []
        assert sizes["descriptor_bytes"] > 0 and sizes["alist_bytes"] > 0
        assert [key for key, _ in workload.units(state, 0, str(tmp_path))] == codes


def test_benchmark_spans_carry_their_attributes(tmp_path):
    tracer = Tracer(str(tmp_path))
    try:
        layers.install(tracer)
        code = construct.build_sc_ra(ScRaParams(3, 3, 2, 6), 0)
        word = simulate.transmit_bec(np.zeros(code.n, dtype=np.int8), 0.4, np.random.default_rng(0))
        simulate.decode_peel(code, word)
        simulate.run_sweep(code, simulate.SweepPlan((0.3, 0.5), max_trials=4, seed=1), jobs=1)
        de.threshold(de.make_de_model("ra-uncoupled", ScRaParams(6, 6, 0)), precision=1e-2)
    finally:
        tracer.unwrap()
    attrs = {}
    for span in tracer.spans:
        attrs.setdefault(span[2], []).append(span[5])
    expected = {
        "codec.transmit_bec": {"eps"},
        "codec.decode_peel": {"sweeps", "stalled"},
        "simulate.run_sweep": {"kept"},
        "de.threshold": {"capped"},
        "de.de_run": {"iters"},
    }
    for name, keys in expected.items():
        assert attrs.get(name), f"no {name} span recorded"
        assert all(keys <= set(a) for a in attrs[name]), (name, attrs[name])
    # the sweep draws every trial through the wrapped channel, and peels none through the
    # wrapped decode_peel: its lanes peel in simulate._trial_rows
    assert len(attrs["codec.decode_peel"]) == 1
    assert len(attrs["codec.transmit_bec"]) == 1 + 2 * 4
    assert attrs["simulate.run_sweep"] == [{"kept": 8}]


def test_benchmark_times_a_de_step(tmp_path):
    """layers.step_us steps a DeState through model.step on the thresholds set-up models,
    a path no threshold search takes."""
    models, _, errors = WORKLOADS["thresholds"].setup(0, str(tmp_path))
    assert errors == []
    times = layers.step_us(models, calls=1, batches=1)
    kinds = ("ra-w", "ldpc-w", "ra-proto", "ldpc-proto")
    assert sorted(times) == sorted(f"de.step_us.{kind}" for kind in kinds)
    assert all(t > 0 for t in times.values())
