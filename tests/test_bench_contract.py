"""The benchmark's hold on the program: every attribute it wraps or calls exists.

perfbench/ wraps module attributes by name and drives the public entry
points directly, so a rename that the rest of the suite survives would
break only a benchmark run.  This installs the tracer and runs one
set-up of each sweep workload to catch that in the test suite: build,
save, alist export, reload, equality with the built code and encoding,
on the large fig5 codes too.
"""

import sys
from pathlib import Path

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
