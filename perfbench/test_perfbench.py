"""Tests of the benchmark's own helpers: python -m pytest perfbench"""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, covered, percentile, self_time, tail_percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("n,expect", [(0, None), (99, None), (100, 90.0), (999, 90.0),
                                      (1000, 99.0), (9999, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expect):
    assert tail_percentile(n) == expect


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 99) == 99
    assert percentile([7.0], 99) == 7.0


def test_self_time_subtracts_the_union_of_children():
    parent = ("p", None, "run", 0.0, 10.0, {})
    kids = [("a", "p", "x", 1.0, 3.0, {}), ("b", "p", "x", 2.0, 5.0, {}),  # overlap: 1..5
            ("c", "p", "x", 8.0, 12.0, {})]  # clipped to 8..10
    assert covered(0.0, 10.0, [(k[3], k[4]) for k in kids]) == pytest.approx(6.0)
    assert self_time(parent, kids) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_tracer_records_parents_and_restores_attributes():
    mod = types.SimpleNamespace(inner=lambda x: x + 1)
    mod.outer = lambda x: mod.inner(x) * 2
    original_inner = mod.inner
    tracer = Tracer(".")
    tracer.wrap(mod, "inner", "inner", lambda a, r: {"arg": a[0]})
    tracer.wrap(mod, "outer", "outer")
    with tracer.span("unit", key="k"):
        assert mod.outer(3) == 8
    tracer.unwrap()
    assert mod.inner is original_inner
    by_name = {s[2]: s for s in tracer.spans}
    assert by_name["inner"][1] == by_name["outer"][0]
    assert by_name["outer"][1] == by_name["unit"][0]
    assert by_name["inner"][5] == {"arg": 3}
    [(root, desc)] = layers.group_by_root(tracer.spans)
    assert root[5] == {"key": "k"} and [s[2] for s in desc] == ["outer", "inner"]  # start order


def probes_result(lo, hi, probes):
    return types.SimpleNamespace(lo=lo, hi=hi, probes=probes)


def test_capped_probe_detection():
    probes = [(0.0, True, 3), (1.0, False, 7), (0.5, False, 20000), (0.25, True, 20000)]
    assert checks.capped_probes(probes, 20000) == [(0.5, False, 20000)]


def test_bracket_with_capped_hi_is_a_failed_op_not_a_hard_error():
    r = probes_result(0.49755, 0.4976, [(0.0, True, 1), (1.0, False, 5),
                                        (0.49755, True, 900), (0.4976, False, 20000)])
    assert checks.check_bracket(r, 0.497575, 1e-4, 20000) == (False, [])
    r.probes[-1] = (0.4976, False, 400)
    assert checks.check_bracket(r, 0.497575, 1e-4, 20000) == (True, [])


def test_bracket_hard_errors():
    wide = probes_result(0.49, 0.50, [(0.49, True, 5), (0.50, False, 5)])
    assert any("wider" in e for e in checks.check_bracket(wide, 0.495, 1e-4, 20000)[1])
    lo_failed = probes_result(0.49755, 0.4976, [(0.49755, False, 5), (0.4976, False, 5)])
    assert any("converged" in e for e in checks.check_bracket(lo_failed, 0.497575, 1e-4, 20000)[1])
    far = probes_result(0.49755, 0.4976, [(0.49755, True, 5), (0.4976, False, 5)])
    assert any("pin" in e for e in checks.check_bracket(far, 0.4970, 1e-4, 20000)[1])


CSV = (
    "# scra-sim v1\n# build=0123456789ab\n# max_iters=1000\n# max_trials=100\n"
    "# max_word_errors=50\n# message_bits=10\n"
    "eps,trials,word_err,wer,wer_lo,wer_hi,bit_err_msg,ber_msg,ber_all,mean_iters\n"
    "0.430000,100,0,0,0,0.037,0,0,0,20\n"
    "0.490000,57,50,0.877,0.76,0.94,300,0.526,0.4,60\n"
)


def test_digest_ignores_the_build_line_only():
    golden = checks.csv_digest(CSV)
    assert checks.failed_rows_vs_golden(CSV.replace("0123456789ab", "ffffffffffff"), golden) == 0
    assert checks.failed_rows_vs_golden(CSV.replace(",60\n", ",61\n"), golden) == 1
    assert checks.failed_rows_vs_golden(CSV.replace("max_iters=1000", "max_iters=999"), golden) == 2


def test_seed_free_invariants():
    assert checks.failed_rows_by_invariants(CSV) == 0
    assert checks.csv_trials(CSV) == 157
    assert checks.failed_rows_by_invariants(CSV.replace("0.490000,57,50", "0.490000,57,49")) == 1
    assert checks.failed_rows_by_invariants(CSV.replace("0.430000,100,0", "0.430000,100,101")) == 1
    assert checks.failed_rows_by_invariants(CSV.replace(",300,", ",571,")) == 1


def test_layer_metrics_cover_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(layers.layer_metrics([], WORKLOADS["waterfall"]))
    names |= {"construct.descriptor_bytes", "construct.alist_bytes",
              "trace.overhead_s", "trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_traced_units_alternate_with_untraced(tmp_path):
    import harness

    tracer = Tracer(str(tmp_path))
    units = [("a", lambda: "A"), ("b", lambda: "B"), ("c", lambda: "C")]
    seen = []
    plain, traced = harness.run_units(units, 0.0, lambda k, out: seen.append(k), 2, tracer)
    assert seen == ["a", "b", "c"] * 2
    assert {k: len(v) for k, v in traced.items()} == {"a": 1, "b": 1, "c": 1}
    assert {k: len(v) for k, v in plain.items()} == {"a": 1, "b": 1, "c": 1}
    assert [s[5]["key"] for s in tracer.spans] == ["a", "c", "b"]  # units 0, 2 of pass 0; 1 of pass 1
    assert not tracer._patches


def test_host_speed_subtracts_probes_and_scales_by_their_mean():
    host = hostspeed.HostSpeed()
    host.starts = [1.0, 2.0, 3.0]
    host.cumulative = [0.0, 0.1, 0.2, 0.5]  # probes of 0.1, 0.1 and 0.3 s
    assert host.elapsed(0.0, 10.0) == pytest.approx(9.5)
    assert host.elapsed(1.5, 3.0) == pytest.approx(1.4)  # the probe at 3.0 is outside
    assert host.elapsed(4.0, 5.0) == pytest.approx(1.0)
    assert host.slowdown() == pytest.approx(0.5 / 3 / hostspeed.REFERENCE_PROBE_S)
    assert hostspeed.HostSpeed().slowdown() == 1.0


def test_host_speed_samples_only_while_active():
    import time

    with hostspeed.HostSpeed() as host:
        end = time.perf_counter() + 5 * hostspeed.PROBE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    n = len(host.starts)
    assert n >= 2
    time.sleep(3 * hostspeed.PROBE_INTERVAL_S)
    assert len(host.starts) == n
