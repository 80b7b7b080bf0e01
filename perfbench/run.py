"""scra benchmark: one workload per run, metrics as JSON on the last stdout line.

    python3 perfbench/run.py --workload waterfall --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer metrics of a separately
traced run.  The last line is {"correct", "attempted", "failed",
"metrics"}.  Metric meanings are in perfbench/METRICS.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import scra
    except ImportError as exc:
        print(f"perfbench: cannot import scra from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(scra.__file__).resolve().parent.parent != src:
        print(f"perfbench: scra was imported from {scra.__file__}, not {src}", file=sys.stderr)
        return 2

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    with open(GOLDEN) as fh:
        golden = json.load(fh).get(workload.name, {}).get(str(args.seed))

    out_dir = ROOT / ".perfbench_out" / f"{workload.name}-t{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    check = harness.Outcomes(workload, golden)
    run, section = (harness.traced, "per_layer") if args.trace else (harness.end_to_end, "end_to_end")
    table, errors, info = run(workload, args.seed, args.seconds, str(out_dir), check)
    errors += check.errors

    metrics = {}
    for m in spec[section]:
        value = table[m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value:.6g} {m['unit']}")
    for line in info:
        print(line)
    print("env " + json.dumps(harness.environment(workload.name, args.seed, args.trace)))
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": check.attempted, "failed": check.failed, "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
