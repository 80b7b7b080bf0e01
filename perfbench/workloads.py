"""The three benchmark workloads and the public entry points they drive.

Every call into the program goes through a module attribute
(`construct.build_sc_ra`, `simulate.run_sweep`, ...), so the traced run can
wrap the same attributes the `scra` CLI and the program's own callers use.

A workload has a set-up, a list of units and a check.  A unit is one
timed piece of fixed work: one code's sweep plus its CSV write, or one
threshold search.  One pass is every unit once.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from scra import codec, construct, simulate
from scra import density_evolution as de
from scra.ensembles import ScLdpcParams, ScRaParams

import checks


@dataclass(frozen=True)
class Code:
    name: str
    family: str
    params: dict

    def build(self, seed: int):
        if self.family == "ra":
            return construct.build_sc_ra(ScRaParams(**self.params), seed)
        return construct.build_sc_ldpc(ScLdpcParams(**self.params), seed)


@dataclass(frozen=True)
class SweepWorkload:
    """Build, save, reload and sweep codes as `scra construct` + `scra simulate` do.

    The code construction seed and the sweep's channel seed are both the
    workload seed.  near = [lo, hi) is the eps band of the waterfall for
    these codes at the pinned seeds; below and above are the rest.
    """

    sweeps: ClassVar[bool] = True

    name: str
    codes: tuple[Code, ...]
    eps: tuple[float, float, float]
    trials: int
    word_errors: int | None
    jobs: int
    near: tuple[float, float]
    traced_passes: int  # enough decodes for a p99 with 10 samples beyond it

    def band(self, eps: float) -> str:
        lo, hi = self.near
        return "below" if eps < lo else "near" if eps < hi else "above"

    def setup(self, seed: int, out_dir: str) -> tuple[dict, dict, list[str]]:
        """(loaded codes by name, byte counts, hard errors)."""
        loaded, sizes, errors = {}, {"descriptor_bytes": 0, "alist_bytes": 0}, []
        for code in self.codes:
            built = code.build(seed)
            base = os.path.join(out_dir, code.name)
            construct.save_descriptor(built, base + ".json")
            construct.export_alist(built, base + ".alist")
            c = construct.load_descriptor(base + ".json")
            sizes["descriptor_bytes"] += os.path.getsize(base + ".json")
            sizes["alist_bytes"] += os.path.getsize(base + ".alist")
            if c != built:
                errors.append(f"{code.name}: reloaded descriptor differs from the built code")
            if c.family == "ra":
                msg = np.random.default_rng(seed).integers(0, 2, c.k, dtype=np.int8)
                word = codec.encode(c, msg)
                if codec.syndrome(c, word).any():
                    errors.append(f"{code.name}: encoded word has a nonzero syndrome")
            loaded[code.name] = c
        return loaded, sizes, errors

    def units(self, state: dict, seed: int, out_dir: str) -> list[tuple[str, object]]:
        plan = simulate.SweepPlan(
            simulate.eps_range(*self.eps), self.trials, self.word_errors, 1000, seed
        )

        def unit(name):
            def run():
                path = os.path.join(out_dir, name + ".csv")
                simulate.run_sweep(state[name], plan, jobs=self.jobs).to_csv(path)
                return path
            return run

        return [(c.name, unit(c.name)) for c in self.codes]

    def check(self, key: str, path: str, golden: dict | None) -> tuple[int, int, list[str], str]:
        """(rows attempted, rows failed, hard errors, CSV text) of one sweep."""
        with open(path) as fh:
            text = fh.read()
        rows = len(checks.csv_digest(text)["rows"])
        if golden is not None:
            failed, what = checks.failed_rows_vs_golden(text, golden[key]), "differ from the pinned digest"
        else:
            failed, what = checks.failed_rows_by_invariants(text), "break an invariant"
        errors = [f"{key}: {failed} of {rows} rows {what}"] if failed else []
        return rows, failed, errors, text


# Thresholds pinned in tests/test_de.py (bisection midpoints at precision 1e-5).
DE_SEARCHES = (
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6), 0.497575),
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4), 0.497605),
    ("ra-proto", ScRaParams(6, 6, 16, M=6), 0.497625),
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8), 0.497665),
    ("ra-uncoupled", ScRaParams(6, 6, 0, M=6), 0.412425),
)
COUPLED = tuple(kind for kind, _, _ in DE_SEARCHES if kind != "ra-uncoupled")  # these have a wave
DE_PRECISION = 1e-4


@dataclass(frozen=True)
class ThresholdWorkload:
    """Threshold searches as `scra de threshold` runs them, at the default budget.

    DE takes no random input; the seed sets the order of the searches.  The
    set-up builds the five models.
    """

    sweeps: ClassVar[bool] = False
    jobs: ClassVar[int] = 1

    name: str
    traced_passes: int = 1

    def setup(self, seed: int, out_dir: str) -> tuple[dict, dict, list[str]]:
        models = {kind: de.make_de_model(kind, p) for kind, p, _ in DE_SEARCHES}
        return models, {"descriptor_bytes": 0, "alist_bytes": 0}, []

    def units(self, state: dict, seed: int, out_dir: str) -> list[tuple[str, object]]:
        order = [kind for kind, _, _ in DE_SEARCHES]
        random.Random(seed).shuffle(order)
        return [(k, lambda m=state[k]: de.threshold(m, precision=DE_PRECISION)) for k in order]

    def check(self, key: str, result, golden) -> tuple[int, int, list[str], tuple]:
        """(1 search, 1 if its hi end is a capped probe, hard errors, bracket and probes)."""
        pin = next(pin for kind, _, pin in DE_SEARCHES if kind == key)
        hi_verified, errors = checks.check_bracket(result, pin, DE_PRECISION, de.MAX_ITERS)
        return 1, int(not hi_verified), [f"{key}: {e}" for e in errors], (result.lo, result.hi, result.probes)


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload(
            name="waterfall",
            codes=(Code("ra_M100", "ra", dict(q=6, a=6, L=16, M=100)),),
            eps=(0.43, 0.50, 0.005),
            trials=50,
            word_errors=None,
            jobs=1,
            near=(0.4575, 0.4875),
            traced_passes=2,
        ),
        SweepWorkload(
            name="fig5_pool",
            codes=(
                Code("ra_M300", "ra", dict(q=6, a=6, L=16, M=300)),
                Code("ldpc_M660", "ldpc", dict(dl=4, dr=8, L=16, M=660)),
            ),
            eps=(0.43, 0.50, 0.01),
            trials=100,
            word_errors=50,
            jobs=2,
            near=(0.465, 0.495),
            traced_passes=1,
        ),
        ThresholdWorkload(name="thresholds"),
    )
}
