"""Release gate: one test per published behavior guarantee.

Each test prints a single PASS/FAIL line with the measured quantity so a
plain `pytest -s tests/test_acceptance.py` doubles as a report.
"""

from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from oracles import decode_ml_oracle, h_dense, peel_trace, proto_step_reference
from scra.cli import main as cli_main
from scra.codec import (
    FULLY_RECOVERED,
    decode_peel,
    encode,
    transmit_bec,
)
from scra.construct import build_sc_ldpc, build_sc_ra
from scra.density_evolution import make_de_model, sweep_fig4, threshold
from scra.ensembles import (
    ScLdpcParams,
    ScRaParams,
    design_rate,
)
from scra.simulate import SweepPlan, eps_range, run_sweep, trial_stream, waterfall_crossing


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def mid(res):
    return 0.5 * (res.lo + res.hi)


@pytest.fixture(scope="module")
def thr_ra_w():
    return threshold(make_de_model("ra-w", ScRaParams(6, 6, 16, w=6)), precision=1e-4)


@pytest.fixture(scope="module")
def thr_ldpc_w():
    return threshold(make_de_model("ldpc-w", ScLdpcParams(4, 8, 16, M=2, w=4)), precision=1e-4)


@pytest.fixture(scope="module")
def thr_uncoupled():
    model = make_de_model("ra-uncoupled", ScRaParams(6, 6, 0))
    return threshold(model, precision=1e-4)


@pytest.fixture(scope="module")
def thr_proto():
    return threshold(make_de_model("ra-proto", ScRaParams(6, 6, 16)), precision=1e-4)


def test_c01_exact_rates():
    r_ra = design_rate(ScRaParams(6, 6, 16))
    r_ld = design_rate(ScLdpcParams(4, 8, 16, M=2))
    ok = (
        r_ra == Fraction(198, 426)
        and f"{float(r_ra):.4f}" == "0.4648"
        and r_ld == Fraction(5, 11)
        and f"{float(r_ld):.4f}" == "0.4545"
    )
    report(1, ok, f"ra={r_ra}={float(r_ra):.4f} ldpc={r_ld}={float(r_ld):.4f}")


def test_c02_code_sizes():
    sizes = {}
    for M in (100, 300):
        c = build_sc_ra(ScRaParams(6, 6, 16, M), 0)
        sizes[f"ra M={M}"] = (c.k, c.n)
    for M in (220, 660):
        c = build_sc_ldpc(ScLdpcParams(4, 8, 16, M), 0)
        sizes[f"ldpc M={M}"] = (c.k, c.n)
    ok = (
        sizes["ra M=100"] == (3300, 7100)
        and sizes["ra M=300"] == (9900, 21300)
        and sizes["ldpc M=220"] == (3300, 7260)
        and sizes["ldpc M=660"] == (9900, 21780)
    )
    report(2, ok, ", ".join(f"{k} (k,n)={v}" for k, v in sizes.items()))


def test_c03_mean_variable_degree():
    target = 274 / 71
    devs = []
    edges_ok = True
    for M in (100, 300):
        c = build_sc_ra(ScRaParams(6, 6, 16, M), 0)
        edges = len(c.check_vars)
        edges_ok &= edges == 6 * c.k + 2 * c.m - 1
        devs.append(abs(edges / c.n - target))
        edges_ok &= abs(edges / c.n - (274 / 71 - 1 / (71 * M))) < 1e-12
    c = build_sc_ldpc(ScLdpcParams(4, 8, 16, 220), 0)
    ldpc_mean = len(c.check_vars) / c.n
    ok = edges_ok and max(devs) <= 0.001 and ldpc_mean == 4.0
    report(3, ok, f"ra dev M=100/300: {devs[0]:.6f}/{devs[1]:.6f} vs 274/71, ldpc mean={ldpc_mean}")


def test_c04_small_matrix_structure():
    c = build_sc_ra(ScRaParams(3, 3, 1, 2), 0)
    h = h_dense(c)
    msg_ok = h.shape == (10, 16) and np.all(h[:, :6].sum(axis=0) == 3)
    par = h[:, 6:]
    par_weights = par.sum(axis=0)
    expect = np.eye(10, dtype=par.dtype) + np.eye(10, k=-1, dtype=par.dtype)
    ok = (
        msg_ok
        and np.all(par_weights[:-1] == 2)
        and par_weights[-1] == 1
        and np.array_equal(par, expect)
    )
    report(4, ok, f"shape={h.shape} msg_col_weight=3 parity bidiagonal last_weight={par_weights[-1]}")


def test_c05_threshold_proximity(thr_ra_w, thr_ldpc_w):
    gap = abs(mid(thr_ra_w) - mid(thr_ldpc_w))
    r_ra = float(design_rate(ScRaParams(6, 6, 16)))
    r_ld = float(design_rate(ScLdpcParams(4, 8, 16, M=2)))
    ok = gap <= 0.01 and r_ra > r_ld
    report(5, ok, f"|{mid(thr_ra_w):.6f} - {mid(thr_ldpc_w):.6f}| = {gap:.6f}, rates {r_ra:.4f} > {r_ld:.4f}")


def test_c06_coupling_gain(thr_uncoupled, thr_ra_w):
    gain = mid(thr_ra_w) - mid(thr_uncoupled)
    ok = gain >= 0.01
    report(6, ok, f"coupled {mid(thr_ra_w):.6f} - uncoupled {mid(thr_uncoupled):.6f} = {gain:.6f}")


def test_c07_threshold_family_shape():
    rows = sweep_fig4("4a", Ls=(8, 16))
    ok = True
    notes = []
    for family in ("ra", "ldpc"):
        for L in (8, 16):
            pts = sorted(
                (r for r in rows if r.family == family and r.L == L),
                key=lambda r: r.degree,
            )
            mids = [0.5 * (r.threshold_lo + r.threshold_hi) for r in pts]
            if not all(b > a for a, b in zip(mids, mids[1:])):
                ok = False
                notes.append(f"{family} L={L} not increasing: {mids}")
    # rate dominance is judged between equal-edge-density partners only
    partner_q = {3: 4, 4: 6, 5: 8, 6: 10}
    matched = 0
    for L in (8, 16):
        ra_by_q = {r.degree: r for r in rows if r.family == "ra" and r.L == L}
        for ld in (r for r in rows if r.family == "ldpc" and r.L == L):
            ra = ra_by_q[partner_q[ld.degree]]
            t_ra = 0.5 * (ra.threshold_lo + ra.threshold_hi)
            t_ld = 0.5 * (ld.threshold_lo + ld.threshold_hi)
            if abs(t_ra - t_ld) <= 0.005:
                matched += 1
                if ra.rate < ld.rate:
                    ok = False
                    notes.append(
                        f"L={L} ra q={ra.degree} rate {ra.rate:.4f} < ldpc dl={ld.degree} rate {ld.rate:.4f}"
                    )
    if matched == 0:
        ok = False
        notes.append("no threshold-matched pairs found")
    report(7, ok, "; ".join(notes) if notes else f"monotone in degree, {matched} matched pairs rate-dominated")


def test_c08_waterfall_bracketing(thr_uncoupled, thr_proto):
    grid = eps_range(0.45, 0.495, 0.005)
    crossings = {}
    for M in (100, 300):
        code = build_sc_ra(ScRaParams(6, 6, 16, M), 1)
        plan = SweepPlan(grid, max_trials=1000, max_word_errors=None, seed=2026)
        crossings[M] = waterfall_crossing(run_sweep(code, plan, jobs=2))
    lo, hi = mid(thr_uncoupled), mid(thr_proto)
    ok = (
        lo < crossings[300] < hi
        and lo < crossings[100] < hi
        and crossings[300] >= crossings[100] - 0.005
    )
    report(
        8,
        ok,
        f"crossings M=100 {crossings[100]:.4f}, M=300 {crossings[300]:.4f} "
        f"inside ({lo:.4f}, {hi:.4f})",
    )


def _pattern_suite(code, n_patterns, seed, eps=0.5):
    rng = np.random.default_rng(seed)
    ml_wins = 0
    for _ in range(n_patterns):
        message = rng.integers(0, 2, code.k, dtype=np.int8)
        word = encode(code, message)
        received = transmit_bec(word, eps, rng)
        peel = decode_peel(code, received)
        ml = decode_ml_oracle(code, received)
        if peel.status == FULLY_RECOVERED:
            if ml.status != FULLY_RECOVERED:
                return None, "peel succeeded where ml failed"
            if not np.array_equal(peel.word, word) or not np.array_equal(ml.word, word):
                return None, "recovered values differ from transmitted word"
        elif ml.status == FULLY_RECOVERED:
            ml_wins += 1
            if not np.array_equal(ml.word, word):
                return None, "ml recovered a different word"
    return ml_wins, None


def test_c09_peel_implies_ml():
    printed = build_sc_ra(ScRaParams(3, 3, 1, 2), 0)
    small = build_sc_ra(ScRaParams(3, 3, 4, 10), 0)
    wins_printed, err1 = _pattern_suite(printed, 1000, seed=41)
    wins_small, err2 = _pattern_suite(small, 1000, seed=42)
    ok = err1 is None and err2 is None
    detail = err1 or err2 or f"ml_wins printed-H={wins_printed}, (3,3,4,M=10)={wins_small} of 1000 each"
    report(9, ok, detail)


def test_c10_de_matches_simulation():
    model = make_de_model("ra-proto", ScRaParams(6, 6, 8))
    thr = threshold(model, precision=1e-4)
    eps = mid(thr) - 0.03
    state = model.initial_state(eps)
    profiles = []
    for _ in range(10):
        z = proto_step_reference(model, state)[3]  # the check-to-message erasure of this step
        state = model.step(state)
        # a-posteriori message erasure per position: eps times the w check messages
        profiles.append(state.eps * sliding_window_view(z, model.width).prod(axis=1))
    predicted = np.stack(profiles)

    code = build_sc_ra(ScRaParams(6, 6, 8, 2000), seed=3)
    word = np.zeros(code.n, dtype=np.int8)
    traces = []
    for t in range(32):
        rng = trial_stream(9, 0, t)
        received = transmit_bec(word, eps, rng)
        tr = peel_trace(code, received, max_iters=10)
        if tr.shape[0] < 10:
            tr = np.vstack([tr, np.repeat(tr[-1:], 10 - tr.shape[0], axis=0)])
        traces.append(tr[:10])
    measured = np.mean(traces, axis=0)
    dev = np.abs(measured - predicted).max()
    ok = dev < 0.02
    report(10, ok, f"max |simulated - predicted| over 10 sweeps x 17 positions = {dev:.6f}")


def test_c11_deterministic_csv(tmp_path):
    base = tmp_path / "code"
    rc = cli_main(["construct", "--family", "ra", "--q", "3", "--a", "3",
                   "--L", "2", "--M", "6", "--seed", "5", "--out", str(base)])
    assert rc == 0
    sim_args = ["simulate", "--code", str(base) + ".json", "--eps", "0.4:0.5:0.05",
                "--trials", "200", "--seed", "12"]
    outs = []
    for tag, jobs in (("a", "1"), ("b", "8"), ("c", "8")):
        out = tmp_path / f"run_{tag}.csv"
        assert cli_main([*sim_args, "--jobs", jobs, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    thr_outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"thr_{tag}.csv"
        rc = cli_main(["de", "threshold", "--ensemble", "ra-w", "--q", "3", "--a", "3",
                       "--L", "2", "--precision", "1e-2", "--out", str(out)])
        assert rc == 0
        thr_outs.append(out.read_bytes())
    ok = outs[0] == outs[1] == outs[2] and thr_outs[0] == thr_outs[1]
    report(11, ok, "simulate CSV identical for --jobs 1/8/8-rerun; threshold CSV identical on rerun")
