"""Monte Carlo sweep machinery: determinism, stop rule, statistics."""

import dataclasses
import hashlib
import io
import itertools
import re
from concurrent.futures import Future

import numpy as np
import pytest

from oracles import stop_prefix, toy_code as hand_code, trial_rows_reference, waterfall_crossing
from scra import codec, simulate
from scra.cli import main as cli_main
from scra.codec import decode_peel, transmit_bec
from scra.construct import build_sc_ldpc, build_sc_ra, load_descriptor, save_descriptor
from scra.ensembles import ScLdpcParams, ScRaParams
from scra.simulate import (
    SimResult,
    SimulationError,
    SweepPlan,
    code_build_id,
    eps_range,
    run_sweep,
    trial_stream,
    wilson_interval,
)


def toy_code(seed=6):
    return build_sc_ra(ScRaParams(3, 3, 2, 6), seed)


def test_plan_validation():
    with pytest.raises(SimulationError):
        SweepPlan(())
    with pytest.raises(SimulationError):
        SweepPlan((1.5,))
    with pytest.raises(SimulationError):
        SweepPlan((0.5,), max_trials=0)
    with pytest.raises(SimulationError):
        SweepPlan((0.5,), max_word_errors=0)
    for bad in (0, -3):
        with pytest.raises(SimulationError, match="max_iters"):
            SweepPlan((0.5,), max_iters=bad)
    with pytest.raises(SimulationError):
        run_sweep(toy_code(), SweepPlan((0.5,), max_trials=1), jobs=0)
    # every count and the seed is an int, as in the parameter classes: no bool, float or numpy int
    for name, bad in [("seed", True), ("max_iters", 2.5), ("seed", 1.5), ("seed", np.int64(3)),
                      ("max_trials", 2.5), ("max_word_errors", 1.5)]:
        with pytest.raises(SimulationError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
            SweepPlan((0.5,), **{name: bad})
    with pytest.raises(SimulationError, match="jobs must be an integer >= 1, got 1.5"):
        run_sweep(toy_code(), SweepPlan((0.5,), max_trials=1), jobs=1.5)


def test_plan_takes_a_tuple_of_rates():
    """eps_grid is a tuple of int or float rates; a bare rate, a string or a bool is refused,
    naming eps_grid."""
    for bad in (0.5, ("0.5",), (True,)):
        with pytest.raises(SimulationError, match=re.escape(f"eps_grid must be a tuple of rates, got {bad!r}")):
            SweepPlan(bad)
    assert SweepPlan((0, 0.5, 1)).eps_grid == (0, 0.5, 1)


def test_eps_range():
    assert eps_range(0.0, 0.0, 1.0) == (0.0,)
    grid = eps_range(0.43, 0.50, 0.005)
    assert len(grid) == 15
    np.testing.assert_allclose(grid, 0.43 + 0.005 * np.arange(15))
    with pytest.raises(SimulationError):
        eps_range(0.4, 0.5, 0.0)
    with pytest.raises(SimulationError):
        eps_range(0.5, 0.4, 0.01)
    with pytest.raises(SimulationError, match="eps range 0.4:inf:0.1 needs a finite"):
        eps_range(0.4, float("inf"), 0.1)
    with pytest.raises(SimulationError, match=r"eps range 0.4:1e\+300:1e-300 needs a finite"):
        eps_range(0.4, 1e300, 1e-300)  # finite ends, but the count overflows


def test_trial_stream_is_counter_based():
    a = trial_stream(1, 2, 3).random(8)
    b = trial_stream(1, 2, 3).random(8)
    c = trial_stream(1, 2, 4).random(8)
    d = trial_stream(2, 2, 3).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c) and not np.array_equal(a, d)


def test_plan_refuses_a_trial_index_past_one_spawn_key_word():
    """Trial indices run below max_trials, and trial_keys reads each as one uint32 word."""
    SweepPlan((0.5,), max_trials=2**32)
    with pytest.raises(SimulationError, match=r"max_trials must be at most 2\*\*32, got 4294967297"):
        SweepPlan((0.5,), max_trials=2**32 + 1)


def test_eps_range_refuses_points_outside_the_csv_grid():
    """A range whose points leave [0, 1], or whose step is finer than the CSV's :.6f eps, is
    refused from its three numbers, before any point is built."""
    for args, message in [((0.4, 1e20, 1.0), "has points outside [0, 1]"),
                          ((-0.1, 0.5, 0.1), "has points outside [0, 1]"),
                          ((0.5, 1.2, 0.3), "has points outside [0, 1]"),
                          ((0.4, 0.5, 1e-300), "steps finer than the CSV's eps 1e-06"),
                          ((0.4, 0.5, 9e-7), "steps finer than the CSV's eps 1e-06")]:
        with pytest.raises(SimulationError, match=re.escape(message)):
            eps_range(*args)
    assert len(eps_range(0.5, 0.5001, 1e-6)) == 101
    assert eps_range(0.7, 1.0, 0.1)[-1] == 1.0


KEY_SEEDS = (0, 1, 2**32 - 1, 2**32 + 5, 2**96 + 3, 2**128 - 1, 2**128 + 7, 2**200 + 99,
             12345678901234567890123456789012345678901)
KEY_INDICES = (0, 1, 7, 2**31, 2**32 - 1)


@pytest.mark.parametrize("seed", KEY_SEEDS)
def test_trial_keys_are_numpys_seed_sequence_keys(seed):
    """Over arrays and one cell at a time, for seeds of one to seven words, on both sides of
    the four-word pool, and indices up to 2**32 - 1, trial_keys gives the keys numpy's
    SeedSequence route gives."""
    cells = list(itertools.product(KEY_INDICES, repeat=2))
    eps_index, trial_index = (np.array(column, dtype=np.int64) for column in zip(*cells))
    got = simulate.trial_keys(seed, eps_index, trial_index)
    assert got.shape == (len(cells), 2) and got.dtype == np.uint64
    for row, (ei, t) in zip(got, cells):
        want = np.random.SeedSequence(entropy=seed, spawn_key=(ei, t)).generate_state(2, np.uint64)
        np.testing.assert_array_equal(row, want)
        np.testing.assert_array_equal(simulate.trial_keys(seed, ei, t), want)
    with pytest.raises(SimulationError, match="seed must be a non-negative integer"):
        simulate.trial_keys(-1, 0, 0)


@pytest.mark.parametrize("seed", [5, 2**128 + 7])
def test_a_rekeyed_generator_is_the_trial_stream(seed):
    """One generator, its state set to counter 0 and a cell's key as _trial_rows sets it, gives
    that cell's raw words, and leaves the state, of both trial_stream and numpy's own
    SeedSequence-seeded Philox, at lengths around the 4-word Philox block."""
    cells = [(0, 0), (3, 0), (3, 1), (9, 2**32 - 1), (2**32 - 1, 2**31)]
    keys = simulate.trial_keys(seed, *(np.array(column) for column in zip(*cells)))
    stream = np.random.Generator(np.random.Philox(key=keys[0]))
    state = stream.bit_generator.state
    for (ei, t), key in zip(cells, keys.tolist()):
        for n in (0, 1, 3, 4, 5, 9):
            state["state"]["key"] = key
            stream.bit_generator.state = state
            cell = trial_stream(seed, ei, t)
            seeded = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(ei, t))))
            words = stream.bit_generator.random_raw(n)
            np.testing.assert_array_equal(words, cell.bit_generator.random_raw(n))
            np.testing.assert_array_equal(words, seeded.bit_generator.random_raw(n))
            np.testing.assert_equal(stream.bit_generator.state, cell.bit_generator.state)
            np.testing.assert_equal(stream.bit_generator.state, seeded.bit_generator.state)


# (code, eps below, near and above its waterfall): eps 0 and 1 are added to each
LANE_CODES = {
    "ra": (lambda: build_sc_ra(ScRaParams(6, 6, 16, M=20), 3), (0.40, 0.45, 0.52)),
    "ldpc": (lambda: build_sc_ldpc(ScLdpcParams(4, 8, 16, M=40), 3), (0.36, 0.43, 0.50)),
    # a check of degree one and a variable in no check
    "toy": (lambda: hand_code([[0], [0, 1, 5], [1, 2, 6], [2, 3, 5, 7], [0, 4, 7], [3, 4, 6]], 9),
            (0.2, 0.45, 0.7)),
}
LANE_TASKS = (1, 40, simulate.LANES, 2 * simulate.LANES + 22)  # trials per task; the last refills
LANE_CASES = [pytest.param(name, eps, id=f"{name}-{eps}")
              for name, (_, band) in LANE_CODES.items() for eps in (0.0, *band, 1.0)]


@pytest.mark.parametrize("name,eps", LANE_CASES)
@pytest.mark.parametrize("handoff", [simulate.HANDOFF, 0])
def test_lane_kernel_matches_decode_peel(monkeypatch, name, eps, handoff):
    """Every trial's four tallies from the bit-lane kernel equal those of its own channel draw
    and decode_peel, at every budget and task size, with and without the hand-off."""
    code = LANE_CODES[name][0]()
    tables = simulate._lane_tables(code)
    monkeypatch.setattr(simulate, "HANDOFF", handoff)
    for max_iters in (1, 2, 5, 1000):
        for size in LANE_TASKS:
            lo = 3 * size  # tasks start mid-stream as run_sweep's do
            got = simulate._trial_rows(code, tables, ((eps, 2, lo, lo + size),), max_iters, 9)
            np.testing.assert_array_equal(got, trial_rows_reference(code, eps, 2, lo, lo + size,
                                                                    max_iters, 9),
                                          err_msg=f"max_iters={max_iters} size={size}")


@pytest.mark.parametrize("eps", [0.45, 1.0])
def test_every_lane_carries_its_trial(monkeypatch, eps):
    """A task of more than LANES trials fills lanes 0 to 63 with its first 64 trials, and each,
    lane 63's too (where the widening product wraps to the sign bit), gets the tallies of
    decode_peel on its own draw."""
    code = LANE_CODES["ra"][0]()
    monkeypatch.setattr(simulate, "HANDOFF", 0)  # every lane peels to its end in the kernel
    size = simulate.LANES + 9
    got = simulate._trial_rows(code, simulate._lane_tables(code), ((eps, 1, 0, size),), 1000, 3)
    ref = trial_rows_reference(code, eps, 1, 0, size, 1000, 3)
    assert (ref[:simulate.LANES, 2:].sum(axis=1) > 0).all()  # each first trial peeled or kept an erasure
    np.testing.assert_array_equal(got, ref)


def test_lane_hand_off_resumes_a_trial_mid_peel(monkeypatch):
    """Lanes still live when the task runs out of trials finish in decode_peel from their current
    pattern with the rest of their budget, and the tallies still equal the reference."""
    code = LANE_CODES["ra"][0]()
    budgets = []

    def recorded(c, word, max_iters):
        budgets.append(max_iters)
        return decode_peel(c, word, max_iters)

    monkeypatch.setattr(codec, "decode_peel", recorded)
    got = simulate._trial_rows(code, simulate._lane_tables(code), ((0.45, 1, 0, 150),), 1000, 4)
    assert 0 < len(budgets) <= simulate.HANDOFF and min(budgets) < 1000
    np.testing.assert_array_equal(got, trial_rows_reference(code, 0.45, 1, 0, 150, 1000, 4))


@pytest.mark.parametrize("name", LANE_CODES)
@pytest.mark.parametrize("handoff", [simulate.HANDOFF, 0])
def test_lane_refill_crosses_rates(monkeypatch, name, handoff):
    """One task of segments at eps 0, below, near, above and 1, one of them a single trial and
    more than 2 * LANES trials in all: a lane's next trial may be of another rate, and every
    row still equals the reference of its own segment."""
    make, (below, near, above) = LANE_CODES[name]
    code = make()
    monkeypatch.setattr(simulate, "HANDOFF", handoff)
    segments = ((0.0, 0, 5, 35), (below, 1, 40, 41), (near, 2, 17, 77), (above, 3, 0, 50),
                (1.0, 4, 100, 112))
    assert sum(hi - lo for *_, lo, hi in segments) > 2 * simulate.LANES
    tables = simulate._lane_tables(code)
    for max_iters in (1, 2, 5, 1000):
        got = simulate._trial_rows(code, tables, segments, max_iters, 9)
        ref = np.concatenate([trial_rows_reference(code, *seg, max_iters, 9) for seg in segments])
        np.testing.assert_array_equal(got, ref, err_msg=f"max_iters={max_iters}")


@pytest.mark.parametrize("name,heights", [("ra", (6, 2)), ("ldpc", (4,)), ("toy", (3,))])
def test_lane_variable_blocks_drop_only_pads(name, heights):
    """The variable blocks split the variables at n_msg, each only as tall as the largest degree
    in it; every real edge sits in them exactly once and every other entry is the sentinel m."""
    code = LANE_CODES[name][0]()
    _, blocks = simulate._lane_tables(code)
    deg = np.bincount(code.check_vars, minlength=code.n)
    bounds = [(lo, hi) for lo, hi in ((0, code.n_msg), (code.n_msg, code.n)) if lo < hi]
    assert [b.shape for b in blocks] == [(h, hi - lo) for h, (lo, hi) in zip(heights, bounds)]
    assert [b.shape[0] for b in blocks] == [deg[lo:hi].max() for lo, hi in bounds]
    assert all((b <= code.m).all() for b in blocks)
    pairs = np.concatenate([np.column_stack([np.broadcast_to(np.arange(lo, hi), b.shape)[b < code.m], b[b < code.m]])
                            for b, (lo, hi) in zip(blocks, bounds)])
    edges = np.column_stack([code.check_vars, code.edge_checks])
    np.testing.assert_array_equal(pairs[np.lexsort(pairs.T[::-1])], edges[np.lexsort(edges.T[::-1])])


def test_wilson_interval_edges_and_value():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert 0.95 < lo < 1 and hi == 1.0
    # hand-computed reference for k=5, t=10 at z=1.96:
    # center = 0.5, half = (1.96 / 1.38416) * sqrt(0.025 + 0.009604)
    lo, hi = wilson_interval(5, 10, z=1.96)
    np.testing.assert_allclose([lo, hi], [0.236590, 0.763410], atol=1e-5)
    los, his = wilson_interval(np.arange(11), np.full(11, 10))
    assert np.all(np.diff(los) > 0) and np.all(np.diff(his) > 0)


def test_stop_index_prefix_rule():
    flags = np.array([0, 1, 0, 1, 1, 0, 1])
    assert stop_prefix(flags, None) is None
    assert stop_prefix(flags, 5) is None
    assert stop_prefix(flags, 4) == 7
    assert stop_prefix(flags, 3) == 5
    assert stop_prefix(flags, 1) == 2


def test_sweep_endpoints():
    code = toy_code()
    plan = SweepPlan((0.0, 1.0), max_trials=20, max_word_errors=5, seed=3)
    res = run_sweep(code, plan)
    assert res.trials[0] == 20 and res.word_errors[0] == 0
    assert res.wer()[0] == 0.0 and res.mean_iters()[0] == 0.0
    # every trial at eps=1 fails, so the stop rule fires at 5 errors
    assert res.trials[1] == 5 and res.word_errors[1] == 5
    assert res.wer()[1] == 1.0
    assert res.ber_all()[1] == 1.0


def test_sweep_identical_for_any_worker_count():
    code = toy_code()
    plan = SweepPlan((0.35, 0.5, 0.65), max_trials=120, max_word_errors=10, seed=11)
    a = run_sweep(code, plan, jobs=1)
    b = run_sweep(code, plan, jobs=3)
    for field in ("trials", "word_errors", "bit_errors_message", "bit_errors_all", "iteration_sum"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    buf_a, buf_b = io.StringIO(), io.StringIO()
    a.to_csv(buf_a)
    b.to_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs each task at submit."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        f = Future()
        f.set_result(fn(*args))
        return f


class _ReversePool(_InlinePool):
    """Runs nothing at submit; its wait runs and completes the newest task first."""

    order = itertools.count()

    def submit(self, fn, *args):
        f = Future()
        f.run, f.order = (lambda: f.set_result(fn(*args))), next(self.order)
        return f

    @staticmethod
    def wait(fs, return_when):
        newest = max(fs, key=lambda f: f.order)
        newest.run()
        return {newest}, set(fs) - {newest}


class _ShufflePool(_ReversePool):
    """Its wait runs and completes a random non-empty subset of the tasks, drawn from rng."""

    rng = np.random.default_rng(0)

    @staticmethod
    def wait(fs, return_when):
        fs = sorted(fs, key=lambda f: f.order)
        pick = _ShufflePool.rng.permutation(len(fs))[:_ShufflePool.rng.integers(1, len(fs) + 1)]
        done = {fs[i] for i in pick}
        for f in done:
            f.run()
        return done, set(fs) - done


def _use_pool(monkeypatch, pool):
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(simulate, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(simulate, "_worker_args", None)
    if issubclass(pool, _ReversePool):
        monkeypatch.setattr(simulate, "wait", pool.wait)


def _csv(result):
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


@pytest.mark.parametrize("jobs,max_trials,workers", [
    (64, simulate.BATCH, [2]),  # one batch per rate, two rates: two workers
    (8, 4 * simulate.BATCH, [8]),  # 4 batches per rate, 8 in all
    (3, 2 * simulate.BATCH + 1, [3]),
    (2, 200, [2]),
])
def test_pool_is_sized_to_the_batches(monkeypatch, jobs, max_trials, workers):
    """The pool has a worker per batch of the sweep, all rates counted, up to jobs."""
    code = toy_code()
    plan = SweepPlan((0.4, 0.5), max_trials=max_trials, max_word_errors=None, seed=12)
    _use_pool(monkeypatch, _InlinePool)
    got = run_sweep(code, plan, jobs=jobs)
    assert _InlinePool.sizes == workers
    ref = run_sweep(code, plan, jobs=1)
    assert _csv(got) == _csv(ref)


def test_batches_fill_across_rates(monkeypatch):
    """15 rates of 50 trials and no stop run inline as one task of all 750 trials, and through a
    pool at jobs=2 as tasks of at most BATCH, some of several rates; either way the tasks walk
    the rates in grid order and the CSV is that of the per-rate reference."""
    code = toy_code()
    plan = SweepPlan(eps_range(0.30, 0.65, 0.025), max_trials=50, max_word_errors=None, seed=21)
    assert len(plan.eps_grid) == 15
    batches = []
    trial_rows = simulate._trial_rows

    def recorded(c, tables, segments, max_iters, seed):
        batches.append(segments)
        return trial_rows(c, tables, segments, max_iters, seed)

    monkeypatch.setattr(simulate, "_trial_rows", recorded)
    rows = np.array([trial_rows_reference(code, eps, ei, 0, 50, plan.max_iters, plan.seed).sum(axis=0)
                     for ei, eps in enumerate(plan.eps_grid)])
    inline = run_sweep(code, plan, jobs=1)
    ref = dataclasses.replace(inline, trials=np.full(15, 50), word_errors=rows[:, 0],
                              bit_errors_message=rows[:, 1], bit_errors_all=rows[:, 2],
                              iteration_sum=rows[:, 3])
    assert batches == [tuple((eps, ei, 0, 50) for ei, eps in enumerate(plan.eps_grid))]
    assert _csv(inline) == _csv(ref)

    batches.clear()
    _use_pool(monkeypatch, _InlinePool)
    pooled = run_sweep(code, plan, jobs=2)
    sizes = [sum(hi - lo for *_, lo, hi in segments) for segments in batches]
    assert _InlinePool.sizes == [2] and max(sizes) <= simulate.BATCH
    assert any(len(segments) > 1 for segments in batches)
    walk = [(ei, t) for segments in batches for _, ei, lo, hi in segments for t in range(lo, hi)]
    assert walk == [(ei, t) for ei in range(15) for t in range(50)]
    assert _csv(pooled) == _csv(ref)


class _TablePool(_InlinePool):
    """Records, as the pool starts, whether the code it hands its workers holds its padded
    variable table, and the lane tables it hands them."""

    handed: list = []

    def __init__(self, max_workers, initializer, initargs):
        code, tables = initargs
        self.handed.append(("padded_var_checks" in vars(code), tables))
        super().__init__(max_workers, initializer, initargs)


def test_pool_workers_inherit_the_peeling_table(monkeypatch):
    """The tables are built once before the pool starts, not once in every worker: the pool
    initializer gets the code with its padded variable table cached, and the lane tables."""
    code = toy_code()
    assert "padded_var_checks" not in vars(code)
    _use_pool(monkeypatch, _TablePool)
    monkeypatch.setattr(_TablePool, "handed", [])
    run_sweep(code, SweepPlan((0.4, 0.5), max_trials=200, max_word_errors=None, seed=12), jobs=2)
    [(cached, (check_slots, var_blocks))] = _TablePool.handed
    want_slots, want_blocks = simulate._lane_tables(code)
    assert cached and len(var_blocks) == len(want_blocks)
    np.testing.assert_array_equal(check_slots, want_slots)
    for block, want in zip(var_blocks, want_blocks):
        np.testing.assert_array_equal(block, want)


def test_pool_counts_every_rate_of_a_small_budget(monkeypatch, tmp_path):
    """--trials 100 is one batch per rate; over three rates --jobs 2 gets both its workers,
    and a sweep of one batch in all runs inline."""
    base = tmp_path / "code"
    assert cli_main(["construct", "--family", "ra", "--q", "3", "--a", "3",
                     "--L", "2", "--M", "6", "--seed", "5", "--out", str(base)]) == 0
    _use_pool(monkeypatch, _InlinePool)

    def simulate_csv(eps, jobs):
        out = tmp_path / f"sim_{eps}_{jobs}.csv"
        assert cli_main(["simulate", "--code", f"{base}.json", "--eps", eps, "--trials", "100",
                         "--seed", "12", "--jobs", jobs, "--out", str(out)]) == 0
        return out.read_bytes()

    assert simulate_csv("0.4:0.5:0.05", "2") == simulate_csv("0.4:0.5:0.05", "1")
    assert _InlinePool.sizes == [2]
    simulate_csv("0.45:0.45:0.05", "2")
    assert _InlinePool.sizes == [2]


# eps 0.8 and 0.7 fail nearly every trial, so a stop above SMALL_BATCH keeps
# more than one batch of a rate in flight at once.  They lead the grid, so the
# rate's later batches are the newest tasks and _ReversePool returns them first.
STOP_GRID = (0.8, 0.7, 0.5, 0.45, 0.4)
SMALL_BATCH = 50  # the stop tests' budgets span several batches of this size; BATCH is larger


@pytest.mark.parametrize("max_word_errors", [20, 120, None])
def test_no_decoded_trial_is_thrown_away(monkeypatch, max_word_errors):
    code = toy_code()
    plan = SweepPlan(STOP_GRID, max_trials=300, max_word_errors=max_word_errors, seed=14)
    calls = []

    def counted(*args, **kwargs):  # every decoded trial draws its erasures once
        calls.append(1)
        return transmit_bec(*args, **kwargs)

    monkeypatch.setattr(simulate, "BATCH", SMALL_BATCH)
    monkeypatch.setattr(simulate, "transmit_bec", counted)
    inline = run_sweep(code, plan, jobs=1)
    assert len(calls) == inline.trials.sum()
    if max_word_errors is not None:  # the stop fires inside a BATCH-aligned block
        assert any(t % simulate.BATCH and e == max_word_errors
                   for t, e in zip(inline.trials, inline.word_errors))
    calls.clear()
    _use_pool(monkeypatch, _ReversePool)
    reverse = run_sweep(code, plan, jobs=3)
    assert len(calls) == reverse.trials.sum()
    assert _csv(reverse) == _csv(inline)


def _tallies(result):
    return np.column_stack([result.trials, result.word_errors, result.bit_errors_message,
                            result.bit_errors_all, result.iteration_sum])


STOPS = (None, 1, 7, 20, 49, 50, 51, 120)


def test_sweep_keeps_the_in_order_prefix(monkeypatch):
    """Seeded random plans: inline, newest-first and random completion each keep, per rate,
    the reference in-order prefix of the trials of the whole budget."""
    code = toy_code()
    monkeypatch.setattr(simulate, "BATCH", SMALL_BATCH)
    mid_batch_stops = multi_batch_stops = 0
    for plan_seed in range(8):
        rng = np.random.default_rng(plan_seed)
        grid = tuple(float(e) for e in np.round(rng.uniform(0.3, 0.9, rng.integers(1, 5)), 3))
        stop = STOPS[rng.integers(len(STOPS))]
        plan = SweepPlan(grid, max_trials=int(rng.integers(1, 260)), max_word_errors=stop,
                         seed=plan_seed)
        ref = np.zeros((len(grid), 5), dtype=np.int64)
        for ei, eps in enumerate(grid):
            rows = trial_rows_reference(code, eps, ei, 0, plan.max_trials, plan.max_iters, plan.seed)
            rows = rows[:stop_prefix(rows[:, 0], stop)]
            ref[ei] = len(rows), *rows.sum(axis=0)
            fired = stop is not None and ref[ei, 1] == stop
            mid_batch_stops += fired and ref[ei, 0] % simulate.BATCH != 0
            multi_batch_stops += fired and ref[ei, 0] > simulate.BATCH
        np.testing.assert_array_equal(_tallies(run_sweep(code, plan, jobs=1)), ref)
        _use_pool(monkeypatch, _ReversePool)
        np.testing.assert_array_equal(_tallies(run_sweep(code, plan, jobs=3)), ref)
        _use_pool(monkeypatch, _ShufflePool)
        monkeypatch.setattr(_ShufflePool, "rng", np.random.default_rng(plan_seed))
        jobs = int(rng.integers(2, 6))
        np.testing.assert_array_equal(_tallies(run_sweep(code, plan, jobs=jobs)), ref)
    assert mid_batch_stops and multi_batch_stops


# sha256 of the CSV below without its "# build=" line: any change to the
# channel draws, the peeling outcomes or the stop rule moves it
SWEEP_PIN = "724cfce73da74c866f24e59e15277086df18772fc78fbf5146f70b274e38a074"


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_csv_matches_pinned_digest(jobs):
    code = build_sc_ra(ScRaParams(6, 6, 8, M=20), 0)
    plan = SweepPlan(eps_range(0.40, 0.50, 0.02), max_trials=60, max_word_errors=20, seed=0)
    buf = io.StringIO()
    run_sweep(code, plan, jobs=jobs).to_csv(buf)
    lines = buf.getvalue().splitlines(keepends=True)
    text = "".join(ln for ln in lines if not ln.startswith("# build="))
    assert hashlib.sha256(text.encode()).hexdigest() == SWEEP_PIN


def test_sweep_rerun_is_binary_identical():
    code = toy_code()
    plan = SweepPlan((0.45,), max_trials=60, seed=5)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    run_sweep(code, plan).to_csv(buf_a)
    run_sweep(code, plan).to_csv(buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_csv_layout():
    code = toy_code()
    res = run_sweep(code, SweepPlan((0.3,), max_trials=10, seed=1))
    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# scra-sim v1"
    meta = [ln for ln in lines if ln.startswith("# ") and "=" in ln]
    keys = [ln[2:].split("=")[0] for ln in meta]
    assert keys == sorted(keys)
    assert "build" in keys and "plan_seed" in keys
    header = [ln for ln in lines if ln.startswith("eps,")][0]
    assert header == "eps,trials,word_err,wer,wer_lo,wer_hi,bit_err_msg,ber_msg,ber_all,mean_iters"
    assert len(lines) == len(meta) + 2 + 1


def pav_fit(y):
    """Pool-adjacent-violators isotonic regression with unit weights."""
    vals = [float(v) for v in y]
    weights = [1.0] * len(vals)
    blocks = []
    for v, w in zip(vals, weights):
        blocks.append([v, w])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v1, w1 = blocks.pop()
            v0, w0 = blocks.pop()
            blocks.append([(v0 * w0 + v1 * w1) / (w0 + w1), w0 + w1])
    out = []
    for v, w in blocks:
        out.extend([v] * int(w))
    return np.array(out)


def test_wer_isotone_within_noise():
    code = toy_code()
    grid = tuple(np.round(np.arange(0.1, 0.95, 0.1), 3))
    res = run_sweep(code, SweepPlan(grid, max_trials=1000, max_word_errors=None, seed=2))
    wer = res.wer()
    resid = np.abs(wer - pav_fit(wer))
    assert resid.max() <= 0.04
    assert np.all(res.wer() >= res.ber_message() - 1e-12)


def test_waterfall_crossing_interpolation():
    res = SimResult(
        eps=np.array([0.1, 0.2, 0.3, 0.4, 0.5]),
        trials=np.full(5, 100),
        word_errors=np.array([0, 10, 40, 90, 100]),
        bit_errors_message=np.zeros(5, dtype=np.int64),
        bit_errors_all=np.zeros(5, dtype=np.int64),
        iteration_sum=np.zeros(5, dtype=np.int64),
        n=10,
        message_bit_count=5,
    )
    got = waterfall_crossing(res)
    np.testing.assert_allclose(got, 0.32752, atol=1e-4)
    assert 0.3 < got < 0.4


def test_waterfall_crossing_zero_floor_and_missing():
    res = SimResult(
        eps=np.array([0.1, 0.2]),
        trials=np.full(2, 100),
        word_errors=np.array([0, 90]),
        bit_errors_message=np.zeros(2, dtype=np.int64),
        bit_errors_all=np.zeros(2, dtype=np.int64),
        iteration_sum=np.zeros(2, dtype=np.int64),
        n=10,
        message_bit_count=5,
    )
    assert 0.1 < waterfall_crossing(res) < 0.2
    flat = SimResult(
        eps=np.array([0.1, 0.2]),
        trials=np.full(2, 100),
        word_errors=np.array([0, 0]),
        bit_errors_message=np.zeros(2, dtype=np.int64),
        bit_errors_all=np.zeros(2, dtype=np.int64),
        iteration_sum=np.zeros(2, dtype=np.int64),
        n=10,
        message_bit_count=5,
    )
    with pytest.raises(SimulationError):
        waterfall_crossing(flat)


def test_build_id_tracks_content():
    assert code_build_id(toy_code(6)) == code_build_id(toy_code(6))
    assert code_build_id(toy_code(6)) != code_build_id(toy_code(7))
    ident = code_build_id(toy_code())
    assert len(ident) == 12 and set(ident) <= set("0123456789abcdef")


def test_build_id_survives_descriptor_round_trip():
    for c in (toy_code(), build_sc_ldpc(ScLdpcParams(3, 6, 2, 6), 4)):
        buf = io.StringIO()
        save_descriptor(c, buf)
        assert code_build_id(load_descriptor(io.StringIO(buf.getvalue()))) == code_build_id(c)
