"""Monte Carlo decoding experiments on the binary erasure channel.

Transmission uses the all-zero codeword (erasure decoding is blind to the
transmitted values, which toy-code tests verify), so a trial is only its
erasure pattern.  Every trial draws, through codec.transmit_bec, from a
counter-based Philox stream keyed as numpy's SeedSequence(seed, spawn_key=
(eps index, trial index)) keys it; a task derives all its trials' keys in
one vectorised pass (trial_keys) and re-keys one generator per trial.
Trials run in tasks, and a task may hold trials of several rates, each
rate's as one segment of consecutive trial indices.  Through a process
pool, tasks of at most BATCH trials stream through the workers; inline,
one task takes every trial the word-error stop lets start.  No segment
starts that could run past its rate's N-th word error in index order, so
every decoded trial is kept and results are identical for any worker
count; neither the results nor the worker count depend on how trials are
grouped.

A task peels up to LANES trials at once, trial by trial in the bit
lanes of one uint64 word per variable, in sweeps of whole-array bit
operations over the code's slot-major tables.  When a lane's trial ends,
the lane takes the task's next trial, whatever its rate (refill), so a
sweep serves up to LANES live trials until the task runs out.  Then,
once at most HANDOFF lanes are live, each finishes alone in decode_peel
(the hand-off), which costs less than a sweep over all lanes.  Each
trial's tallies are those of decode_peel on its own draw, bit for bit.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from scra import codec
from scra.codec import ERASED, decode_peel, transmit_bec  # noqa: F401 (decode_peel: perfbench wraps it here)
from scra.construct import CodeInstance, _write_csv
from scra.ensembles import is_int

Z95 = 1.959963984540054  # two-sided 95% normal quantile
BATCH = 256  # most trials per pool task, to balance the workers; a segment also shrinks near a word-error stop
LANES = 64  # trials a task peels at once, one bit of a uint64 each
HANDOFF = 8  # once no trial is left, this many live lanes finish one by one in decode_peel
EPS_RESOLUTION = 1e-6  # the CSV prints eps as :.6f
_M32 = 0xFFFFFFFF
_STATE_HASH = np.array([0x8B51F9DD * 0x58F38DED**i & _M32 for i in range(5)], dtype=np.uint32)  # generate_state's
_SPAWN_STEPS = np.array([0x931E8875**i & _M32 for i in range(9)], dtype=np.uint32)  # SeedSequence's multiplier ** 0..8


class SimulationError(RuntimeError):
    """Raised for unusable sweep plans or unlocatable features."""


@dataclass(frozen=True)
class SweepPlan:
    """One erasure-rate sweep.

    eps_grid: tuple of channel erasure rates to visit, each in [0, 1].
    max_trials: trial budget per rate.
    max_word_errors: stop a rate early once this many word errors have
        accumulated along the trial sequence (None disables).
    max_iters: peeling sweep budget per trial.
    seed: master seed of the per-trial channel streams.
    """

    eps_grid: tuple[float, ...]
    max_trials: int = 10_000
    max_word_errors: int | None = 100
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (isinstance(self.eps_grid, tuple) and all(is_int(e) or isinstance(e, float) for e in self.eps_grid)):
            raise SimulationError(f"eps_grid must be a tuple of rates, got {self.eps_grid!r}")
        if len(self.eps_grid) == 0:
            raise SimulationError("eps_grid must not be empty")
        if any(not 0.0 <= e <= 1.0 for e in self.eps_grid):
            raise SimulationError("every eps must lie in [0, 1]")
        for name, value in vars(self).items():
            if name != "eps_grid" and not (is_int(value) or name == "max_word_errors" and value is None):
                raise SimulationError(f"{name} must be an integer, got {value!r}")
        if self.max_trials < 1:
            raise SimulationError("max_trials must be >= 1")
        if self.max_trials > 2**32:  # a trial index is one uint32 spawn-key word in trial_keys
            raise SimulationError(f"max_trials must be at most 2**32, got {self.max_trials}")
        if self.max_word_errors is not None and self.max_word_errors < 1:
            raise SimulationError("max_word_errors must be >= 1 or None")
        if self.max_iters < 1:
            raise SimulationError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.seed < 0:
            raise SimulationError(f"seed must be a non-negative integer, got {self.seed}")


def eps_range(start: float, stop: float, step: float) -> tuple[float, ...]:
    """Inclusive rate grid; (0, 0, 1) is the single point 0."""
    if step <= 0:
        raise SimulationError("step must be positive")
    count = np.floor((stop - start) / step + 1e-9) + 1
    if not np.isfinite([start, stop, step, count]).all():
        raise SimulationError(f"eps range {start}:{stop}:{step} needs a finite start, stop, step and count")
    if count < 1:
        raise SimulationError(f"empty eps range {start}:{stop}:{step}")
    if step < EPS_RESOLUTION:  # its rows would repeat CSV eps values; so no grid in [0, 1] passes 1e6 points
        raise SimulationError(f"eps range {start}:{stop}:{step} steps finer than the CSV's eps {EPS_RESOLUTION}")
    if not 0.0 <= start <= start + (count - 1) * step <= 1.0:
        raise SimulationError(f"eps range {start}:{stop}:{step} has points outside [0, 1]")
    return tuple(float(start + i * step) for i in range(int(count)))


# numpy SeedSequence's hashmix, on uint32 arrays: h is its hash constant, h_next the one after it
def _hashmix(value, h, h_next):
    value = (value ^ h) * h_next
    return value ^ value >> 16


def trial_keys(seed: int, eps_index, trial_index) -> np.ndarray:
    """Philox keys of the (rate, trial) cells, shape (..., 2) over the broadcast indices.

    Each is np.random.SeedSequence(entropy=seed, spawn_key=(eps_index, trial_index))
    .generate_state(2, np.uint64), for indices below 2**32 (one spawn-key word each).
    numpy mixes the seed's words into the pool; the spawn key mixes in here, into every
    cell at once.
    """
    if seed < 0:
        raise SimulationError(f"seed must be a non-negative integer, got {seed}")
    pool = np.random.SeedSequence(seed).pool
    # the hash constant, times the multiplier per hashmix, took 4 per seed word (at least 4 words); 9 go on here
    spawn = (0x43B0D7E5 * 0x931E8875 ** (4 * max(-(-seed.bit_length() // 32), 4)) & _M32) * _SPAWN_STEPS
    for j, index in enumerate((eps_index, trial_index)):
        value = _hashmix(np.asarray(index, dtype=np.uint32)[..., None], spawn[4 * j : 4 * j + 4],
                         spawn[4 * j + 1 : 4 * j + 5])
        pool = 0xCA01F9DD * pool - 0x4973F715 * value  # SeedSequence's mix(pool word, value)
        pool ^= pool >> 16
    # generate_state(2, np.uint64): the same hash on its own constants, then two little-endian pairs
    return _hashmix(pool, _STATE_HASH[:4], _STATE_HASH[1:]).astype("<u4", copy=False).view("<u8")


def trial_stream(seed: int, eps_index: int, trial_index: int) -> np.random.Generator:
    """Counter-based channel stream for one (rate, trial) cell: numpy's Philox seeded with
    SeedSequence(seed, spawn_key=(eps_index, trial_index)), keyed here by trial_keys."""
    return np.random.Generator(np.random.Philox(key=trial_keys(seed, eps_index, trial_index)))


def wilson_interval(successes, trials, z: float = Z95):
    """Wilson score interval for a binomial proportion; vectorized."""
    k = np.asarray(successes, dtype=np.float64)
    t = np.asarray(trials, dtype=np.float64)
    p = np.divide(k, t, out=np.zeros_like(k), where=t > 0)
    denom = 1.0 + z * z / t
    center = (p + z * z / (2 * t)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / t + z * z / (4 * t * t))
    # the bounds are exact at the empirical extremes; do not let roundoff leak past them
    lo = np.where(k == 0, 0.0, np.clip(center - half, 0.0, 1.0))
    hi = np.where(k == t, 1.0, np.clip(center + half, 0.0, 1.0))
    return lo, hi


@dataclass
class SimResult:
    """Integer tallies of one sweep plus code metadata for reporting."""

    eps: np.ndarray
    trials: np.ndarray
    word_errors: np.ndarray
    bit_errors_message: np.ndarray
    bit_errors_all: np.ndarray
    iteration_sum: np.ndarray
    n: int
    message_bit_count: int
    metadata: dict = field(default_factory=dict)

    def wer(self) -> np.ndarray:
        return self.word_errors / self.trials

    def wer_interval(self) -> tuple[np.ndarray, np.ndarray]:
        return wilson_interval(self.word_errors, self.trials)

    def ber_message(self) -> np.ndarray:
        return self.bit_errors_message / (self.trials * self.message_bit_count)

    def ber_all(self) -> np.ndarray:
        return self.bit_errors_all / (self.trials * self.n)

    def mean_iters(self) -> np.ndarray:
        return self.iteration_sum / self.trials

    def to_csv(self, dest) -> None:
        lo, hi = self.wer_interval()
        wer = self.wer()
        ber_m = self.ber_message()
        ber_a = self.ber_all()
        mi = self.mean_iters()
        lines = (
            f"{self.eps[i]:.6f},{int(self.trials[i])},{int(self.word_errors[i])},"
            f"{wer[i]:.10g},{lo[i]:.10g},{hi[i]:.10g},"
            f"{int(self.bit_errors_message[i])},{ber_m[i]:.10g},{ber_a[i]:.10g},{mi[i]:.10g}"
            for i in range(len(self.eps))
        )
        columns = "eps,trials,word_err,wer,wer_lo,wer_hi,bit_err_msg,ber_msg,ber_all,mean_iters"
        _write_csv(dest, "scra-sim v1", self.metadata, columns, lines)


def code_build_id(c: CodeInstance) -> str:
    """Content hash of the code's identity and graph, used as the build identifier.

    Hashes (family, params, seed, n, k) and five arrays as int64, so a saved
    and reloaded code keeps its id whatever the arrays' dtypes.  The first
    three arrays (variable kinds, variable and check positions) follow from
    the parameters and are computed here, yet they are still hashed, so that
    every build id, and with it every simulate CSV, stays what it was when
    codes stored them.  A parity bit sits at the position of its check.
    """
    h = hashlib.sha256(repr((c.family, c.params, c.seed, c.n, c.k)).encode())
    var_kind = np.arange(c.n) >= c.n_msg  # 0 for message bits, 1 for parity bits
    check_pos = np.arange(c.m) // c.params.checks_per_pos
    var_pos = np.concatenate([np.arange(c.n_msg) // c.params.M, check_pos[: c.n - c.n_msg]])
    for arr in (var_kind, var_pos, check_pos, c.check_indptr, c.check_vars):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]


_worker_args: tuple | None = None  # (code, lane tables), set once in each pool worker


def _init_worker(code: CodeInstance, tables: tuple) -> None:
    global _worker_args
    _worker_args = code, tables


def _set_bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


def _lane_tables(code: CodeInstance) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The tables of the bit-lane peeler, slot-major.

    Row s of the check table, of shape (max check degree, m + 1), holds
    every check's s-th neighbor; unused entries and the sentinel column m
    hold the spare variable id n.  The variable blocks split
    padded_var_checks at n_msg, message bits then parity bits (an empty
    side has no block), each transposed and only as tall as the largest
    degree in it, so an RA parity bit has 2 slots, not q.  Their unused
    entries hold the sentinel check m.
    """
    deg = np.diff(code.check_indptr)
    check_slots = np.full((int(deg.max(initial=0)), code.m + 1), code.n, dtype=np.intp)
    edge_chk = code.edge_checks
    check_slots[np.arange(len(edge_chk)) - code.check_indptr[edge_chk], edge_chk] = code.check_vars
    # rows ascend and m is above every check id, so a row's pads are its last entries
    var_deg = np.bincount(code.check_vars, minlength=code.n)
    var_blocks = tuple(
        np.ascontiguousarray(code.padded_var_checks[lo:hi, : int(var_deg[lo:hi].max())].T)
        for lo, hi in ((0, code.n_msg), (code.n_msg, code.n)) if lo < hi
    )
    return check_slots, var_blocks


def _trial_rows(code: CodeInstance, tables: tuple, segments: tuple[tuple[float, int, int, int], ...],
                max_iters: int, seed: int) -> np.ndarray:
    """Per-trial tallies [word_err, msg_residual, all_residual, iters] for one task,
    peeled over the tables _lane_tables(code) returns.

    The task is its (eps, eps index, lo, hi) segments in order, trials lo
    to hi - 1 of each; the rows follow the same order.  Each trial draws
    from the task's one generator, re-keyed to counter 0 of the trial's
    stream with a key of one trial_keys call for the task.  Up to LANES trials
    peel together, trial by trial in bit lanes of one uint64 erasure word
    per variable, and each sweep is one synchronous peeling sweep in every
    lane.  A lane ends at its first sweep with no progress, once it has no
    erasure left or when it has used its budget; it then takes the task's
    next trial, of whichever segment that is.  Once no trial is left and at
    most HANDOFF lanes are live, each finishes alone in decode_peel from
    its current pattern with the rest of its budget, which gives the same
    sweeps, since a sweep depends only on the pattern it starts from.
    """
    check_slots, var_blocks = tables
    n, n_msg = code.n, code.n_msg
    sizes = [hi - lo for _, _, lo, hi in segments]
    total = sum(sizes)
    keys = trial_keys(seed, np.repeat([eps_idx for _, eps_idx, _, _ in segments], sizes),
                      np.concatenate([np.arange(lo, hi) for _, _, lo, hi in segments]))
    draws = zip(np.repeat([eps for eps, _, _, _ in segments], sizes).tolist(), keys.tolist())
    stream = np.random.Generator(np.random.Philox(key=keys[0]))
    state = stream.bit_generator.state  # counter 0, no word buffered: where every trial's stream starts
    out = np.zeros((total, 4), dtype=np.int64)
    zero = np.zeros(n, dtype=np.int8)
    words = np.zeros(n + 1, dtype=np.uint64)  # bit b of words[v]: v erased in lane b; n never is
    erased = words[:n]
    gathered = np.empty(check_slots.shape, dtype=np.uint64)
    once, twice, both = (np.empty(check_slots.shape[1], dtype=np.uint64) for _ in range(3))
    resolved = np.empty(n, dtype=np.uint64)
    fans, lo = [], 0  # each variable block's table, gather buffer and slice of resolved
    for table in var_blocks:
        fans.append((table, np.empty(table.shape, dtype=np.uint64), resolved[lo : lo + table.shape[1]]))
        lo += table.shape[1]
    lane_word = np.empty(n, dtype=np.uint64)
    trial, start = [0] * LANES, [0] * LANES  # each lane's row in out and its first sweep
    live = 0  # bit b set while lane b holds a trial
    nxt = 0  # the task's next trial, as a row of out
    sweep = 0

    def take_trial(lane: int) -> None:
        nonlocal nxt
        eps, state["state"]["key"] = next(draws)
        stream.bit_generator.state = state
        word = transmit_bec(zero, eps, stream)
        # ERASED (-1) widens to the lane's bit, 0 to 0; at lane 63 the product wraps to the sign bit
        np.multiply(word, -(1 << lane), out=lane_word.view(np.int64), dtype=np.int64)
        np.bitwise_or(erased, lane_word, out=erased)
        trial[lane], start[lane] = nxt, sweep
        nxt += 1

    for lane in range(min(LANES, total)):
        take_trial(lane)
        live |= 1 << lane
    while live and (nxt < total or live.bit_count() > HANDOFF):
        # checks: per lane, once marks an erased neighbour, twice a second one; every index
        # is in range, and mode="clip" spares take the copy it makes of out to check them
        words.take(check_slots, out=gathered, mode="clip")
        np.copyto(once, gathered[0])
        twice.fill(0)
        for row in gathered[1:]:
            np.bitwise_and(once, row, out=both)
            np.bitwise_or(twice, both, out=twice)
            np.bitwise_or(once, row, out=once)
        np.bitwise_not(twice, out=twice)
        np.bitwise_and(once, twice, out=once)  # exactly one; never at the sentinel check m
        # variables: an erased bit resolves in each lane in which one of its checks marks it
        for table, fanned, part in fans:
            once.take(table, out=fanned, mode="clip")
            np.bitwise_or.reduce(fanned, axis=0, out=part)
        np.bitwise_and(resolved, erased, out=resolved)
        np.bitwise_xor(erased, resolved, out=erased)
        sweep += 1
        progress = int(np.bitwise_or.reduce(resolved))
        left = int(np.bitwise_or.reduce(erased))
        ended = live & ~(progress & left)
        if sweep >= max_iters:
            ended |= sum(1 << b for b in _set_bits(live & progress) if sweep - start[b] == max_iters)
        for b in _set_bits(ended):
            iters = sweep - start[b] - (not progress >> b & 1)
            if left >> b & 1:
                np.bitwise_and(erased, np.uint64(1 << b), out=lane_word)
                out[trial[b]] = 1, np.count_nonzero(lane_word[:n_msg]), np.count_nonzero(lane_word), iters
                np.bitwise_xor(erased, lane_word, out=erased)
            else:
                out[trial[b], 3] = iters
            live ^= 1 << b
            if nxt < total:
                take_trial(b)
                live |= 1 << b
    for b in _set_bits(live):
        np.bitwise_and(erased, np.uint64(1 << b), out=lane_word)
        done = sweep - start[b]
        res = codec.decode_peel(code, np.where(lane_word, np.int8(ERASED), np.int8(0)), max_iters - done)
        out[trial[b]] = (not res.recovered, res.residual_message_bits, res.residual_all_bits,
                         done + res.iterations)
    return out


def _worker_entry(args) -> np.ndarray:
    return _trial_rows(*_worker_args, *args)


def run_sweep(code: CodeInstance, plan: SweepPlan, jobs: int = 1) -> SimResult:
    """Run the sweep; each rate keeps its trials up to its N-th word error.

    Up to jobs tasks run at once in a process pool of at most one worker
    per BATCH trials of the whole sweep's budget, every rate's trials
    counted (inline when that is one).  A task is filled walking the
    rates in grid order, so it may hold a segment of consecutive trials of
    each of several rates.  A rate's segment holds at most as many trials
    as word errors could still come before its stop, counting every trial
    in flight as one, so no segment starts that could run past the N-th
    word error in index order: the stop can fall only on a segment's last
    trial, every decoded trial is kept, and a task folds into the
    tallies as soon as it returns.  In a pool a task holds at most BATCH
    trials and at most a 1/jobs share of the trials all rates can still
    start, so the tasks shrink at the end of the sweep and no worker waits
    alone on the last one.  Inline, a task takes every trial that may
    start, up to LANES * BATCH so that its rows stay bounded, since every
    task end drains its lanes and BATCH serves only the workers.  The result
    is identical for any jobs value, and neither it nor the worker count
    depends on how trials are grouped.
    """
    if not (is_int(jobs) and jobs >= 1):
        raise SimulationError(f"jobs must be an integer >= 1, got {jobs!r}")
    # a fork pool starts every worker at once, so start no more than there are BATCH-sized tasks
    jobs = min(jobs, -(-len(plan.eps_grid) * plan.max_trials // BATCH))
    stop = plan.max_word_errors
    n_eps = len(plan.eps_grid)
    tallies = np.zeros((n_eps, 4), dtype=np.int64)
    submitted = [0] * n_eps  # trials started for each rate, all of them kept
    in_flight = [0] * n_eps  # trials started and not yet folded
    pending = {}  # future -> its task's segments

    def sure_room(ei: int) -> int:
        room = plan.max_trials - submitted[ei]
        return room if stop is None else min(room, stop - int(tallies[ei, 0]) - in_flight[ei])

    def take_task() -> tuple:
        cap = min(BATCH if jobs > 1 else LANES * BATCH, -(-sum(map(sure_room, range(n_eps))) // jobs))
        segments = []
        for ei, eps in enumerate(plan.eps_grid):
            if (size := min(cap, sure_room(ei))) > 0:
                segments.append((eps, ei, submitted[ei], submitted[ei] + size))
                submitted[ei] += size
                in_flight[ei] += size
                cap -= size
        return tuple(segments)

    def fold(segments, rows) -> None:
        for _, ei, lo, hi in segments:
            in_flight[ei] -= hi - lo
            tallies[ei] += rows[:hi - lo].sum(axis=0)
            rows = rows[hi - lo:]

    tables = _lane_tables(code)  # built once, here, so pool workers get them with the code
    with (ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(code, tables))
          if jobs > 1 else nullcontext()) as pool:
        while True:
            while len(pending) < jobs and (segments := take_task()):
                task = (segments, plan.max_iters, plan.seed)
                if pool is None:
                    fold(segments, _trial_rows(code, tables, *task))
                else:
                    pending[pool.submit(_worker_entry, task)] = segments
            if not pending:
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for f in done:
                fold(pending.pop(f), f.result())

    meta = {
        "build": code_build_id(code),
        "family": code.family,
        "n": code.n,
        "k": code.k,
        "message_bits": code.n_msg,
        "construction_seed": code.seed,
        "plan_seed": plan.seed,
        "max_trials": plan.max_trials,
        "max_word_errors": plan.max_word_errors,
        "max_iters": plan.max_iters,
        "params": repr(code.params),
    }
    return SimResult(
        eps=np.asarray(plan.eps_grid, dtype=np.float64),
        trials=np.asarray(submitted, dtype=np.int64),
        word_errors=tallies[:, 0],
        bit_errors_message=tallies[:, 1],
        bit_errors_all=tallies[:, 2],
        iteration_sum=tallies[:, 3],
        n=code.n,
        message_bit_count=code.n_msg,
        metadata=meta,
    )
