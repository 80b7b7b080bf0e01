"""Monte Carlo decoding experiments on the binary erasure channel.

Transmission uses the all-zero codeword (erasure decoding is blind to the
transmitted values, which toy-code tests verify).  Every trial draws from
a counter-based stream keyed by (seed, eps index, trial index).  Batches
of trials stream through the workers across all rates, and no batch
starts that could run past a rate's N-th word error in index order, so
every decoded trial is kept and results are identical for any worker
count.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from scra.codec import decode_peel, transmit_bec
from scra.construct import CodeInstance, _write_text

Z95 = 1.959963984540054  # two-sided 95% normal quantile
BATCH = 50  # most trials per task; near a word-error stop a task shrinks so as not to pass it


class SimulationError(RuntimeError):
    """Raised for unusable sweep plans or unlocatable features."""


@dataclass(frozen=True)
class SweepPlan:
    """One erasure-rate sweep.

    eps_grid: channel erasure rates to visit, each in [0, 1].
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
        if len(self.eps_grid) == 0:
            raise SimulationError("eps_grid must not be empty")
        if any(not 0.0 <= e <= 1.0 for e in self.eps_grid):
            raise SimulationError("every eps must lie in [0, 1]")
        if self.max_trials < 1:
            raise SimulationError("max_trials must be >= 1")
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
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    if count < 1:
        raise SimulationError(f"empty eps range {start}:{stop}:{step}")
    return tuple(float(start + i * step) for i in range(count))


def trial_stream(seed: int, eps_index: int, trial_index: int) -> np.random.Generator:
    """Counter-based channel stream for one (rate, trial) cell."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(eps_index, trial_index))
    return np.random.Generator(np.random.Philox(ss))


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
        lines = ["# scra-sim v1"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}={self.metadata[key]}")
        lines.append("eps,trials,word_err,wer,wer_lo,wer_hi,bit_err_msg,ber_msg,ber_all,mean_iters")
        for i in range(len(self.eps)):
            lines.append(
                f"{self.eps[i]:.6f},{int(self.trials[i])},{int(self.word_errors[i])},"
                f"{wer[i]:.10g},{lo[i]:.10g},{hi[i]:.10g},"
                f"{int(self.bit_errors_message[i])},{ber_m[i]:.10g},{ber_a[i]:.10g},{mi[i]:.10g}"
            )
        _write_text(dest, "\n".join(lines) + "\n")


def code_build_id(c: CodeInstance) -> str:
    """Content hash of the code's identity and graph, used as the build identifier.

    Hashes (family, params, seed, n, k) and five arrays as int64, so a saved
    and reloaded code keeps its id whatever the arrays' dtypes.  The first
    three arrays (variable kinds, variable and check positions) follow from
    the parameters, yet they are still hashed, so that every build id, and
    with it every simulate CSV, stays what it was when codes stored them.
    """
    h = hashlib.sha256(repr((c.family, c.params, c.seed, c.n, c.k)).encode())
    var_kind = np.arange(c.n) >= c.n_msg  # 0 for message bits, 1 for parity bits
    for arr in (var_kind, c.var_pos, c.check_pos, c.check_indptr, c.check_vars):
        h.update(np.asarray(arr, dtype=np.int64).tobytes())
    return h.hexdigest()[:12]


_worker_code: CodeInstance | None = None


def _init_worker(code: CodeInstance) -> None:
    global _worker_code
    _worker_code = code


def _trial_rows(code: CodeInstance, eps: float, eps_idx: int, lo: int, hi: int,
                max_iters: int, seed: int) -> np.ndarray:
    """Per-trial tallies [word_err, msg_residual, all_residual, iters] for one batch."""
    out = np.zeros((hi - lo, 4), dtype=np.int64)
    zero = np.zeros(code.n, dtype=np.int8)
    for t in range(lo, hi):
        rng = trial_stream(seed, eps_idx, t)
        word = transmit_bec(zero, eps, rng)
        res = decode_peel(code, word, max_iters=max_iters)
        out[t - lo] = (
            0 if res.recovered else 1,
            res.residual_message_bits,
            res.residual_all_bits,
            res.iterations,
        )
    return out


def _worker_entry(args) -> np.ndarray:
    eps, eps_idx, lo, hi, max_iters, seed = args
    return _trial_rows(_worker_code, eps, eps_idx, lo, hi, max_iters, seed)


def run_sweep(code: CodeInstance, plan: SweepPlan, jobs: int = 1) -> SimResult:
    """Run the sweep; each rate keeps its trials up to its N-th word error.

    Up to jobs batches run at once, across all rates, in a process pool of
    at most one worker per BATCH trials of the whole sweep's budget, every
    rate's trials counted (inline when that is one).  A rate's next batch
    holds at most as many trials as word errors could still come before
    its stop, counting every trial in flight as one, so no batch starts
    that could run past the N-th word error in index order: the stop can
    fall only on a batch's last trial, every decoded trial is kept, and a
    batch folds into the tallies as soon as it returns.  It also holds at
    most a 1/jobs share of the trials all rates can still start, so the
    batches shrink at the end of the sweep and no worker waits alone on
    the last one.  The result is identical for any jobs value.
    """
    if jobs < 1:
        raise SimulationError("jobs must be >= 1")
    # a fork pool starts every worker at once, so start no more than there are batches
    jobs = min(jobs, -(-len(plan.eps_grid) * plan.max_trials // BATCH))
    stop = plan.max_word_errors
    n_eps = len(plan.eps_grid)
    tallies = np.zeros((n_eps, 4), dtype=np.int64)
    submitted = [0] * n_eps  # trials started for each rate, all of them kept
    in_flight = [0] * n_eps  # trials started and not yet folded
    pending = {}  # future -> eps index

    def sure_room(ei: int) -> int:
        room = plan.max_trials - submitted[ei]
        return room if stop is None else min(room, stop - int(tallies[ei, 0]) - in_flight[ei])

    def sure_batch(ei: int) -> int:
        return min(BATCH, sure_room(ei), -(-sum(map(sure_room, range(n_eps))) // jobs))

    with (ProcessPoolExecutor(jobs, initializer=_init_worker, initargs=(code,))
          if jobs > 1 else nullcontext()) as pool:
        while True:
            for ei, eps in enumerate(plan.eps_grid):
                while len(pending) < jobs and (size := sure_batch(ei)) > 0:
                    task = (eps, ei, submitted[ei], submitted[ei] + size, plan.max_iters, plan.seed)
                    submitted[ei] += size
                    if pool is None:
                        tallies[ei] += _trial_rows(code, *task).sum(axis=0)
                    else:
                        in_flight[ei] += size
                        pending[pool.submit(_worker_entry, task)] = ei
            if not pending:
                break
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for f in done:
                ei, rows = pending.pop(f), f.result()
                in_flight[ei] -= len(rows)
                tallies[ei] += rows.sum(axis=0)

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
    }
    if code.params is not None:
        meta["params"] = repr(code.params)
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


def waterfall_crossing(result: SimResult, level: float = 0.5) -> float:
    """Erasure rate where the WER curve crosses `level`.

    Takes the last grid bracket with wer[i] <= level < wer[i+1] and
    interpolates log-WER linearly inside it; a zero count is floored at
    half a trial for the logarithm.
    """
    wer = result.wer()
    bracket = None
    for i in range(len(wer) - 1):
        if wer[i] <= level < wer[i + 1]:
            bracket = i
    if bracket is None:
        raise SimulationError(f"WER never crosses {level} inside the grid")
    i = bracket
    floor_i = 0.5 / result.trials[i]
    la = np.log(max(wer[i], floor_i))
    lb = np.log(wer[i + 1])
    t = (np.log(level) - la) / (lb - la) if lb != la else 0.5
    return float(result.eps[i] + t * (result.eps[i + 1] - result.eps[i]))

