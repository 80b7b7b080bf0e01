"""Reference decoders, views and loops that only the tests use.

The exact ML erasure oracle, the dense parity-check matrix, the
descriptor as a dict, the two-key edge sort, the per-sweep peeling trace,
the per-iteration DE loop and the in-order word-error stop.  They check
the library from outside, so they live with the tests; pytest does not
collect this module.
"""

from __future__ import annotations

import numpy as np

from scra.codec import (
    ERASED,
    FULLY_RECOVERED,
    STALLED,
    CodecError,
    DecodeOutcome,
    _as_word,
    decode_peel,
)
from scra.construct import DESCRIPTOR_FORMAT, DESCRIPTOR_VERSION, _params_to_json
from scra.density_evolution import DELTA_STALL, DELTA_SUCCESS, MAX_ITERS, DeRunResult, DeState

_ML_SIZE_LIMIT = 10_000


def h_dense(c) -> np.ndarray:
    """Dense 0/1 parity-check matrix; intended for small instances."""
    h = np.zeros((c.m, c.n), dtype=np.uint8)
    h[c.edge_checks, c.check_vars] = 1
    return h


def descriptor_dict(c) -> dict:
    """The descriptor as a dict; save_descriptor writes the bytes of
    json.dumps(descriptor_dict(c), sort_keys=True, separators=(",", ":")) + "\n"."""
    ids, ptr = c.check_vars.tolist(), c.check_indptr.tolist()
    return {
        "format": DESCRIPTOR_FORMAT,
        "version": DESCRIPTOR_VERSION,
        "params": _params_to_json(c.params),
        "seed": c.seed,
        "n": c.n,
        "checks": [ids[lo:hi] for lo, hi in zip(ptr[:-1], ptr[1:])],
    }


def edge_order_reference(major, minor) -> np.ndarray:
    """Stable order of edges by (major, minor): a two-key lexsort."""
    return np.lexsort((minor, major))


def _residuals(c, unknown: np.ndarray) -> tuple[int, int]:
    return int(np.count_nonzero(unknown[: c.n_msg])), int(np.count_nonzero(unknown))


def decode_ml_oracle(c, word) -> DecodeOutcome:
    """Exact erasure recovery by GF(2) elimination on the erased columns.

    Every bit whose value agrees across all codeword completions is
    filled; the rest stay erased.  Full recovery iff the erased columns
    have full rank.  Intended as a correctness oracle for small codes;
    guarded to n <= 10_000.
    """
    if c.n > _ML_SIZE_LIMIT:
        raise CodecError(f"ML oracle is limited to n <= {_ML_SIZE_LIMIT}, got n={c.n}")
    work = _as_word(c, word).copy()
    unknown_idx = np.flatnonzero(work == ERASED)
    e = len(unknown_idx)
    if e == 0:
        res_m, res_a = _residuals(c, work == ERASED)
        return DecodeOutcome(FULLY_RECOVERED, work, 0, res_m, res_a)

    col_of = np.full(c.n, -1, dtype=np.int64)
    col_of[unknown_idx] = np.arange(e)
    words = (e + 1 + 63) // 64  # one extra bit for the right-hand side
    rows = np.zeros((c.m, words), dtype=np.uint64)

    edge_chk = c.edge_checks
    edge_col = col_of[c.check_vars]
    sel = edge_col >= 0
    flat_idx = edge_chk[sel] * words + (edge_col[sel] >> 6)
    np.bitwise_or.at(
        rows.reshape(-1), flat_idx, np.uint64(1) << (edge_col[sel] & 63).astype(np.uint64)
    )
    known_one = (~sel) & (work[c.check_vars] == 1)
    rhs = np.bincount(edge_chk[known_one], minlength=c.m) & 1
    rhs_word, rhs_bit = e >> 6, np.uint64(1) << np.uint64(e & 63)
    rows[rhs == 1, rhs_word] |= rhs_bit

    rank = 0
    pivot_cols = []
    for col in range(e):
        w, b = col >> 6, np.uint64(1) << np.uint64(col & 63)
        below = np.flatnonzero(rows[rank:, w] & b)
        if below.size == 0:
            continue  # free column
        piv = rank + below[0]
        if piv != rank:
            rows[[rank, piv]] = rows[[piv, rank]]
        hit = (rows[:, w] & b) != 0
        hit[rank] = False
        rows[hit] ^= rows[rank]
        pivot_cols.append(col)
        rank += 1
        if rank == c.m:
            break
    if np.any(rows[rank:, rhs_word] & rhs_bit):
        raise CodecError("inconsistent erasure word: no codeword completion exists")

    filled = 0
    for r, col in enumerate(pivot_cols):
        row = rows[r].copy()
        row[col >> 6] &= ~(np.uint64(1) << np.uint64(col & 63))
        value = int(row[rhs_word] & rhs_bit != 0)
        row[rhs_word] &= ~rhs_bit
        if not row.any():  # support is the pivot alone: uniquely determined
            work[unknown_idx[col]] = value
            filled += 1

    unknown = work == ERASED
    res_m, res_a = _residuals(c, unknown)
    status = FULLY_RECOVERED if filled == e else STALLED
    return DecodeOutcome(status, work, 0, res_m, res_a)


def peel_trace(c, word, max_iters: int) -> np.ndarray:
    """Fraction of still-erased message bits per position after each peeling sweep.

    Steps decode_peel one sweep at a time, each from the previous word, so
    row t is the state after sweep t+1.  Stops at max_iters or at the
    first sweep that resolves nothing, as one call of decode_peel does.
    """
    msg_pos = c.var_pos[: c.n_msg]
    totals = np.bincount(msg_pos)
    rows = []
    for _ in range(max_iters):
        out = decode_peel(c, word, max_iters=1)
        if out.iterations == 0:
            break
        word = out.word
        rows.append(np.bincount(msg_pos[word[: c.n_msg] == ERASED], minlength=totals.size) / totals)
    return np.array(rows).reshape(len(rows), totals.size)


def de_run_reference(model, eps: float, max_iters: int = MAX_ITERS) -> DeRunResult:
    """de_run as one step, one residual and one change per iteration.

    Each step goes into fresh arrays through model.step.  The residual is
    the largest x; the change is the largest move of x, taken with that of
    y through Python's max, so a NaN move of x stops the run and one of y
    alone does not.
    """

    def residual(s: DeState) -> float:
        return float(np.maximum.reduce(s.x, None))

    def change(old: DeState, new: DeState) -> float:
        d = float(np.maximum.reduce(np.abs(new.x - old.x), None))
        if new.y is not None:
            d = max(d, float(np.maximum.reduce(np.abs(new.y - old.y), None)))
        return d

    state = model.initial_state(eps)
    for _ in range(max_iters):
        new = model.step(state)
        res = residual(new)
        if res < DELTA_SUCCESS:
            return DeRunResult("converged", new.iteration, res)
        if not change(state, new) >= DELTA_STALL:
            return DeRunResult("stalled", new.iteration, res)
        state = new
    return DeRunResult("budget", state.iteration, residual(state))


def stop_prefix(word_err_flags: np.ndarray, max_word_errors: int | None) -> int | None:
    """Trials a sweep keeps once its word-error stop fires on the in-order prefix, else None."""
    if max_word_errors is None:
        return None
    cum = np.cumsum(word_err_flags)
    if cum[-1] < max_word_errors:
        return None
    return int(np.searchsorted(cum, max_word_errors)) + 1
