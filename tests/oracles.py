"""Reference decoders, views and loops that only the tests use.

The exact ML erasure oracle, the dense parity-check matrix, hand-built
codes and an alist reader, the descriptor as a dict, the two-key edge
sort, the chain positions, the per-sweep peeling trace, the peeling loop
that resets its sentinel every sweep, the Monte Carlo trials one
decode_peel at a time, the structured DE step as a loop, the
per-iteration DE loop with its front rule, the in-order word-error stop,
the waterfall locator on a sweep's WER curve, and the GF(2) rank and
greedy triangulation gap that count an encoder's work.  They check the
library from outside, so they live with the tests; pytest does not
collect this module.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from scra.codec import (
    ERASED,
    CodecError,
    DecodeOutcome,
    _as_word,
    decode_peel,
    transmit_bec,
)
from scra.construct import DESCRIPTOR_FORMAT, DESCRIPTOR_VERSION, CodeInstance, _params_to_json
from scra.density_evolution import (
    DELTA_STALL,
    DELTA_SUCCESS,
    DE_BLOCK,
    FRONT_ADVANCE,
    FRONT_DECODED,
    FRONT_DROP,
    FRONT_EVERY,
    MAX_ITERS,
    DeRunResult,
    DeState,
)
from scra.simulate import SimResult, SimulationError, trial_stream

_ML_SIZE_LIMIT = 10_000


def h_dense(c) -> np.ndarray:
    """Dense 0/1 parity-check matrix; intended for small instances."""
    h = np.zeros((c.m, c.n), dtype=np.uint8)
    h[c.edge_checks, c.check_vars] = 1
    return h


def check_neighbors(c, t: int) -> np.ndarray:
    """The variable ids of check t, in the order check_vars holds them."""
    return c.check_vars[c.check_indptr[t] : c.check_indptr[t + 1]]


class _ToyCode(CodeInstance):
    """A hand-built graph with no parameters, seed or positions; every
    variable counts as a message bit."""

    family = "toy"
    n_msg = property(lambda self: self.n)


def toy_code(rows, n: int) -> CodeInstance:
    """The code over n variables whose check t holds the variable ids rows[t]."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return _ToyCode(None, None, n, indptr, np.array([v for r in rows for v in r], dtype=np.int32))


def read_alist(text: str) -> CodeInstance:
    """The toy code of alist text as export_alist writes it; its column
    lists must be those its rows imply."""
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    lists = [[int(t) - 1 for t in line.split()] for line in lines[4 : 4 + n + m]]
    c = toy_code(lists[n:], n)
    assert [row[row < m].tolist() for row in c.padded_var_checks] == lists[:n]
    return c


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
        return DecodeOutcome(work, 0, res_m, res_a)

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

    for r, col in enumerate(pivot_cols):
        row = rows[r].copy()
        row[col >> 6] &= ~(np.uint64(1) << np.uint64(col & 63))
        value = int(row[rhs_word] & rhs_bit != 0)
        row[rhs_word] &= ~rhs_bit
        if not row.any():  # support is the pivot alone: uniquely determined
            work[unknown_idx[col]] = value

    res_m, res_a = _residuals(c, work == ERASED)
    return DecodeOutcome(work, 0, res_m, res_a)


def positions(c) -> tuple[np.ndarray, np.ndarray]:
    """Chain positions of every variable and of every check, from the geometry.

    Message bit v sits at v // M, check t at t // checks_per_pos, and a
    parity bit at the position of its check.
    """
    check_pos = np.arange(c.m) // c.params.checks_per_pos
    return np.concatenate([np.arange(c.n_msg) // c.params.M, check_pos[: c.n - c.n_msg]]), check_pos


def peel_trace(c, word, max_iters: int) -> np.ndarray:
    """Fraction of still-erased message bits per position after each peeling sweep.

    Steps decode_peel one sweep at a time, each from the previous word, so
    row t is the state after sweep t+1.  Stops at max_iters or at the
    first sweep that resolves nothing, as one call of decode_peel does.
    """
    msg_pos = positions(c)[0][: c.n_msg]
    totals = np.bincount(msg_pos)
    rows = []
    for _ in range(max_iters):
        out = decode_peel(c, word, max_iters=1)
        if out.iterations == 0:
            break
        word = out.word
        rows.append(np.bincount(msg_pos[word[: c.n_msg] == ERASED], minlength=totals.size) / totals)
    return np.array(rows).reshape(len(rows), totals.size)


def peel_reference(c, word, max_iters: int = 1000) -> DecodeOutcome:
    """decode_peel with a full ones tally and a sentinel reset after every update.

    The pad entries of the padded variable table land on the sentinel
    check m, whose count, id sum and ones tally are zeroed after the
    initial tallies and after each sweep's updates, so it never resolves.
    Resolved bits take the parity of their check's ones whether or not the
    word holds a 1, and duplicates keep the last writer through a ramp
    allocated once per call.
    """
    work = _as_word(c, word).copy()
    erased = np.flatnonzero(work == ERASED)
    n_unknown = erased.size
    if n_unknown == 0:
        return DecodeOutcome(work, 0, 0, 0)

    m = c.m
    var_chk = c.padded_var_checks
    dmax = var_chk.shape[1]
    touched = var_chk[erased].ravel()
    cnt = np.bincount(touched, minlength=m + 1)
    isum = np.bincount(touched, weights=erased.astype(np.float64).repeat(dmax), minlength=m + 1).astype(np.int64)
    acc = np.bincount(var_chk[np.flatnonzero(work == 1)].ravel(), minlength=m + 1)
    cnt[m] = isum[m] = acc[m] = 0

    slot = np.empty(c.n, dtype=np.intp)
    ramp = np.arange(max(m + 1, touched.size))
    candidates = np.flatnonzero(cnt == 1)
    iters = 0
    while candidates.size and n_unknown and iters < max_iters:
        sel = candidates[cnt[candidates] == 1]
        if sel.size == 0:
            break
        bits = isum[sel]
        order = ramp[: bits.size]
        slot[bits] = order
        keep = slot[bits] == order
        bits = bits[keep]
        vals = acc[sel[keep]] & 1
        work[bits] = vals
        n_unknown -= bits.size
        iters += 1

        touched = var_chk[bits].ravel()
        np.subtract.at(cnt, touched, 1)
        np.subtract.at(isum, touched, bits.repeat(dmax))
        if np.count_nonzero(vals):
            np.add.at(acc, touched, vals.repeat(dmax))
        cnt[m] = isum[m] = acc[m] = 0
        candidates = touched

    return DecodeOutcome(work, iters, int(np.count_nonzero(work[: c.n_msg] == ERASED)), n_unknown)


def trial_rows_reference(c, eps: float, eps_idx: int, lo: int, hi: int,
                         max_iters: int, seed: int) -> np.ndarray:
    """simulate._trial_rows one trial at a time: each trial's channel draw, then decode_peel."""
    out = np.zeros((hi - lo, 4), dtype=np.int64)
    zero = np.zeros(c.n, dtype=np.int8)
    for t in range(lo, hi):
        res = decode_peel(c, transmit_bec(zero, eps, trial_stream(seed, eps_idx, t)), max_iters)
        out[t - lo] = not res.recovered, res.residual_message_bits, res.residual_all_bits, res.iterations
    return out


def proto_step_reference(model, s: DeState):
    """The structured step as a loop over the coupling width, with sliding windows.

    Returns the new x, the new left and right accumulator rows of y (None
    for LDPC, whose y is empty) and the check-to-message erasure z of the step.
    """
    p = model.p
    n_sources = p.sources_per_check_pos().astype(np.float64)
    mean_deg = p.combine * n_sources / p.width
    tot = np.zeros(p.n_chk_pos)
    for d in range(p.width):
        tot[d : d + p.span] += s.x[:, d]
    xbar = tot / n_sources
    clean = (1.0 - xbar) ** (mean_deg - 1.0)
    if s.y.size:
        y_left, y_right = s.y
        clean = clean * (1.0 - y_left) * (1.0 - y_right)
    z = 1.0 - clean
    zw = sliding_window_view(z, p.width)
    pre = np.ones_like(zw)
    np.cumprod(zw[:, :-1], axis=1, out=pre[:, 1:])
    suf = np.ones_like(zw)
    suf[:, :-1] = np.cumprod(zw[:, :0:-1], axis=1)[:, ::-1]
    x = s.eps * pre * suf
    if not s.y.size:
        return x, None, None, z
    through = (1.0 - xbar) ** mean_deg
    return x, s.eps * (1.0 - (1.0 - y_left) * through), s.eps * (1.0 - (1.0 - y_right) * through), z


def de_run_reference(model, eps: float, max_iters: int = MAX_ITERS) -> DeRunResult:
    """de_run as one step, one residual and one change per iteration.

    Each step goes into fresh arrays through model.step.  The residual is
    the largest x; the change is the largest move of x, taken with that of
    y through Python's max, so a NaN move of x stops the run and one of y
    alone does not.  A model with a front, on a chain of more than one
    position, also gets two front rules after the converged and stall
    checks: the front stall at every multiple of FRONT_EVERY, then the wave
    at every multiple of DE_BLOCK from 2 FRONT_EVERY on.  The front is
    counted here, as the positions whose largest x is below FRONT_DECODED,
    not taken from the model, and recorded with the change at every
    multiple of DE_BLOCK.  The iterations are counted here too.
    """

    def residual(s: DeState) -> float:
        return float(np.maximum.reduce(s.x, None))

    def change(old: DeState, new: DeState) -> float:
        d = float(np.maximum.reduce(np.abs(new.x - old.x), None))
        if new.y.size:
            d = max(d, float(np.maximum.reduce(np.abs(new.y - old.y), None)))
        return d

    def front(s: DeState) -> int:
        return sum(float(np.max(row)) < FRONT_DECODED for row in s.x)

    state = model.initial_state(eps)
    has_front = getattr(model, "front", None) is not None and len(state.x) > 1
    marks = {}  # iteration -> (front, change)
    for t in range(1, max_iters + 1):
        new = model.step(state)
        res = residual(new)
        if res < DELTA_SUCCESS:
            return DeRunResult("converged", t, res)
        chg = change(state, new)
        if not chg >= DELTA_STALL:
            return DeRunResult("stalled", t, res)
        if has_front and t % DE_BLOCK == 0:
            marks[t] = front(new), chg
        if has_front and t % FRONT_EVERY == 0:
            h = max(t // 2 // FRONT_EVERY * FRONT_EVERY, FRONT_EVERY)
            if marks[t][0] == marks[h][0] and chg <= marks[h][1] / FRONT_DROP:
                return DeRunResult("front-stalled", t, res)
        if has_front and t % DE_BLOCK == 0 and t >= 2 * FRONT_EVERY:
            h = max(t // 2 // DE_BLOCK * DE_BLOCK, FRONT_EVERY)
            if marks[t][0] - marks[h][0] >= FRONT_ADVANCE and chg >= marks[h][1]:
                return DeRunResult("wave-converged", t, res)
        state = new
    return DeRunResult("budget", max(max_iters, 0), residual(state))


def stop_prefix(word_err_flags: np.ndarray, max_word_errors: int | None) -> int | None:
    """Trials a sweep keeps once its word-error stop fires on the in-order prefix, else None."""
    if max_word_errors is None:
        return None
    cum = np.cumsum(word_err_flags)
    if cum[-1] < max_word_errors:
        return None
    return int(np.searchsorted(cum, max_word_errors)) + 1


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


def gf2_rank(c) -> int:
    """Rank of the parity-check matrix over GF(2), by elimination on rows packed 64
    columns to a word."""
    rows = np.zeros((c.m, (c.n + 63) // 64), dtype=np.uint64)
    np.bitwise_or.at(rows, (c.edge_checks, c.check_vars >> 6),
                     np.uint64(1) << (c.check_vars & 63).astype(np.uint64))
    rank = 0
    for col in range(c.n):
        w, b = col >> 6, np.uint64(1) << np.uint64(col & 63)
        hit = rank + np.flatnonzero(rows[rank:, w] & b)
        if hit.size == 0:
            continue
        rows[[rank, hit[0]]] = rows[[hit[0], rank]]
        rows[hit[1:]] ^= rows[rank]
        rank += 1
        if rank == c.m:
            break
    return rank


def greedy_gap(c, first=()) -> int:
    """The gap of a greedy triangulation of the parity-check matrix.

    Peels the all-unknown word.  Whenever no check has exactly one unknown
    neighbour, it declares a variable known: the next still unknown one of
    first, then the lowest unknown neighbour of the lowest-id live check with
    the fewest unknowns.  Richardson and Urbanke encode in O(n + g^2) work,
    with g the number declared less the true k = n - rank(H): the size of the
    dense solve that peeling leaves.  g is never negative, since the declared
    bits and the checks fix every bit.
    """
    var_chk = c.padded_var_checks
    # pad entries land on check m, whose count starts at 0 and only falls
    cnt = np.append(np.diff(c.check_indptr), 0)
    unknown = np.ones(c.n, dtype=bool)
    first, declared = iter(first), 0
    while unknown.any():
        v = next(first, None)
        if v is None:
            # every variable has a check, so an unknown one leaves a check live
            live = np.flatnonzero(cnt[: c.m] > 0)
            nb = check_neighbors(c, live[np.argmin(cnt[live])])
            v = nb[unknown[nb]][0]
        elif not unknown[v]:
            continue
        declared += 1
        todo = [v]
        while todo:
            v = todo.pop()
            if not unknown[v]:
                continue
            unknown[v] = False
            checks = var_chk[v]
            np.subtract.at(cnt, checks, 1)
            for t in checks[cnt[checks] == 1]:
                nb = check_neighbors(c, t)
                todo.append(nb[unknown[nb]][0])
    return declared - (c.n - gf2_rank(c))
