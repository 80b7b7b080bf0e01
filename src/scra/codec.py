"""Encoding and erasure decoding for explicit code instances.

Erasure words are int8 arrays over {0, 1, ERASED}.  The peeling decoder
runs synchronous sweeps: every check with exactly one erased neighbor at
the start of a sweep resolves it by XOR of its known neighbors.  A sweep
fans the resolved bits out through the code's padded variable adjacency,
whose pad entries land on a sentinel check m whose count never reaches 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scra.ensembles import is_int

ERASED = -1


class CodecError(ValueError):
    """Raised for words or instances a codec operation cannot accept."""


@dataclass
class DecodeOutcome:
    """Result of one decoding attempt.

    word holds the recovered values with ERASED at unresolved indices;
    residual counts split by variable kind; recovered means none is left.
    """

    word: np.ndarray
    iterations: int
    residual_message_bits: int
    residual_all_bits: int

    @property
    def recovered(self) -> bool:
        return self.residual_all_bits == 0


def _as_word(c, word) -> np.ndarray:
    arr = np.asarray(word, dtype=np.int8)
    if arr.shape != (c.n,):
        raise CodecError(f"word length {arr.shape} does not match code length n={c.n}")
    # one unsigned comparison: ERASED, 0 and 1 move to 0, 1 and 2, every other byte above 2
    if (arr.view(np.uint8) + 1 > 2).any():
        raise CodecError(f"word entries must be 0, 1 or {ERASED}")
    return arr


def encode(c, message) -> np.ndarray:
    """Encode a message on a coupled RA instance.

    The parity bits accumulate, in one forward pass along the chain, the
    syndrome of the message word with every parity bit 0, so parity bits
    at a check position depend only on message positions up to that point.

    Parameters
    ----------
    c : CodeInstance
        An instance of the "ra" family.
    message : array_like
        k bits in {0, 1}, position-major order.

    Returns
    -------
    np.ndarray
        Systematic codeword: message bits then parity bits in chain order.
    """
    if c.family != "ra":
        raise CodecError(f"encoding is defined for the 'ra' family, not {c.family!r}")
    msg = np.asarray(message, dtype=np.int8)
    if msg.shape != (c.k,):
        raise CodecError(f"message length {msg.shape} does not match k={c.k}")
    if ((msg < 0) | (msg > 1)).any():
        raise CodecError("message entries must be 0 or 1")
    word = np.concatenate([msg, np.zeros(c.m, dtype=np.int8)])
    word[c.k :] = np.cumsum(syndrome(c, word)) & 1
    return word


def syndrome(c, word) -> np.ndarray:
    """Per-check parity of a fully known word; zero for codewords."""
    arr = _as_word(c, word)
    if (arr == ERASED).any():
        raise CodecError("syndrome needs a fully known word")
    edge_chk = c.edge_checks
    ones = arr[c.check_vars] == 1
    return (np.bincount(edge_chk[ones], minlength=c.m) & 1).astype(np.uint8)


def transmit_bec(codeword, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Erase each bit independently with probability eps.

    Bit i is erased where rng.random(n)[i] < eps, decided on the raw words
    of the generator's stream: random() is (raw >> 11) * 2**-53, so the
    compare is (raw >> 11) < ceil(eps * 2**53), or raw <= that bound << 11
    minus 1, exactly, and it leaves the generator where random(n) would.
    """
    if not 0.0 <= eps <= 1.0:
        raise CodecError(f"erasure probability must lie in [0, 1], got {eps}")
    word = np.asarray(codeword, dtype=np.int8)
    if (word.view(np.uint8) > 1).any():
        raise CodecError("codeword entries must be 0 or 1")
    raw = rng.bit_generator.random_raw(len(word))
    bound = (math.ceil(eps * 2.0**53) << 11) - 1  # eps * 2**53 is exact; bound -1 at eps 0, 2**64 - 1 at 1
    # ERASED is all ones in int8: OR each bit with 0 or -1 from the negated draw mask, none at eps 0
    erase = (raw <= np.uint64(bound) if bound >= 0 else np.zeros(len(raw), dtype=bool)).view(np.int8)
    return np.bitwise_or(word, np.negative(erase, out=erase), out=erase)


def decode_peel(c, word, max_iters: int = 1000) -> DecodeOutcome:
    """Peel a received erasure word with synchronous sweeps.

    One iteration is a full sweep: the set of checks with exactly one
    erased neighbor is read off the state at the sweep start, then all of
    them resolve.  Stops on full recovery, on a sweep with no progress, or
    at max_iters.  The decoder never guesses; known bits are never
    rewritten.

    Parameters
    ----------
    c : CodeInstance
    word : array_like
        Length-n int8 word over {0, 1, ERASED}.
    max_iters : int
        Sweep budget; at 0 or below no sweep runs.

    Returns
    -------
    DecodeOutcome
    """
    if not is_int(max_iters):
        raise CodecError(f"max_iters must be an integer, got {max_iters!r}")
    work = _as_word(c, word).copy()
    erased = np.flatnonzero(work == ERASED)
    n_unknown = erased.size
    if n_unknown == 0:
        return DecodeOutcome(work, 0, 0, 0)

    m = c.m
    var_chk = c.padded_var_checks
    dmax = var_chk.shape[1]
    # per check: count and id sum of its erased neighbors, count of its ones; pad entries land
    # on the sentinel check m, whose count starts above all its decrements, so it never reads 1
    touched = var_chk.take(erased, 0).ravel()
    cnt = np.bincount(touched, minlength=m + 1)
    cnt[m] = touched.size + 2
    isum = np.bincount(touched, weights=erased.astype(np.float64).repeat(dmax), minlength=m + 1).astype(np.int64)
    # a check's ones decide the bit it resolves; in a word with no 1 every resolved bit is 0
    ones = np.flatnonzero(work == 1)
    acc = np.bincount(var_chk.take(ones, 0).ravel(), minlength=m + 1) if ones.size else None

    slot = np.empty(c.n, dtype=np.intp)
    candidates = np.flatnonzero(cnt == 1)
    iters = 0
    while candidates.size and n_unknown and iters < max_iters:
        sel = candidates[cnt[candidates] == 1]
        if sel.size == 0:
            break
        bits = isum[sel]
        # duplicates agree on the BEC: keep the last writer of each bit
        order = np.arange(bits.size)
        slot[bits] = order
        keep = slot[bits] == order
        bits = bits[keep]
        n_unknown -= bits.size
        iters += 1

        touched = var_chk.take(bits, 0).ravel()
        np.subtract.at(cnt, touched, 1)
        np.subtract.at(isum, touched, bits.repeat(dmax))
        if acc is None:
            work[bits] = 0
        else:
            vals = acc[sel[keep]] & 1
            work[bits] = vals
            if np.count_nonzero(vals):
                np.add.at(acc, touched, vals.repeat(dmax))
        candidates = touched

    return DecodeOutcome(work, iters, int(np.count_nonzero(work[: c.n_msg] == ERASED)), n_unknown)
