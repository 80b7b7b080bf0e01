"""Encoder, channel, peeling decoder, and the exact erasure oracle."""

import itertools

import numpy as np
import pytest

from oracles import check_neighbors, decode_ml_oracle, h_dense, peel_reference, peel_trace, positions, toy_code
from scra.codec import (
    ERASED,
    CodecError,
    decode_peel,
    encode,
    syndrome,
    transmit_bec,
)
from scra.construct import build_sc_ldpc, build_sc_ra
from scra.ensembles import ScLdpcParams, ScRaParams


def small_ra(seed=0):
    return build_sc_ra(ScRaParams(q=3, a=3, L=1, M=2), seed)


def encode_reference(c, message):
    """Forward substitution on the dense parity-check matrix."""
    h = h_dense(c)
    word = np.zeros(c.n, dtype=np.int8)
    word[: c.k] = message
    for t in range(c.m):
        nbrs = np.flatnonzero(h[t])
        parity_bit = c.k + t
        others = nbrs[nbrs != parity_bit]
        word[parity_bit] = word[others].sum() % 2
    return word


def test_encode_zero_message():
    c = small_ra()
    np.testing.assert_array_equal(encode(c, np.zeros(c.k, dtype=np.int8)), np.zeros(c.n))


def test_encode_matches_dense_forward_substitution():
    c = small_ra()
    for bits in itertools.product((0, 1), repeat=c.k):
        msg = np.array(bits, dtype=np.int8)
        word = encode(c, msg)
        np.testing.assert_array_equal(word, encode_reference(c, msg))
        np.testing.assert_array_equal(syndrome(c, word), np.zeros(c.m))


@pytest.mark.parametrize("q,a,L,M", [(4, 4, 2, 4), (6, 6, 2, 6), (4, 2, 3, 4)])
def test_encode_syndrome_zero_random_messages(q, a, L, M):
    c = build_sc_ra(ScRaParams(q, a, L, M), seed=5)
    rng = np.random.default_rng(17)
    for _ in range(100):
        word = encode(c, rng.integers(0, 2, c.k).astype(np.int8))
        assert not syndrome(c, word).any()


def test_parity_prefix_depends_only_on_message_prefix():
    """Toggling later message positions never rewrites earlier parity."""
    c = build_sc_ra(ScRaParams(4, 4, 2, 4), seed=2)
    rng = np.random.default_rng(3)
    span = 2 * c.params.L + 1
    var_pos, check_pos = positions(c)
    for prefix_end in range(span - 1):
        base = rng.integers(0, 2, c.k).astype(np.int8)
        keep = var_pos[: c.k] <= prefix_end
        w0 = encode(c, base)
        for _ in range(10):
            other = rng.integers(0, 2, c.k).astype(np.int8)
            other[keep] = base[keep]
            w1 = encode(c, other)
            stable = np.flatnonzero(check_pos <= prefix_end)
            np.testing.assert_array_equal(w0[c.k + stable], w1[c.k + stable])


def test_encode_rejects_bad_input():
    c = small_ra()
    with pytest.raises(CodecError):
        encode(c, np.zeros(c.k - 1, dtype=np.int8))
    for value in (2, ERASED):
        with pytest.raises(CodecError):
            encode(c, np.full(c.k, value, dtype=np.int8))
    ldpc = build_sc_ldpc(ScLdpcParams(3, 6, 1, 2), 0)
    with pytest.raises(CodecError):
        encode(ldpc, np.zeros(ldpc.k, dtype=np.int8))


def test_syndrome_flipped_bit_marks_its_checks():
    c = small_ra()
    h = h_dense(c)
    for v in range(c.n):
        word = np.zeros(c.n, dtype=np.int8)
        word[v] = 1
        np.testing.assert_array_equal(syndrome(c, word), h[:, v])


def test_syndrome_rejects_erasures():
    c = small_ra()
    word = np.zeros(c.n, dtype=np.int8)
    word[3] = ERASED
    with pytest.raises(CodecError):
        syndrome(c, word)


def test_transmit_bec_endpoints_and_rate():
    word = np.zeros(100_000, dtype=np.int8)
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(transmit_bec(word, 0.0, rng), word)
    assert np.all(transmit_bec(word, 1.0, rng) == ERASED)
    frac = np.mean(transmit_bec(word, 0.3, np.random.default_rng(42)) == ERASED)
    assert abs(frac - 0.3) < 3 * np.sqrt(0.3 * 0.7 / len(word))
    with pytest.raises(CodecError):
        transmit_bec(word, 1.5, rng)


@pytest.mark.parametrize("bad", [ERASED, 2])
def test_transmit_bec_rejects_non_binary_codeword(bad):
    word = np.zeros(10, dtype=np.int8)
    word[4] = bad
    with pytest.raises(CodecError):
        transmit_bec(word, 0.5, np.random.default_rng(0))


@pytest.mark.parametrize("eps", [0.0, 0.2, 0.4575, 0.5, 0.93, 1.0])
def test_transmit_bec_matches_masked_where(eps):
    """The channel's bytes and its use of the generator are those of np.where on one draw."""
    word = np.random.default_rng(5).integers(0, 2, 1000).astype(np.int8)
    sent = word.copy()
    got_rng, want_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = transmit_bec(word, eps, got_rng)
    want = np.where(want_rng.random(word.size) < eps, ERASED, word).astype(np.int8)
    assert got.dtype == np.int8 and got.tobytes() == want.tobytes()
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    np.testing.assert_array_equal(word, sent)


EDGE_EPS = (0.0, 1.0, 5e-324, np.nextafter(1.0, 0.0), 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0))


def test_transmit_bec_is_the_random_compare_bit_for_bit():
    """On Philox streams the channel equals np.where(rng.random(n) < eps, ERASED, 0) and leaves
    the generator where random(n) does: at the edge eps at every length 1-300, and at seeded eps
    equal to a value the stream draws and at both its neighbouring doubles, where a compare by
    <= or a bound rounded by floor in place of ceil would differ."""
    cases = [(eps, n, n) for eps in EDGE_EPS for n in range(1, 301)]
    rng = np.random.default_rng(28)
    for seed in range(200):
        n = int(rng.integers(1, 301))
        u = np.random.Generator(np.random.Philox(seed)).random(n)[rng.integers(n)]
        cases += [(e, n, seed) for e in (u, np.nextafter(u, 0.0), np.nextafter(u, 1.0))]
    for eps, n, seed in cases:
        got_rng, want_rng = (np.random.Generator(np.random.Philox(seed)) for _ in range(2))
        got = transmit_bec(np.zeros(n, dtype=np.int8), eps, got_rng)
        want = np.where(want_rng.random(n) < eps, ERASED, 0).astype(np.int8)
        assert got.tobytes() == want.tobytes(), (eps, n, seed)
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)


class _Words:
    """A stand-in generator whose raw words are the given ones."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.array(words, dtype=np.uint64)

    def random_raw(self, n):
        assert n == len(self.words)
        return self.words.copy()


def test_transmit_bec_bound_is_the_random_compare_on_crafted_words():
    """Raw words at and next to every 2**-53 step of the bound erase exactly where numpy's
    random(), (raw >> 11) * 2**-53, is below eps: at eps 0 (no word), 1 (every word),
    nextafter(1, 0), the smallest positive double, and eps on and next to a step k * 2**-53."""
    steps = [1, 2, 3, 2**52, 2**53 - 2, 2**53 - 1]
    words = sorted({w for k in steps for w in ((k << 11) - 1, k << 11, (k << 11) + 1)} | {0, 2**64 - 1})
    eps_values = [0.0, 1.0, np.nextafter(1.0, 0.0), 5e-324]
    eps_values += [e for k in steps for e in (k * 2.0**-53, np.nextafter(k * 2.0**-53, 0.0),
                                              np.nextafter(k * 2.0**-53, 1.0))]
    uniform = (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53  # numpy's random() of each word
    for eps in eps_values:
        got = transmit_bec(np.zeros(len(words), dtype=np.int8), eps, _Words(words))
        want = np.where(uniform < eps, ERASED, 0).astype(np.int8)
        assert got.tobytes() == want.tobytes(), eps
    assert not transmit_bec(np.zeros(len(words), dtype=np.int8), 0.0, _Words(words)).any()
    assert (transmit_bec(np.zeros(len(words), dtype=np.int8), 1.0, _Words(words)) == ERASED).all()


def test_validators_accept_exactly_their_symbols():
    """Over every int8 value: the channel takes only 0 and 1, a received word only 0, 1 and ERASED."""
    c = small_ra()
    for value in range(-128, 128):
        word = np.zeros(c.n, dtype=np.int8)
        word[5] = value
        if value in (0, 1):
            transmit_bec(word, 0.5, np.random.default_rng(0))
            syndrome(c, word)
        else:
            with pytest.raises(CodecError, match="codeword entries"):
                transmit_bec(word, 0.5, np.random.default_rng(0))
        if value in (ERASED, 0, 1):
            decode_peel(c, word)
        else:
            with pytest.raises(CodecError, match="word entries"):
                decode_peel(c, word)
            with pytest.raises(CodecError, match="word entries"):
                syndrome(c, word)


def test_decode_no_erasures_is_immediate():
    c = small_ra()
    word = encode(c, np.ones(c.k, dtype=np.int8))
    res = decode_peel(c, word)
    assert res.recovered and res.iterations == 0
    assert res.residual_message_bits == 0 and res.residual_all_bits == 0


@pytest.mark.parametrize("v", range(16))
def test_decode_single_erasure_takes_one_sweep(v):
    c = small_ra()
    word = encode(c, np.array([1, 0, 1, 1, 0, 1], dtype=np.int8))
    sent = word.copy()
    word[v] = ERASED
    res = decode_peel(c, word)
    assert res.recovered and res.iterations == 1
    np.testing.assert_array_equal(res.word, sent)


def test_decode_rejects_bad_words():
    c = small_ra()
    with pytest.raises(CodecError):
        decode_peel(c, np.zeros(c.n - 1, dtype=np.int8))
    for value in (3, 2, -2):
        bad = np.zeros(c.n, dtype=np.int8)
        bad[0] = value
        with pytest.raises(CodecError):
            decode_peel(c, bad)


def test_peel_resolves_duplicates_once():
    """Checks 0 and 1 both resolve bit 0 in sweep 1, while bits 3 and 4
    (through checks 2 and 3) both touch check 4, which then resolves bit 5
    in sweep 2 from two copies of itself in the candidate list."""
    c = toy_code([[0, 1], [0, 2], [3, 6], [4, 7], [3, 4, 5]], n=8)
    sent = np.array([1, 1, 1, 1, 0, 1, 1, 0], dtype=np.int8)
    assert not syndrome(c, sent).any()
    word = sent.copy()
    word[[0, 3, 4, 5]] = ERASED
    known = word != ERASED

    first = decode_peel(c, word, max_iters=1)
    assert first.iterations == 1 and first.residual_all_bits == 1
    np.testing.assert_array_equal(first.word[known], word[known])
    np.testing.assert_array_equal(first.word[[0, 3, 4]], sent[[0, 3, 4]])

    res = decode_peel(c, word)
    assert res.recovered and res.iterations == 2 and res.residual_all_bits == 0
    np.testing.assert_array_equal(res.word, decode_ml_oracle(c, word).word)
    np.testing.assert_array_equal(res.word[known], word[known])
    np.testing.assert_array_equal(res.word, sent)


def _peel_cases():
    """(code, sent word) pairs: all-zero words, RA codewords and, elsewhere, any word with ones."""
    toy = toy_code([[0, 1, 5], [1, 2, 6], [2, 3, 5, 7], [0, 4, 7], [3, 4, 6]], n=8)
    codes = [
        build_sc_ra(ScRaParams(4, 4, 2, 8), seed=3),
        build_sc_ldpc(ScLdpcParams(3, 6, 2, 8), seed=3),
        toy,
    ]
    rng = np.random.default_rng(29)
    for c in codes:
        yield c, np.zeros(c.n, dtype=np.int8)
        if c.family == "ra":
            yield c, encode(c, rng.integers(0, 2, c.k).astype(np.int8))
        else:
            yield c, rng.integers(0, 2, c.n).astype(np.int8)


@pytest.mark.parametrize("max_iters", [1, 2, 5, 1000])
def test_peel_matches_reference(max_iters):
    """decode_peel equals the sentinel-reset loop in every outcome field, on many erasure patterns."""
    rng = np.random.default_rng(max_iters)
    for c, sent in _peel_cases():
        for eps in (0.05, 0.3, 0.45, 0.55, 0.8):
            for _ in range(8):
                word = np.where(rng.random(c.n) < eps, ERASED, sent).astype(np.int8)
                got, want = decode_peel(c, word, max_iters), peel_reference(c, word, max_iters)
                assert (got.recovered, got.iterations) == (want.recovered, want.iterations)
                assert got.residual_message_bits == want.residual_message_bits
                assert got.residual_all_bits == want.residual_all_bits
                assert got.word.dtype == np.int8 and got.word.tobytes() == want.word.tobytes()


def test_peel_sentinel_never_resolves():
    """Bit 0 has one pad slot and is the only erased bit that has one, so the sentinel's
    pad count starts at exactly 1.  Every check sees two erased bits: a stopping set."""
    c = toy_code([[0, 1], [0, 2], [1, 2], [1, 2, 3]], n=4)
    assert c.padded_var_checks.shape[1] == 3
    sent = np.array([1, 1, 1, 0], dtype=np.int8)
    assert not syndrome(c, sent).any()
    for known in (sent, np.zeros(4, dtype=np.int8)):
        word = known.copy()
        word[:3] = ERASED
        res = decode_peel(c, word)
        assert not res.recovered and res.iterations == 0 and res.residual_all_bits == 3
        np.testing.assert_array_equal(res.word, word)
        assert res.word.tobytes() == peel_reference(c, word).word.tobytes()


def exhaustive_unique_bits(c, word):
    """All codeword completions of `word`; returns (word with unique bits
    filled, completion count)."""
    erased = np.flatnonzero(word == ERASED)
    completions = []
    for bits in itertools.product((0, 1), repeat=len(erased)):
        cand = word.copy()
        cand[erased] = bits
        if not syndrome(c, cand).any():
            completions.append(cand)
    stack = np.array(completions)
    out = word.copy()
    for v in erased:
        vals = np.unique(stack[:, v])
        if len(vals) == 1:
            out[v] = vals[0]
    return out, len(stack)


@pytest.mark.parametrize("seed", range(6))
def test_ml_oracle_matches_exhaustive_search(seed):
    c = small_ra(seed)
    rng = np.random.default_rng(100 + seed)
    for trial in range(40):
        msg = rng.integers(0, 2, c.k).astype(np.int8)
        sent = encode(c, msg)
        word = sent.copy()
        e = int(rng.integers(0, 13))
        word[rng.choice(c.n, size=e, replace=False)] = ERASED
        res = decode_ml_oracle(c, word)
        expect, n_completions = exhaustive_unique_bits(c, word)
        np.testing.assert_array_equal(res.word, expect)
        assert res.recovered == (n_completions == 1)
        assert res.recovered == bool((res.word != ERASED).all())


def test_ml_oracle_stalls_on_erased_codeword_support():
    """Erasing a nonzero codeword's support leaves two completions."""
    c = small_ra()
    cw = encode(c, np.array([1, 0, 0, 0, 0, 0], dtype=np.int8))
    word = np.zeros(c.n, dtype=np.int8)
    word[cw == 1] = ERASED
    res = decode_ml_oracle(c, word)
    assert not res.recovered
    # the two completions differ exactly on the erased support
    assert res.residual_all_bits > 0


def test_ml_oracle_rejects_oversized_instance():
    dummy = toy_code([[]], n=10_001)
    with pytest.raises(CodecError):
        decode_ml_oracle(dummy, np.zeros(1, dtype=np.int8))


def test_ml_oracle_rejects_inconsistent_word():
    c = small_ra()
    word = encode(c, np.zeros(c.k, dtype=np.int8))
    # erase one variable outside check t, then flip a known bit inside it
    t = 4
    inside = set(check_neighbors(c, t).tolist())
    erase = next(v for v in range(c.n) if v not in inside)
    word[erase] = ERASED
    word[check_neighbors(c, t)[0]] ^= 1
    with pytest.raises(CodecError):
        decode_ml_oracle(c, word)


def run_pattern_suite(c, n_patterns, seed, eps_values=(0.15, 0.3, 0.45, 0.6)):
    """Peel and ML outcomes over seeded random codewords and patterns."""
    rng = np.random.default_rng(seed)
    peel_wins = ml_wins = 0
    for i in range(n_patterns):
        msg = rng.integers(0, 2, c.k).astype(np.int8)
        sent = encode(c, msg)
        word = transmit_bec(sent, eps_values[i % len(eps_values)], rng)
        peel = decode_peel(c, word)
        ml = decode_ml_oracle(c, word)
        # peel success implies ML success, never the other way only
        if peel.recovered:
            assert ml.recovered
            np.testing.assert_array_equal(peel.word, sent)
            peel_wins += 1
        if ml.recovered:
            np.testing.assert_array_equal(ml.word, sent)
            ml_wins += 1
        # filled values agree with the transmitted word on both decoders
        for res in (peel, ml):
            filled = res.word != ERASED
            np.testing.assert_array_equal(res.word[filled], sent[filled])
            assert res.recovered == (res.residual_all_bits == 0)
            assert res.residual_message_bits == int(np.count_nonzero(res.word[: c.k] == ERASED))
    assert ml_wins >= peel_wins
    return peel_wins, ml_wins


def test_peel_never_beats_ml_small_code():
    peel_wins, ml_wins = run_pattern_suite(small_ra(), 1000, seed=1234)
    assert 0 < peel_wins <= ml_wins < 1000


def test_peel_never_beats_ml_coupled_code():
    c = build_sc_ra(ScRaParams(3, 3, 4, 10), seed=8)
    peel_wins, ml_wins = run_pattern_suite(c, 1000, seed=99, eps_values=(0.3, 0.42, 0.5))
    assert 0 < peel_wins <= ml_wins < 1000


def test_peeling_monotone_in_sweep_budget():
    c = build_sc_ra(ScRaParams(3, 3, 4, 10), seed=8)
    rng = np.random.default_rng(55)
    sent = encode(c, rng.integers(0, 2, c.k).astype(np.int8))
    for _ in range(20):
        word = transmit_bec(sent, 0.45, rng)
        prev = None
        for t in range(1, 8):
            got = decode_peel(c, word, max_iters=t).word != ERASED
            if prev is not None:
                assert np.all(got | ~prev), "bit resolved at t vanished at t+1"
            prev = got


def bp_resolved_after(c, word, sweeps):
    """Reference synchronous sum-product erasure decoder.

    Messages live on edges; one sweep updates all check-to-variable
    messages from the previous variable-to-check messages, then all
    variable-to-check messages.  A variable is resolved once the channel
    or any check message knows it."""
    edge_chk = np.repeat(np.arange(c.m), np.diff(c.check_indptr))
    edge_var = c.check_vars
    channel = word != ERASED
    v2c = channel[edge_var].copy()
    resolved = channel.copy()
    for _ in range(sweeps):
        c2v = np.zeros(len(edge_var), dtype=bool)
        for e in range(len(edge_var)):
            mask = edge_chk == edge_chk[e]
            mask[e] = False
            c2v[e] = v2c[mask].all()
        for v in range(c.n):
            mine = edge_var == v
            if c2v[mine].any():
                resolved[v] = True
        for e in range(len(edge_var)):
            others = (edge_var == edge_var[e]) & (np.arange(len(edge_var)) != e)
            v2c[e] = channel[edge_var[e]] or c2v[others].any()
    return resolved


@pytest.mark.parametrize("seed,eps", [(0, 0.3), (1, 0.5), (2, 0.7)])
def test_peeling_equals_sum_product_sweeps(seed, eps):
    c = small_ra(seed)
    rng = np.random.default_rng(300 + seed)
    for _ in range(10):
        word = transmit_bec(encode(c, rng.integers(0, 2, c.k).astype(np.int8)), eps, rng)
        for t in (1, 2, 3, 5, 8):
            peel = decode_peel(c, word, max_iters=t).word != ERASED
            np.testing.assert_array_equal(peel, bp_resolved_after(c, word, t))


def permuted_instance(c, perm):
    """Relabel variables of c by perm (new id of old v is perm[v])."""
    return toy_code([sorted(perm[check_neighbors(c, t)].tolist()) for t in range(c.m)], c.n)


def test_decoding_is_permutation_equivariant():
    c = small_ra()
    rng = np.random.default_rng(7)
    sent = encode(c, rng.integers(0, 2, c.k).astype(np.int8))
    for _ in range(25):
        perm = rng.permutation(c.n)
        cp = permuted_instance(c, perm)
        word = transmit_bec(sent, 0.5, rng)
        pword = np.empty_like(word)
        pword[perm] = word
        res = decode_peel(c, word)
        pres = decode_peel(cp, pword)
        assert res.recovered == pres.recovered and res.iterations == pres.iterations
        np.testing.assert_array_equal(pres.word[perm], res.word)


def test_success_depends_only_on_erasure_pattern():
    """All-zero and random-codeword transmissions decode identically."""
    c = build_sc_ra(ScRaParams(3, 3, 2, 4), seed=6)
    rng = np.random.default_rng(21)
    for _ in range(50):
        pattern = rng.random(c.n) < 0.45
        sent = encode(c, rng.integers(0, 2, c.k).astype(np.int8))
        w_zero = np.zeros(c.n, dtype=np.int8)
        w_sent = sent.copy()
        w_zero[pattern] = ERASED
        w_sent[pattern] = ERASED
        a = decode_peel(c, w_zero)
        b = decode_peel(c, w_sent)
        assert a.recovered == b.recovered and a.iterations == b.iterations
        np.testing.assert_array_equal(a.word == ERASED, b.word == ERASED)


def test_position_trace_rows_match_residuals():
    c = build_sc_ra(ScRaParams(3, 3, 2, 10), seed=6)
    word = transmit_bec(np.zeros(c.n, dtype=np.int8), 0.5, np.random.default_rng(4))
    res = decode_peel(c, word, max_iters=7)
    trace = peel_trace(c, word, max_iters=7)
    assert trace.shape[1] == 2 * c.params.L + 1
    assert trace.shape[0] == res.iterations
    is_msg = np.arange(c.n) < c.n_msg
    var_pos = positions(c)[0]
    totals = np.bincount(var_pos[is_msg])
    last = np.bincount(
        var_pos[is_msg & (res.word == ERASED)], minlength=len(totals)
    ) / totals
    np.testing.assert_allclose(trace[-1], last)
    # erased fractions only ever decrease
    diffs = np.diff(trace, axis=0)
    assert (diffs <= 1e-12).all()


@pytest.mark.parametrize("family", ["ra", "ldpc"])
def test_resumed_single_sweeps_match_one_call(family):
    """Peeling one sweep at a time, each from the previous word, ends where
    one call ends: same word, same summed sweeps, same recovered flag and residuals."""
    if family == "ra":
        c = build_sc_ra(ScRaParams(4, 4, 3, 8), seed=11)
    else:
        c = build_sc_ldpc(ScLdpcParams(3, 6, 3, 8), seed=11)
    rng = np.random.default_rng(808)
    for eps in (0.2, 0.35, 0.45, 0.55, 0.7):
        for _ in range(12):
            sent = np.zeros(c.n, dtype=np.int8)
            if family == "ra":
                sent = encode(c, rng.integers(0, 2, c.k).astype(np.int8))
            word = transmit_bec(sent, eps, rng)
            one = decode_peel(c, word)
            step, sweeps = decode_peel(c, word, max_iters=1), 0
            while step.iterations:
                sweeps += 1
                step = decode_peel(c, step.word, max_iters=1)
            np.testing.assert_array_equal(step.word, one.word)
            assert sweeps == one.iterations
            assert step.recovered == one.recovered
            assert (step.residual_message_bits, step.residual_all_bits) == (
                one.residual_message_bits, one.residual_all_bits)
