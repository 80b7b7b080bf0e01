"""Instance construction, structural invariants, and interchange formats."""

import io
import json

import numpy as np
import pytest

from oracles import descriptor_dict, edge_order_reference, h_dense, read_alist, toy_code
from scra.construct import (
    DescriptorError,
    _assemble,
    _rows_text,
    build_sc_ldpc,
    build_sc_ra,
    export_alist,
    load_descriptor,
    save_descriptor,
    validate_instance,
)
from scra.ensembles import ParameterError, ScLdpcParams, ScRaParams, code_size


def small_ra(seed=0):
    return build_sc_ra(ScRaParams(q=3, a=3, L=1, M=2), seed)


def test_small_instance_shape():
    c = small_ra()
    assert (c.n, c.m, c.k) == (16, 10, 6)
    h = h_dense(c)
    assert h.shape == (10, 16)
    # message columns repeat each bit three times, parity columns chain
    # with weight two except the final accumulator bit
    np.testing.assert_array_equal(h[:, :6].sum(axis=0), np.full(6, 3))
    np.testing.assert_array_equal(h[:, 6:].sum(axis=0), [2] * 9 + [1])


def test_small_instance_parity_bidiagonal():
    h = h_dense(small_ra())
    par = h[:, 6:]
    expect = np.eye(10, dtype=np.uint8)
    expect[1:, :-1] |= np.eye(9, dtype=np.uint8)
    np.testing.assert_array_equal(par, expect)


def test_small_instance_balanced_check_fill():
    """Message edges per check ramp up 1,1,2,2,3,3,2,2,1,1 over the chain."""
    c = small_ra()
    h = h_dense(c)
    np.testing.assert_array_equal(h[:, :6].sum(axis=1), [1, 1, 2, 2, 3, 3, 2, 2, 1, 1])


def test_sizes_match_node_counts():
    for p in (ScRaParams(6, 6, 16, 100), ScRaParams(6, 6, 16, 300)):
        c = build_sc_ra(p, 1)
        k, n = code_size(p)
        assert (c.k, c.n, c.m) == (k, n, n - k)
    c = build_sc_ldpc(ScLdpcParams(4, 8, 16, 220), 1)
    assert (c.k, c.n) == (3300, 7260)
    c = build_sc_ldpc(ScLdpcParams(4, 8, 16, 660), 1)
    assert (c.k, c.n) == (9900, 21780)


def test_build_is_pure_function_of_params_and_seed():
    p = ScRaParams(4, 4, 2, 8)
    assert build_sc_ra(p, 7) == build_sc_ra(p, 7)
    assert build_sc_ra(p, 7) != build_sc_ra(p, 8)
    lp = ScLdpcParams(3, 6, 2, 8)
    assert build_sc_ldpc(lp, 7) == build_sc_ldpc(lp, 7)
    assert build_sc_ldpc(lp, 7) != build_sc_ldpc(lp, 8)


def test_builder_rejects_other_family():
    """The family is read off the parameters, so a mismatch must not build."""
    with pytest.raises(ParameterError):
        build_sc_ra(ScLdpcParams(3, 6, 1, 2), 0)
    with pytest.raises(ParameterError):
        build_sc_ldpc(ScRaParams(3, 3, 1, 2), 0)
    with pytest.raises(ParameterError):  # a saved descriptor must hold w=null
        build_sc_ra(ScRaParams(3, 3, 1, 2, w=3), 0)


RA_GRID = [
    (q, a, L, M)
    for q in (3, 4, 6)
    for a in (3, 4, 6)
    for L in (1, 4)
    for M in (2, 10, 50)
    if (q * M) % a == 0
]


@pytest.mark.parametrize("q,a,L,M", RA_GRID)
def test_ra_instance_invariants(q, a, L, M):
    """Re-derive the structural invariants independently of the builder."""
    p = ScRaParams(q, a, L, M)
    c = build_sc_ra(p, seed=q * 1000 + a * 100 + L * 10 + M)
    validate_instance(c)

    var_deg = np.bincount(c.check_vars, minlength=c.n)
    is_msg = np.arange(c.n) < c.n_msg
    assert np.all(var_deg[is_msg] == q)
    par_deg = var_deg[~is_msg]
    assert np.all(par_deg[:-1] == 2) and par_deg[-1] == 1

    # no parallel edges: every (check, var) pair occurs once
    edge_chk = np.repeat(np.arange(c.m), np.diff(c.check_indptr))
    pairs = set(zip(edge_chk.tolist(), c.check_vars.tolist()))
    assert len(pairs) == len(c.check_vars)

    # one edge per window slot: each message bit hits positions i..i+q-1
    for v in np.flatnonzero(is_msg)[:: max(1, M // 2)]:
        pos = sorted(c.check_pos[edge_chk[c.check_vars == v]])
        i = c.var_pos[v]
        assert pos == list(range(i, i + q))

    # interior check positions absorb exactly a message edges per check
    msg_edge = is_msg[c.check_vars]
    msg_deg = np.bincount(edge_chk[msg_edge], minlength=c.m)
    span = 2 * L + 1
    for t in range(c.m):
        j = c.check_pos[t]
        n_src = min(span - 1, j) - max(0, j - q + 1) + 1
        if n_src == q:
            assert msg_deg[t] == a
    # boundary positions share their edges evenly (floor/ceil split)
    for j in range(2 * L + q):
        degs = msg_deg[c.check_pos == j]
        assert degs.max() - degs.min() <= 1


@pytest.mark.parametrize("dl,dr,L,M", [(2, 4, 0, 2), (3, 6, 1, 2), (4, 8, 2, 10), (3, 4, 4, 8)])
def test_ldpc_instance_invariants(dl, dr, L, M):
    c = build_sc_ldpc(ScLdpcParams(dl, dr, L, M), seed=11)
    var_deg = np.bincount(c.check_vars, minlength=c.n)
    assert np.all(var_deg == dl)
    edge_chk = np.repeat(np.arange(c.m), np.diff(c.check_indptr))
    offs = c.check_pos[edge_chk] - c.var_pos[c.check_vars]
    assert offs.min() >= 0 and offs.max() < dl
    pairs = set(zip(edge_chk.tolist(), c.check_vars.tolist()))
    assert len(pairs) == len(c.check_vars)


def test_var_adjacency_matches_dense_transpose():
    # the hand-built graph is irregular: column degrees 1, 1, 2
    for c in (small_ra(3), build_sc_ldpc(ScLdpcParams(3, 6, 1, 4), 5), toy_code([[0, 2], [1, 2]], 3)):
        padded = c.padded_var_checks
        h = h_dense(c)
        assert padded.shape == (c.n, h.sum(axis=0).max())
        for v in range(c.n):
            col = np.flatnonzero(h[:, v])
            np.testing.assert_array_equal(padded[v, : col.size], col)
            assert (padded[v, col.size :] == c.m).all()


def test_cached_tables_match_adjacency():
    c = small_ra(3)
    np.testing.assert_array_equal(c.edge_checks, np.repeat(np.arange(c.m), np.diff(c.check_indptr)))
    padded = c.padded_var_checks
    deg = np.bincount(c.check_vars, minlength=c.n)
    assert padded.shape == (c.n, deg.max())
    for v in range(c.n):
        np.testing.assert_array_equal(padded[v, : deg[v]], sorted(c.edge_checks[c.check_vars == v]))
        assert (padded[v, deg[v] :] == c.m).all()
    assert c.padded_var_checks is padded and c.edge_checks is c.edge_checks  # computed once
    assert c == small_ra(3)  # cached tables take no part in equality


def test_degree_profile_ra_mean():
    """Edges = q*k + 2m - 1 makes the mean 274/71 - 1/(71M) for (6,6,16,M)."""
    for M in (15, 100):
        c = build_sc_ra(ScRaParams(6, 6, 16, M), 2)
        edges = len(c.check_vars)
        assert edges == 6 * c.k + 2 * c.m - 1
        np.testing.assert_allclose(edges / c.n, 274 / 71 - 1 / (71 * M), rtol=1e-12)
        assert abs(edges / c.n - 274 / 71) < 1e-3


def test_degree_profile_ldpc_mean():
    c = build_sc_ldpc(ScLdpcParams(4, 8, 16, 220), 2)
    assert len(c.check_vars) / c.n == 4.0


def test_degree_profile_degenerate_single_position():
    """L=0: one message position, q check positions, the same edge count."""
    p = ScRaParams(3, 3, 0, 3)
    c = build_sc_ra(p, 0)
    assert c.n == code_size(p)[1]
    assert len(c.check_vars) == 3 * c.k + 2 * c.m - 1


def test_alist_header_and_round_trip():
    c = small_ra()
    buf = io.StringIO()
    export_alist(c, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "16 10"
    back = read_alist(text)
    assert back.n == c.n and back.m == c.m
    np.testing.assert_array_equal(back.check_indptr, c.check_indptr)
    np.testing.assert_array_equal(back.check_vars, c.check_vars)
    # canonical re-export is byte identical
    buf2 = io.StringIO()
    export_alist(back, buf2)
    assert buf2.getvalue() == text


def test_alist_round_trip_file(tmp_path):
    c = build_sc_ldpc(ScLdpcParams(3, 6, 1, 4), 5)
    path = tmp_path / "code.alist"
    export_alist(c, str(path))
    back = read_alist(path.read_text())
    np.testing.assert_array_equal(back.check_vars, c.check_vars)


def test_alist_hand_written_small():
    text = "3 2\n2 2\n1 1 2\n2 2\n1\n2\n1 2\n1 3\n2 3\n"  # header, maximum degrees, degrees, lists
    c = toy_code([[0, 2], [1, 2]], 3)
    assert h_dense(c).tolist() == [[1, 0, 1], [0, 1, 1]]
    buf = io.StringIO()
    export_alist(c, buf)
    assert buf.getvalue() == text
    assert read_alist(text) == c


def test_descriptor_round_trip():
    for c in (small_ra(4), build_sc_ldpc(ScLdpcParams(3, 6, 1, 4), 4)):
        buf = io.StringIO()
        save_descriptor(c, buf)
        back = load_descriptor(io.StringIO(buf.getvalue()))
        assert back == c


def test_descriptor_round_trip_file(tmp_path):
    c = small_ra(9)
    path = tmp_path / "code.json"
    save_descriptor(c, str(path))
    assert load_descriptor(str(path)) == c


def test_descriptor_records_message_length():
    c = build_sc_ra(ScRaParams(6, 6, 16, 100), 0)
    buf = io.StringIO()
    save_descriptor(c, buf)
    assert load_descriptor(io.StringIO(buf.getvalue())).k == 3300


def _true_for_variable_one(doc):
    """Write JSON true where a check row lists variable 1; bool is an int subclass."""
    row = next(r for r in doc["checks"] if 1 in r)
    row[row.index(1)] = True


def _set_row_3(value):
    """Put value in place of the first id of row 3."""
    return lambda d: d["checks"][3].__setitem__(0, value)


# Rows that are no list of variable ids, all at row 3; loading tests all ids
# in whole passes, so these guard that it still names the row.
BAD_ROW_3 = {
    "float_id": _set_row_3(3.0),
    "huge_id": _set_row_3(2**70),  # beyond int64: a DescriptorError, not an OverflowError
    "int64_overflow_id": _set_row_3(2**63),  # one past the largest int64
    "negative_id": _set_row_3(-1),
    "id_n": lambda d: d["checks"][3].__setitem__(0, d["n"]),
    "string_id": _set_row_3("3"),
    "null_id": _set_row_3(None),
    "int_row": lambda d: d["checks"].__setitem__(3, 7),
    "object_row": lambda d: d["checks"].__setitem__(3, {"0": 1}),
}


@pytest.mark.parametrize(
    "corrupt,field",
    [
        (lambda d: d.update(format="other"), "format"),
        (lambda d: d.update(version=99), "version"),
        pytest.param(lambda d: d.update(version=2), "version", id="v2-version"),
        (lambda d: d.pop("n"), "n"),
        pytest.param(lambda d: d.update(n=d["n"] + 1), "n", id="n_plus_one-n"),
        (lambda d: d.update(var_kind=[0] * d["n"]), "var_kind"),
        (lambda d: d.update(seed=True), "seed"),
        pytest.param(lambda d: d.update(seed=None), "seed", id="null_seed-seed"),
        pytest.param(lambda d: d.update(seed=-7), "seed", id="negative_seed-seed"),
        pytest.param(lambda d: d.update(params=None), "params", id="null_params-params"),
        (_true_for_variable_one, "checks"),
        (lambda d: d["checks"][0].reverse(), "checks"),
        (lambda d: d["checks"].__setitem__(0, d["checks"][0] + d["checks"][0][:1]), "checks"),
        (lambda d: d.update(params={"family": "nope"}), "params"),
        (lambda d: d.update(params={"family": "ra", "q": 1, "a": 1, "L": 0, "M": 1, "w": None}), "params"),
        (lambda d: d["params"].update(L=True), "params"),  # would load as L=1, the true value
        pytest.param(lambda d: d["params"].update(junk=1), "params", id="junk_entry-params"),
        pytest.param(lambda d: d["params"].update(w=3), "params", id="w_set-params"),
        pytest.param(lambda d: d["params"].pop("w"), "params", id="w_missing-params"),
        # well-formed rows, broken graph: check 5 loses its edge to parity bit 4
        (lambda d: d["checks"][5].remove(small_ra().k + 4), "checks"),
        (lambda d: d.update(checks=[]), "checks"),
        (lambda d: d["checks"][-1].clear(), "checks"),
        *(pytest.param(corrupt, "checks", id=f"{name}-checks") for name, corrupt in BAD_ROW_3.items()),
    ],
)
def test_descriptor_corruption_names_field(corrupt, field):
    doc = descriptor_dict(small_ra())
    corrupt(doc)
    import json

    with pytest.raises(DescriptorError) as err:
        load_descriptor(io.StringIO(json.dumps(doc)))
    assert f"field '{field}'" in str(err.value)


@pytest.mark.parametrize("t,u", [(0, 2), (-1, -3)], ids=["check_0", "check_m-1"])
def test_descriptor_parity_chain_broken_at_an_end_names_checks(t, u):
    """Checks t and u trade their first parity ids: every parity degree
    holds, and the bidiagonal band still refuses the chain."""
    c = small_ra()
    doc = descriptor_dict(c)
    rows = doc["checks"]
    i, j = (rows[x].index(min(v for v in rows[x] if v >= c.k)) for x in (t, u))
    rows[t][i], rows[u][j] = rows[u][j], rows[t][i]
    rows[t].sort()
    rows[u].sort()
    with pytest.raises(DescriptorError, match=r"^field 'checks': parity edge outside the bidiagonal band$"):
        load_descriptor(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("name", sorted(BAD_ROW_3))
def test_descriptor_bad_ids_name_the_first_bad_row(name):
    import json

    doc = descriptor_dict(small_ra())
    BAD_ROW_3[name](doc)
    doc["checks"][5][0] = -1  # a later bad row, not to be named
    with pytest.raises(DescriptorError, match=r"^field 'checks': row 3 is not a list of variable ids$"):
        load_descriptor(io.StringIO(json.dumps(doc)))


def _cut_checks(doc, edges: int) -> dict:
    """doc with its checks cut after their first `edges` ids, in row order."""
    rows, left = [], edges
    for row in doc["checks"]:
        if left == 0:
            break
        rows.append(row[:left])
        left -= len(rows[-1])
    doc["checks"] = rows
    return doc


@pytest.mark.parametrize("name", sorted(BAD_ROW_3))
def test_descriptor_bad_row_is_named_before_n_exceeds_the_edges(name):
    import json

    doc = _cut_checks(descriptor_dict(small_ra()), 15)  # n = 16; rows 0 to 3 stay whole
    BAD_ROW_3[name](doc)
    with pytest.raises(DescriptorError, match=r"^field 'checks': row 3 is not a list of variable ids$"):
        load_descriptor(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("M,id_3", [(2, None), (2**67, 2**65)], ids=["n_plus_one", "ids_past_int64"])
def test_descriptor_n_beyond_the_edges_is_named_when_all_ids_are_good(M, id_3):
    """small_ra()'s rows, cut to 15 edges, under parameters of n = 8M variables."""
    import json

    doc = _cut_checks(descriptor_dict(small_ra()), 15)
    doc["params"]["M"] = M
    doc["n"] = code_size(ScRaParams(3, 3, 1, M))[1]
    if id_3 is not None:
        doc["checks"][3][0] = id_3  # below n, so a good id, yet no int64
    with pytest.raises(DescriptorError, match=r"^field 'n': \d+ variables but only \d+ edges$"):
        load_descriptor(io.StringIO(json.dumps(doc)))


def test_rows_text_is_the_json_of_the_rows():
    """The checks of a descriptor are those of json.dumps of the rows: an
    empty row is [], an id of 0 is 0, and no comma follows the last row,
    for ids of 1 to 5 digits, ids narrower than "],[" and no rows at all."""
    import json

    rng = np.random.default_rng(4)
    n = 12345
    rows = [sorted(rng.choice(n, size=d, replace=False).tolist()) for d in rng.integers(0, 4, 40)]
    rows[0] = rows[17] = rows[-1] = []
    rows[5] = [0, 9, 10, 99, 100, 999, 1000, 9999, 10000, n - 1]  # id 0 and 1 to 5 digits
    rows[6] = [0]
    for case in (rows, [[], [0, 3], [], [], [11], []], []):
        ids = np.array([v for r in case for v in r], dtype=np.int32)
        ends = np.cumsum([len(r) for r in case], dtype=np.int64)
        text = ("[" + _rows_text(ids, ends, ",", "],["))[:-2]  # as save_descriptor writes them
        assert "[" + text + "]" == json.dumps(case, separators=(",", ":"))


def _descriptor_cases():
    return {
        "ra": build_sc_ra(ScRaParams(4, 4, 2, M=8), 1),
        "ldpc": build_sc_ldpc(ScLdpcParams(3, 6, 2, M=6), 1),
        "ra_M100": build_sc_ra(ScRaParams(6, 6, 16, M=100), 0),
        "ldpc_M660": build_sc_ldpc(ScLdpcParams(4, 8, 16, M=660), 0),
    }


def test_descriptor_bytes_are_those_of_json_dumps():
    """save_descriptor writes the canonical JSON of the descriptor dict."""
    import json

    for name, c in _descriptor_cases().items():
        buf = io.StringIO()
        save_descriptor(c, buf)
        want = json.dumps(descriptor_dict(c), sort_keys=True, separators=(",", ":")) + "\n"
        assert buf.getvalue() == want, name


def _check_edge_orders_against_lexsort(c):
    """padded_var_checks and the alist column lists hold each variable's
    checks in the order of a two-key lexsort, by variable then check."""
    order = edge_order_reference(c.check_vars, c.edge_checks)
    var, chk = c.check_vars[order], c.edge_checks[order]
    cols = [chk[var == v].tolist() for v in range(c.n)]
    width = max(map(len, cols))
    np.testing.assert_array_equal(c.padded_var_checks, [col + [c.m] * (width - len(col)) for col in cols])
    buf = io.StringIO()
    export_alist(c, buf)
    lines = buf.getvalue().split("\n")[4 : 4 + c.n]
    assert [[int(t) - 1 for t in line.split()] for line in lines] == cols


def test_edge_sorts_match_a_lexsort_with_parallel_edges():
    rng = np.random.default_rng(5)
    m, n = 7, 11
    edge_chk = rng.integers(0, m, 90)
    edge_var = rng.integers(0, n, 90)
    assert len(set(zip(edge_chk.tolist(), edge_var.tolist()))) < 90  # duplicate (check, variable) pairs
    indptr, check_vars = _assemble(edge_chk, edge_var, m, n)
    np.testing.assert_array_equal(check_vars, edge_var[edge_order_reference(edge_chk, edge_var)])
    np.testing.assert_array_equal(indptr, np.cumsum([0, *np.bincount(edge_chk, minlength=m)]))
    _check_edge_orders_against_lexsort(toy_code(np.split(check_vars, indptr[1:-1]), n))


def test_edge_sorts_match_a_lexsort_on_an_irregular_alist():
    # irregular degrees, variables 3 and 4 of degree 1
    c = toy_code([[0, 1, 3], [0, 2], [0, 1, 2, 4]], 5)
    assert np.bincount(c.check_vars).tolist() == [3, 2, 2, 1, 1]
    assert (c.padded_var_checks == c.m).any()  # rows padded with the sentinel
    _check_edge_orders_against_lexsort(c)


def test_alist_lines_byte_for_byte_with_empty_rows():
    """export_alist writes one line per row, an empty line for an empty row,
    whatever the width of the ids."""
    rng = np.random.default_rng(3)
    n = 12345
    rows = [sorted(rng.choice(n, size=d, replace=False).tolist()) for d in rng.integers(0, 4, 40)]
    rows[0] = rows[-1] = []
    rows[5] = [0, 8, 9, 98, 99, 998, 999, 9998, 9999, n - 1]  # 1 to 5 digits once 1-based
    c = toy_code(rows, n)
    cols = [[t for t, r in enumerate(rows) if v in r] for v in range(n)]
    head = [f"{n} {len(rows)}", f"{max(map(len, cols))} {max(map(len, rows))}",
            " ".join(str(len(col)) for col in cols), " ".join(str(len(r)) for r in rows)]
    lines = [" ".join(str(i + 1) for i in line) for line in cols + rows]
    buf = io.StringIO()
    export_alist(c, buf)
    assert buf.getvalue() == "\n".join(head + lines) + "\n"


@pytest.mark.parametrize(
    "corrupt,field",
    [
        # a kind label no longer exists; at version 2 [7, 7, 7] gave message_bits=0
        (lambda d: d.update(var_kind=[7, 7, 7]), "var_kind"),
        # no n-long list bounds n any more; the parameters do
        (lambda d: d.update(n=2**40), "n"),
    ],
)
def test_alist_descriptor_corruption_names_field(corrupt, field):
    import json

    doc = descriptor_dict(small_ra())
    corrupt(doc)
    with pytest.raises(DescriptorError) as err:
        load_descriptor(io.StringIO(json.dumps(doc)))
    assert f"field '{field}'" in str(err.value)


def test_descriptor_rejects_non_json():
    with pytest.raises(DescriptorError):
        load_descriptor(io.StringIO("not json {"))
