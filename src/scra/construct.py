"""Explicit graph instances of coupled RA codes and coupled LDPC baselines.

A message bit at position i places one edge in each check position of its
window {i, ..., i+q-1}; the accumulator runs over all checks in one global
chain.  Within a check position the incoming edges land on checks through
a balanced, seeded socket assignment, so interior checks absorb exactly
`a` message edges and boundary checks split the shortfall evenly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from scra.ensembles import ParameterError, ScLdpcParams, ScRaParams

KIND_MESSAGE = 0
KIND_PARITY = 1

DESCRIPTOR_FORMAT = "sc-code-descriptor"
DESCRIPTOR_VERSION = 2


class ConstructionError(RuntimeError):
    """Raised when a built instance violates a structural invariant."""


class AlistError(ValueError):
    """Raised on malformed alist input; the message carries a line number
    or names the graph invariant the input breaks."""


class DescriptorError(ValueError):
    """Raised on a malformed code descriptor; the message names the field."""


@dataclass(eq=False)
class CodeInstance:
    """One explicit bipartite code graph.

    Variables are numbered message bits first (position-major, copy index
    within a position), then parity bits in chain order.  Checks are
    numbered position-major; for the RA family this numbering is the
    accumulator chain order.  Adjacency is stored per check with neighbor
    lists strictly ascending.
    """

    family: str
    params: ScRaParams | ScLdpcParams | None
    seed: int | None
    n: int
    k: int
    var_kind: np.ndarray
    var_pos: np.ndarray
    check_pos: np.ndarray
    check_indptr: np.ndarray
    check_vars: np.ndarray
    _tables: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def m(self) -> int:
        return len(self.check_pos)

    def check_neighbors(self, t: int) -> np.ndarray:
        return self.check_vars[self.check_indptr[t] : self.check_indptr[t + 1]]

    def var_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, check ids) of the transposed adjacency, cached."""
        if "var_checks" not in self._tables:
            edge_var = self.check_vars
            edge_chk = np.repeat(
                np.arange(self.m, dtype=np.int32), np.diff(self.check_indptr)
            )
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(edge_var, minlength=self.n), out=indptr[1:])
            self._tables["var_indptr"] = indptr
            self._tables["var_checks"] = edge_chk[np.lexsort((edge_chk, edge_var))]
        return self._tables["var_indptr"], self._tables["var_checks"]

    def edge_checks(self) -> np.ndarray:
        """Check id of every edge in check_vars order, cached."""
        if "edge_checks" not in self._tables:
            self._tables["edge_checks"] = np.repeat(
                np.arange(self.m, dtype=np.intp), np.diff(self.check_indptr)
            )
        return self._tables["edge_checks"]

    def padded_var_checks(self) -> np.ndarray:
        """(n, max variable degree) table of each variable's checks, cached.

        Rows are ascending; unused entries hold the sentinel check id m.
        """
        if "padded_var_checks" not in self._tables:
            indptr, var_chk = self.var_adjacency()
            deg = np.diff(indptr)
            padded = np.full((self.n, int(deg.max(initial=0))), self.m, dtype=np.intp)
            rows = np.repeat(np.arange(self.n), deg)
            padded[rows, np.arange(len(var_chk)) - indptr[rows]] = var_chk
            self._tables["padded_var_checks"] = padded
        return self._tables["padded_var_checks"]

    def h_dense(self) -> np.ndarray:
        """Dense 0/1 parity-check matrix; intended for small instances."""
        h = np.zeros((self.m, self.n), dtype=np.uint8)
        for t in range(self.m):
            h[t, self.check_neighbors(t)] = 1
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeInstance):
            return NotImplemented
        if (self.family, self.params, self.seed, self.n, self.k) != (
            other.family,
            other.params,
            other.seed,
            other.n,
            other.k,
        ):
            return False
        for mine, theirs in (
            (self.var_kind, other.var_kind),
            (self.var_pos, other.var_pos),
            (self.check_pos, other.check_pos),
            (self.check_indptr, other.check_indptr),
            (self.check_vars, other.check_vars),
        ):
            if not np.array_equal(mine, theirs):
                return False
        return True


def _window_sources(j: int, width: int, last_pos: int) -> range:
    """Variable positions feeding check position j under a width-`width` window."""
    return range(max(0, j - width + 1), min(last_pos, j) + 1)


def _assemble(edge_chk: np.ndarray, edge_var: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((edge_var, edge_chk))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_chk, minlength=m), out=indptr[1:])
    return indptr, edge_var[order].astype(np.int32)


def _windowed_edges(
    rng: np.random.Generator,
    width: int,
    n_var_pos: int,
    n_chk_pos: int,
    bits_per_pos: int,
    checks_per_pos: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded balanced socket assignment for all window edges.

    Per check position: a random check relabeling, then one random
    permutation per contributing variable position mapping its bits onto a
    balanced stripe of sockets.  RNG consumption order is fixed (check
    positions ascending, sources ascending) so the graph is a pure
    function of (params, seed).
    """
    chk_parts = []
    var_parts = []
    bit_ids = np.arange(bits_per_pos, dtype=np.int64)
    for j in range(n_chk_pos):
        relabel = rng.permutation(checks_per_pos)
        for t, i in enumerate(_window_sources(j, width, n_var_pos - 1)):
            pi = rng.permutation(bits_per_pos)
            local = relabel[(t * bits_per_pos + pi) % checks_per_pos]
            chk_parts.append(j * checks_per_pos + local)
            var_parts.append(i * bits_per_pos + bit_ids)
    return np.concatenate(chk_parts), np.concatenate(var_parts)


def build_sc_ra(p: ScRaParams, seed: int) -> CodeInstance:
    """Build one coupled RA instance from (params, seed).

    Parameters
    ----------
    p : ScRaParams
        Ensemble parameters; `w` is ignored for instance construction.
    seed : int
        Seed of the construction stream.

    Returns
    -------
    CodeInstance
        Systematic instance: k message bits, one parity bit per check,
        parity columns lower bidiagonal in chain order with the final
        chain-closing edge omitted so encoding stays a forward pass.
    """
    rng = np.random.default_rng(seed)
    span = 2 * p.L + 1
    cpp = p.q * p.M // p.a
    n_chk_pos = 2 * p.L + p.q
    n_msg = span * p.M
    m = n_chk_pos * cpp
    n = n_msg + m

    edge_chk, edge_var = _windowed_edges(rng, p.q, span, n_chk_pos, p.M, cpp)

    chain = np.arange(m, dtype=np.int64)
    # check t sees its own parity bit and the previous one; the edge that
    # would close the chain at the top-right corner is omitted.
    par_chk = np.concatenate([chain, chain[1:]])
    par_var = np.concatenate([n_msg + chain, n_msg + chain[:-1]])

    indptr, vars_sorted = _assemble(
        np.concatenate([edge_chk, par_chk]),
        np.concatenate([edge_var, par_var]),
        m,
    )

    var_kind = np.concatenate(
        [
            np.full(n_msg, KIND_MESSAGE, dtype=np.uint8),
            np.full(m, KIND_PARITY, dtype=np.uint8),
        ]
    )
    var_pos = np.concatenate(
        [
            np.repeat(np.arange(span, dtype=np.int32), p.M),
            np.repeat(np.arange(n_chk_pos, dtype=np.int32), cpp),
        ]
    )
    check_pos = np.repeat(np.arange(n_chk_pos, dtype=np.int32), cpp)

    inst = CodeInstance(
        family="ra",
        params=p,
        seed=seed,
        n=n,
        k=n_msg,
        var_kind=var_kind,
        var_pos=var_pos,
        check_pos=check_pos,
        check_indptr=indptr,
        check_vars=vars_sorted,
    )
    validate_instance(inst)
    return inst


def build_sc_ldpc(p: ScLdpcParams, seed: int) -> CodeInstance:
    """Build one coupled regular LDPC baseline instance from (params, seed).

    Same windowed balanced assignment as the RA family with window width
    dl, no accumulator.  All variables are codeword bits; k is the nominal
    dimension n - m.
    """
    rng = np.random.default_rng(seed)
    span = 2 * p.L + 1
    cpp = p.dl * p.M // p.dr
    n_chk_pos = 2 * p.L + p.dl
    n = span * p.M
    m = n_chk_pos * cpp

    edge_chk, edge_var = _windowed_edges(rng, p.dl, span, n_chk_pos, p.M, cpp)
    indptr, vars_sorted = _assemble(edge_chk, edge_var, m)

    inst = CodeInstance(
        family="ldpc",
        params=p,
        seed=seed,
        n=n,
        k=n - m,
        var_kind=np.full(n, KIND_MESSAGE, dtype=np.uint8),
        var_pos=np.repeat(np.arange(span, dtype=np.int32), p.M),
        check_pos=np.repeat(np.arange(n_chk_pos, dtype=np.int32), cpp),
        check_indptr=indptr,
        check_vars=vars_sorted,
    )
    validate_instance(inst)
    return inst


def validate_instance(c: CodeInstance) -> None:
    """Check the structural invariants of a built instance.

    Simple graph, correct per-kind variable degrees, window containment,
    balanced check fill (interior checks absorb exactly the combiner
    degree), and the bidiagonal parity chain for the RA family.
    """
    def fail(msg: str) -> None:
        raise ConstructionError(msg)

    if c.m == 0:
        fail("code has no checks")
    starts = c.check_indptr[:-1]
    ends = c.check_indptr[1:]
    # boundary checks may carry few message edges, but never none at all
    if np.any(ends - starts < 1):
        fail("check of degree 0")
    # strictly ascending neighbor lists <=> no parallel edges
    interior_steps = np.diff(c.check_vars)
    boundary = ends[:-1]  # last index of each check's slice except final
    keep = np.ones(len(c.check_vars) - 1, dtype=bool)
    keep[boundary - 1] = False
    if np.any(interior_steps[keep] <= 0):
        fail("parallel or unsorted edges in check adjacency")

    var_deg = np.bincount(c.check_vars, minlength=c.n)
    is_msg = c.var_kind == KIND_MESSAGE
    edge_var_kind = c.var_kind[c.check_vars]
    edge_chk = np.repeat(np.arange(c.m, dtype=np.int64), ends - starts)

    if c.params is not None:
        width = c.params.q if isinstance(c.params, ScRaParams) else c.params.dl
        combine = c.params.a if isinstance(c.params, ScRaParams) else c.params.dr
        if np.any(var_deg[is_msg] != width):
            fail(f"message variable degree != {width}")
        # every message edge lies inside the one-sided window of its source
        sel = edge_var_kind == KIND_MESSAGE
        offs = c.check_pos[edge_chk[sel]] - c.var_pos[c.check_vars[sel]]
        if np.any(offs < 0) or np.any(offs >= width):
            fail("message edge outside its coupling window")
        msg_deg = np.bincount(edge_chk[sel], minlength=c.m)
        if np.any(msg_deg > combine):
            fail(f"check absorbs more than {combine} message edges")
        last_pos = int(c.var_pos[is_msg].max()) if is_msg.any() else -1
        # checks whose window of source positions is not cut by a chain end
        full = np.minimum(last_pos, c.check_pos) - np.maximum(0, c.check_pos - width + 1) + 1 == width
        if np.any(msg_deg[full] != combine):
            fail("interior check does not absorb exactly the combiner degree")

    if c.family == "ra":
        n_msg = int(np.count_nonzero(is_msg))
        par_deg = var_deg[n_msg:]
        if len(par_deg) != c.m or np.any(par_deg[:-1] != 2) or par_deg[-1] != 1:
            fail("parity degrees must be 2 with a final degree-1 bit")
        for t in (0, c.m - 1):  # spot ends; the bulk is covered by the degree check
            nbrs = set(int(v) for v in c.check_neighbors(t) if v >= n_msg)
            want = {n_msg + t} | ({n_msg + t - 1} if t > 0 else set())
            if nbrs != want:
                fail(f"parity chain broken at check {t}")
        sel = edge_var_kind == KIND_PARITY
        band = edge_chk[sel] - (c.check_vars[sel] - n_msg)
        if np.any(band < 0) or np.any(band > 1):
            fail("parity edge outside the bidiagonal band")


# -- degree bookkeeping ------------------------------------------------------

@dataclass(frozen=True)
class DegreeProfile:
    """Degree histograms and totals of one instance."""

    variable_hist: dict[int, dict[int, int]]  # kind -> degree -> count
    mean_variable_degree: float
    edges: int


def degree_profile(c: CodeInstance) -> DegreeProfile:
    var_deg = np.bincount(c.check_vars, minlength=c.n)
    var_hist: dict[int, dict[int, int]] = {}
    for kind in np.unique(c.var_kind):
        degs, counts = np.unique(var_deg[c.var_kind == kind], return_counts=True)
        var_hist[int(kind)] = {int(d): int(cnt) for d, cnt in zip(degs, counts)}
    edges = int(len(c.check_vars))
    return DegreeProfile(
        variable_hist=var_hist,
        mean_variable_degree=edges / c.n,
        edges=edges,
    )


# -- text I/O ----------------------------------------------------------------

def _write_text(dest, text: str) -> None:
    """Write text to a path or to an open text handle."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def _read_text(src) -> str:
    """Read all text from a path or from an open text handle."""
    if hasattr(src, "read"):
        return src.read()
    with open(src) as fh:
        return fh.read()


# -- alist interchange -------------------------------------------------------

def export_alist(c: CodeInstance, dest) -> None:
    """Write the adjacency in alist text form.

    Header is "n m"; neighbor lists are 1-based and ascending; no zero
    padding is emitted.
    """
    indptr, var_chk = c.var_adjacency()
    col_deg = np.diff(indptr)
    row_deg = np.diff(c.check_indptr)
    lines = [
        f"{c.n} {c.m}",
        f"{int(col_deg.max(initial=0))} {int(row_deg.max(initial=0))}",
        " ".join(str(int(d)) for d in col_deg),
        " ".join(str(int(d)) for d in row_deg),
    ]
    for v in range(c.n):
        lines.append(" ".join(str(int(t) + 1) for t in var_chk[indptr[v] : indptr[v + 1]]))
    for t in range(c.m):
        lines.append(" ".join(str(int(v) + 1) for v in c.check_neighbors(t)))
    _write_text(dest, "\n".join(lines) + "\n")


def import_alist(src) -> CodeInstance:
    """Read an alist file into an adjacency-only instance.

    Zero padding inside neighbor lists is accepted and dropped.  Kind and
    position labels are unknown for imported matrices: all variables are
    labeled message bits at position 0 and k is the nominal n - m.  The
    graph passes validate_instance, so it saves to a loadable descriptor.
    """
    lines = _read_text(src).splitlines()

    def ints(line_no: int, expect: int | None = None) -> list[int]:
        if line_no >= len(lines):
            raise AlistError(f"line {line_no + 1}: file truncated")
        try:
            vals = [int(tok) for tok in lines[line_no].split()]
        except ValueError as exc:
            raise AlistError(f"line {line_no + 1}: non-integer token ({exc})") from None
        if expect is not None and len(vals) != expect:
            raise AlistError(f"line {line_no + 1}: expected {expect} integers, got {len(vals)}")
        return vals

    header = ints(0, 2)
    n, m = header
    if n <= 0 or m <= 0:
        raise AlistError("line 1: dimensions must be positive")
    ints(1, 2)  # maximum degrees; informational
    col_deg = ints(2, n)
    row_deg = ints(3, m)

    def neighbor_block(first_line: int, count: int, degs: list[int], limit: int, label: str):
        out = []
        for i in range(count):
            vals = [v for v in ints(first_line + i) if v != 0]  # zero padding dropped
            if len(vals) != degs[i]:
                raise AlistError(
                    f"line {first_line + i + 1}: {label} {i + 1} lists {len(vals)} neighbors, degree says {degs[i]}"
                )
            if any(v < 1 or v > limit for v in vals):
                raise AlistError(f"line {first_line + i + 1}: neighbor index out of range")
            out.append(sorted(v - 1 for v in vals))
        return out

    cols = neighbor_block(4, n, col_deg, m, "column")
    rows = neighbor_block(4 + n, m, row_deg, n, "row")
    if sum(len(r) for r in rows) != sum(len(col) for col in cols):
        raise AlistError("line 1: row and column edge totals disagree")
    for t, r in enumerate(rows):
        if len(set(r)) != len(r):
            raise AlistError(f"line {4 + n + t + 1}: duplicate neighbor in row {t + 1}")

    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    check_vars = np.array([v for r in rows for v in r], dtype=np.int32)
    # cross-check the column lists against the rows
    rebuilt = [[] for _ in range(n)]
    for t, r in enumerate(rows):
        for v in r:
            rebuilt[v].append(t)
    if rebuilt != cols:
        raise AlistError("line 1: column lists inconsistent with row lists")

    inst = CodeInstance(
        family="alist",
        params=None,
        seed=None,
        n=n,
        k=n - m,
        var_kind=np.full(n, KIND_MESSAGE, dtype=np.uint8),
        var_pos=np.zeros(n, dtype=np.int32),
        check_pos=np.zeros(m, dtype=np.int32),
        check_indptr=indptr,
        check_vars=check_vars,
    )
    try:
        validate_instance(inst)
    except ConstructionError as exc:
        raise AlistError(f"invalid graph: {exc}") from None
    return inst


# -- descriptor persistence --------------------------------------------------

def _params_to_json(p: ScRaParams | ScLdpcParams | None):
    if p is None:
        return None
    if isinstance(p, ScRaParams):
        return {"family": "ra", "q": p.q, "a": p.a, "L": p.L, "M": p.M, "w": p.w}
    return {"family": "ldpc", "dl": p.dl, "dr": p.dr, "L": p.L, "M": p.M, "w": p.w}


def _params_from_json(obj) -> ScRaParams | ScLdpcParams | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "family" not in obj:
        raise DescriptorError("field 'params': expected an object with a 'family' entry")
    try:
        if obj["family"] == "ra":
            return ScRaParams(q=obj["q"], a=obj["a"], L=obj["L"], M=obj["M"], w=obj.get("w"))
        if obj["family"] == "ldpc":
            return ScLdpcParams(dl=obj["dl"], dr=obj["dr"], L=obj["L"], M=obj["M"], w=obj.get("w"))
    except KeyError as exc:
        raise DescriptorError(f"field 'params': missing entry {exc}") from None
    except ParameterError as exc:
        raise DescriptorError(f"field 'params': {exc}") from None
    raise DescriptorError(f"field 'params': unknown family {obj['family']!r}")


def descriptor_dict(c: CodeInstance) -> dict:
    return {
        "format": DESCRIPTOR_FORMAT,
        "version": DESCRIPTOR_VERSION,
        "family": c.family,
        "params": _params_to_json(c.params),
        "seed": c.seed,
        "n": c.n,
        "k": c.k,
        "var_kind": c.var_kind.tolist(),
        "var_pos": c.var_pos.tolist(),
        "check_pos": c.check_pos.tolist(),
        "checks": [chunk.tolist() for chunk in np.split(c.check_vars, c.check_indptr[1:-1])],
    }


def save_descriptor(c: CodeInstance, dest) -> None:
    """Persist an instance losslessly as versioned JSON."""
    _write_text(dest, json.dumps(descriptor_dict(c), sort_keys=True, separators=(",", ":")) + "\n")


def load_descriptor(src) -> CodeInstance:
    """Load a descriptor written by save_descriptor; load(save(c)) == c.

    The loaded graph passes validate_instance, so callers can trust it.
    """
    try:
        obj = json.loads(_read_text(src))
    except json.JSONDecodeError as exc:
        raise DescriptorError(f"field '<document>': not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise DescriptorError("field '<document>': expected a JSON object")
    if obj.get("format") != DESCRIPTOR_FORMAT:
        raise DescriptorError(f"field 'format': expected {DESCRIPTOR_FORMAT!r}, got {obj.get('format')!r}")
    if obj.get("version") != DESCRIPTOR_VERSION:
        raise DescriptorError(f"field 'version': unsupported version {obj.get('version')!r}")

    def need(name: str, kinds) -> object:
        if name not in obj:
            raise DescriptorError(f"field {name!r}: missing")
        val = obj[name]
        if not isinstance(val, kinds):
            raise DescriptorError(f"field {name!r}: wrong type {type(val).__name__}")
        return val

    family = need("family", str)
    n = need("n", int)
    k = need("k", int)
    seed = obj.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise DescriptorError("field 'seed': wrong type")
    params = _params_from_json(obj.get("params"))

    def int_array(name: str, length: int, dtype) -> np.ndarray:
        val = need(name, list)
        if len(val) != length or not all(isinstance(x, int) for x in val):
            raise DescriptorError(f"field {name!r}: expected {length} integers")
        return np.array(val, dtype=dtype)

    checks = need("checks", list)
    for t, row in enumerate(checks):
        if not isinstance(row, list) or not all(isinstance(v, int) and 0 <= v < n for v in row):
            raise DescriptorError(f"field 'checks': row {t} is not a list of variable ids")
    m = len(checks)
    var_kind = int_array("var_kind", n, np.uint8)
    var_pos = int_array("var_pos", n, np.int32)
    check_pos = int_array("check_pos", m, np.int32)

    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum([len(row) for row in checks], out=indptr[1:])
    inst = CodeInstance(
        family=family,
        params=params,
        seed=seed,
        n=n,
        k=k,
        var_kind=var_kind,
        var_pos=var_pos,
        check_pos=check_pos,
        check_indptr=indptr,
        check_vars=np.array([v for row in checks for v in row], dtype=np.int32),
    )
    try:
        validate_instance(inst)
    except ConstructionError as exc:
        raise DescriptorError(f"field 'checks': {exc}") from None
    return inst
