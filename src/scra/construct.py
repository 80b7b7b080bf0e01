"""Explicit graph instances of coupled RA codes and coupled LDPC baselines.

A message bit at position i places one edge in each check position of its
window {i, ..., i+q-1}; the accumulator runs over all checks in one global
chain.  Within a check position the incoming edges land on checks through
a balanced, seeded socket assignment, so interior checks absorb exactly
`a` message edges and boundary checks split the shortfall evenly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from scra.ensembles import FAMILY_PARAMS, ParameterError, ScLdpcParams, ScRaParams, code_size, is_int

KIND_MESSAGE = 0
KIND_PARITY = 1

DESCRIPTOR_FORMAT = "sc-code-descriptor"
DESCRIPTOR_VERSION = 3


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
    lists strictly ascending.  Only the graph is stored: the family, k,
    the message count and every position follow from the parameters.
    """

    params: ScRaParams | ScLdpcParams | None
    seed: int | None
    n: int
    check_indptr: np.ndarray
    check_vars: np.ndarray
    _tables: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    @property
    def family(self) -> str:
        return "alist" if self.params is None else self.params.family

    @property
    def m(self) -> int:
        return len(self.check_indptr) - 1

    @property
    def k(self) -> int:
        return self.n - self.m

    @property
    def n_msg(self) -> int:
        """Number of message variables, which are numbered first."""
        return self.k if self.family == "ra" else self.n

    @property
    def check_pos(self) -> np.ndarray:
        """Chain position of every check, cached; all zero without params."""
        if "check_pos" not in self._tables:
            p = self.params
            self._tables["check_pos"] = (
                np.zeros(self.m, dtype=np.int32)
                if p is None
                else np.repeat(np.arange(p.n_chk_pos, dtype=np.int32), p.checks_per_pos)
            )
        return self._tables["check_pos"]

    @property
    def var_pos(self) -> np.ndarray:
        """Chain position of every variable, cached; all zero without params.

        A parity bit sits at the position of its check.
        """
        if "var_pos" not in self._tables:
            p = self.params
            self._tables["var_pos"] = (
                np.zeros(self.n, dtype=np.int32)
                if p is None
                else np.concatenate([
                    np.repeat(np.arange(p.span, dtype=np.int32), p.M),
                    self.check_pos[: self.n - self.n_msg],
                ])
            )
        return self._tables["var_pos"]

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
        return (
            (self.params, self.seed, self.n) == (other.params, other.seed, other.n)
            and np.array_equal(self.check_indptr, other.check_indptr)
            and np.array_equal(self.check_vars, other.check_vars)
        )


def _assemble(edge_chk: np.ndarray, edge_var: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    order = np.lexsort((edge_var, edge_chk))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge_chk, minlength=m), out=indptr[1:])
    return indptr, edge_var[order].astype(np.int32)


def _windowed_edges(rng: np.random.Generator, p: ScRaParams | ScLdpcParams) -> tuple[np.ndarray, np.ndarray]:
    """Seeded balanced socket assignment for all window edges.

    Per check position: a random check relabeling, then one random
    permutation per contributing variable position mapping its bits onto a
    balanced stripe of sockets.  RNG consumption order is fixed (check
    positions ascending, sources ascending) so the graph is a pure
    function of (params, seed).
    """
    chk_parts = []
    var_parts = []
    cpp = p.checks_per_pos
    bit_ids = np.arange(p.M, dtype=np.int64)
    for j in range(p.n_chk_pos):
        relabel = rng.permutation(cpp)
        for t, i in enumerate(range(max(0, j - p.width + 1), min(p.span - 1, j) + 1)):
            pi = rng.permutation(p.M)
            local = relabel[(t * p.M + pi) % cpp]
            chk_parts.append(j * cpp + local)
            var_parts.append(i * p.M + bit_ids)
    return np.concatenate(chk_parts), np.concatenate(var_parts)


def _build(p: ScRaParams | ScLdpcParams, seed: int, family: str) -> CodeInstance:
    if getattr(p, "family", None) != family:
        raise ParameterError(f"build_sc_{family} needs {family} parameters, got {p!r}")
    if p.w is not None:
        raise ParameterError("a code instance takes w=None parameters; w is the window of the smoothed DE")
    if seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    k, n = code_size(p)
    m = n - k
    edge_chk, edge_var = _windowed_edges(np.random.default_rng(seed), p)
    if p.family == "ra":
        chain = np.arange(m, dtype=np.int64)
        # check t sees its own parity bit and the previous one; the edge that
        # would close the chain at the top-right corner is omitted.
        edge_chk = np.concatenate([edge_chk, chain, chain[1:]])
        edge_var = np.concatenate([edge_var, k + chain, k + chain[:-1]])
    indptr, check_vars = _assemble(edge_chk, edge_var, m)
    inst = CodeInstance(params=p, seed=seed, n=n, check_indptr=indptr, check_vars=check_vars)
    validate_instance(inst)
    return inst


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
    return _build(p, seed, "ra")


def build_sc_ldpc(p: ScLdpcParams, seed: int) -> CodeInstance:
    """Build one coupled regular LDPC baseline instance from (params, seed).

    Same windowed balanced assignment as the RA family with window width
    dl, no accumulator.  All variables are codeword bits; k is the nominal
    dimension n - m.
    """
    return _build(p, seed, "ldpc")


def validate_instance(c: CodeInstance) -> None:
    """Check the structural invariants of a built instance.

    No empty check or variable, simple graph, sizes and message degrees
    as the parameters fix them, window containment, balanced check fill
    (interior checks absorb exactly the combiner degree), and the
    bidiagonal parity chain for the RA family.
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
    # tested before any n-sized allocation: n may come from an untrusted file
    if c.n > len(c.check_vars):
        fail("variable of degree 0")
    # strictly ascending neighbor lists <=> no parallel edges
    interior_steps = np.diff(c.check_vars)
    boundary = ends[:-1]  # last index of each check's slice except final
    keep = np.ones(len(c.check_vars) - 1, dtype=bool)
    keep[boundary - 1] = False
    if np.any(interior_steps[keep] <= 0):
        fail("parallel or unsorted edges in check adjacency")

    var_deg = np.bincount(c.check_vars, minlength=c.n)
    if np.any(var_deg == 0):
        fail("variable of degree 0")
    n_msg = c.n_msg
    msg_edge = c.check_vars < n_msg
    edge_chk = np.repeat(np.arange(c.m, dtype=np.int64), ends - starts)

    if c.params is not None:
        p = c.params
        k, n = code_size(p)
        if (c.n, c.m) != (n, n - k):
            fail(f"n={c.n}, m={c.m} disagree with the parameters (n={n}, m={n - k})")
        if np.any(var_deg[:n_msg] != p.width):
            fail(f"message variable degree != {p.width}")
        # every message edge lies inside the one-sided window of its source
        offs = c.check_pos[edge_chk[msg_edge]] - c.var_pos[c.check_vars[msg_edge]]
        if np.any(offs < 0) or np.any(offs >= p.width):
            fail("message edge outside its coupling window")
        msg_deg = np.bincount(edge_chk[msg_edge], minlength=c.m)
        if np.any(msg_deg > p.combine):
            fail(f"check absorbs more than {p.combine} message edges")
        # checks whose window of source positions is not cut by a chain end
        full = (p.sources_per_check_pos() == p.width)[c.check_pos]
        if np.any(msg_deg[full] != p.combine):
            fail("interior check does not absorb exactly the combiner degree")

    if c.family == "ra":
        par_deg = var_deg[n_msg:]
        if np.any(par_deg[:-1] != 2) or par_deg[-1] != 1:
            fail("parity degrees must be 2 with a final degree-1 bit")
        for t in (0, c.m - 1):  # spot ends; the bulk is covered by the degree check
            nbrs = set(int(v) for v in c.check_neighbors(t) if v >= n_msg)
            want = {n_msg + t} | ({n_msg + t - 1} if t > 0 else set())
            if nbrs != want:
                fail(f"parity chain broken at check {t}")
        sel = ~msg_edge
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
    for kind, kind_deg in ((KIND_MESSAGE, var_deg[: c.n_msg]), (KIND_PARITY, var_deg[c.n_msg :])):
        if kind_deg.size:
            degs, counts = np.unique(kind_deg, return_counts=True)
            var_hist[kind] = {int(d): int(cnt) for d, cnt in zip(degs, counts)}
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

    Zero padding inside neighbor lists is accepted and dropped.  An
    imported matrix has no parameters: all variables count as message bits
    at position 0 and k is the nominal n - m.  The graph passes
    validate_instance (no empty row or column), so it saves to a loadable
    descriptor.
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

    inst = CodeInstance(params=None, seed=None, n=n, check_indptr=indptr, check_vars=check_vars)
    try:
        validate_instance(inst)
    except ConstructionError as exc:
        raise AlistError(f"invalid graph: {exc}") from None
    return inst


# -- descriptor persistence --------------------------------------------------

def _params_to_json(p: ScRaParams | ScLdpcParams | None):
    return None if p is None else {"family": p.family, **asdict(p)}


def _params_from_json(obj) -> ScRaParams | ScLdpcParams | None:
    if obj is None:
        return None
    if not isinstance(obj, dict) or "family" not in obj:
        raise DescriptorError("field 'params': expected an object with a 'family' entry")
    cls = FAMILY_PARAMS.get(obj["family"]) if isinstance(obj["family"], str) else None
    if cls is None:
        raise DescriptorError(f"field 'params': unknown family {obj['family']!r}")
    keys = {"family"} | {f.name for f in fields(cls)}
    bad = sorted(set(obj) ^ keys)
    if bad:
        raise DescriptorError(f"field 'params': {'missing' if bad[0] in keys else 'unknown'} entry {bad[0]!r}")
    if obj["w"] is not None:
        raise DescriptorError("field 'params': w must be null; a code instance has no smoothing window")
    try:
        return cls(**{k: v for k, v in obj.items() if k != "family"})
    except ParameterError as exc:
        raise DescriptorError(f"field 'params': {exc}") from None


_DESCRIPTOR_KEYS = {"format", "version", "params", "seed", "n", "checks"}


def descriptor_dict(c: CodeInstance) -> dict:
    return {
        "format": DESCRIPTOR_FORMAT,
        "version": DESCRIPTOR_VERSION,
        "params": _params_to_json(c.params),
        "seed": c.seed,
        "n": c.n,
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
    bad_keys = sorted(set(obj) ^ _DESCRIPTOR_KEYS)
    if bad_keys:
        name = bad_keys[0]
        raise DescriptorError(f"field {name!r}: " + ("missing" if name in _DESCRIPTOR_KEYS else "unknown key"))

    n, seed, checks = obj["n"], obj["seed"], obj["checks"]
    if not is_int(n):
        raise DescriptorError("field 'n': expected an integer")
    if seed is not None and not is_int(seed):
        raise DescriptorError("field 'seed': expected an integer or null")
    params = _params_from_json(obj["params"])
    if params is not None and n != code_size(params)[1]:
        raise DescriptorError(f"field 'n': {n} disagrees with the parameters (n={code_size(params)[1]})")
    if not isinstance(checks, list):
        raise DescriptorError("field 'checks': expected a list of rows")
    for t, row in enumerate(checks):
        if not isinstance(row, list) or not all(is_int(v) and 0 <= v < n for v in row):
            raise DescriptorError(f"field 'checks': row {t} is not a list of variable ids")
    indptr = np.zeros(len(checks) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in checks], out=indptr[1:])
    # every variable has an edge, so n is bounded by what the file holds;
    # a document without checks fails validation below, on field 'checks'
    if checks and n > int(indptr[-1]):
        raise DescriptorError(f"field 'n': {n} variables but only {int(indptr[-1])} edges")
    inst = CodeInstance(
        params=params,
        seed=seed,
        n=n,
        check_indptr=indptr,
        check_vars=np.array([v for row in checks for v in row], dtype=np.int32),
    )
    try:
        validate_instance(inst)
    except ConstructionError as exc:
        raise DescriptorError(f"field 'checks': {exc}") from None
    return inst
