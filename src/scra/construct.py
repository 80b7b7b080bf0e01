"""Explicit graph instances of coupled RA codes and coupled LDPC baselines.

A message bit at position i places one edge in each check position of its
window {i, ..., i+q-1}; the accumulator runs over all checks in one global
chain.  Within a check position the incoming edges land on checks through
a balanced, seeded socket assignment, so interior checks absorb exactly
`a` message edges and boundary checks split the shortfall evenly.
"""

from __future__ import annotations

import json
from contextlib import suppress
from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import chain

import numpy as np

from scra.ensembles import FAMILY_PARAMS, ParameterError, ScLdpcParams, ScRaParams, code_size, is_int

DESCRIPTOR_FORMAT = "sc-code-descriptor"
DESCRIPTOR_VERSION = 3


class ConstructionError(RuntimeError):
    """Raised when a built instance violates a structural invariant."""


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

    params: ScRaParams | ScLdpcParams
    seed: int
    n: int
    check_indptr: np.ndarray
    check_vars: np.ndarray

    @property
    def family(self) -> str:
        return self.params.family

    @property
    def m(self) -> int:
        return len(self.check_indptr) - 1

    @property
    def k(self) -> int:
        return self.n - self.m

    @property
    def n_msg(self) -> int:
        """Number of message variables, which are numbered first."""
        return self.params.span * self.params.M

    @cached_property
    def edge_checks(self) -> np.ndarray:
        """Check id of every edge in check_vars order, cached."""
        return np.repeat(np.arange(self.m, dtype=np.intp), np.diff(self.check_indptr))

    @cached_property
    def padded_var_checks(self) -> np.ndarray:
        """(n, max variable degree) table of each variable's checks, cached.

        Rows are ascending; unused entries hold the sentinel check id m.
        """
        edge_chk = self.edge_checks
        order = _edge_order(self.check_vars, edge_chk, self.m)
        var = self.check_vars[order]
        deg = np.bincount(var, minlength=self.n)
        first = np.cumsum(deg) - deg
        padded = np.full((self.n, int(deg.max(initial=0))), self.m, dtype=np.intp)
        padded[var, np.arange(len(var)) - first[var]] = edge_chk[order]
        return padded

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CodeInstance):
            return NotImplemented
        return (
            (self.params, self.seed, self.n) == (other.params, other.seed, other.n)
            and np.array_equal(self.check_indptr, other.check_indptr)
            and np.array_equal(self.check_vars, other.check_vars)
        )


def _edge_order(major: np.ndarray, minor: np.ndarray, size: int) -> np.ndarray:
    """Edge order by (major, minor), minor < size, as one argsort of one int64
    key; only parallel edges tie, and they carry equal values."""
    return np.argsort(major.astype(np.int64) * size + minor)


def _assemble(edge_chk: np.ndarray, edge_var: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    order = _edge_order(edge_chk, edge_var, n)
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
    if not (is_int(seed) and seed >= 0):  # load_descriptor's rule, so that every saved seed loads
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
    indptr, check_vars = _assemble(edge_chk, edge_var, m, n)
    inst = CodeInstance(params=p, seed=seed, n=n, check_indptr=indptr, check_vars=check_vars)
    validate_instance(inst)
    return inst


def build_sc_ra(p: ScRaParams, seed: int) -> CodeInstance:
    """Build one coupled RA instance from (params, seed).

    Parameters
    ----------
    p : ScRaParams
        Ensemble parameters with `w` None; a set window is refused.
    seed : int
        Seed of the construction stream, an int >= 0 (no bool).

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
    if c.m == 0:
        raise ConstructionError("code has no checks")
    # boundary checks may carry few message edges, but never none at all
    if np.any(np.diff(c.check_indptr) < 1):
        raise ConstructionError("check of degree 0")
    # tested before any n-sized allocation: n may come from an untrusted file
    if c.n > len(c.check_vars):
        raise ConstructionError("variable of degree 0")
    edge_chk = c.edge_checks  # built once here, for every later user of the instance
    # strictly ascending neighbor lists <=> no parallel edges
    same_check = edge_chk[1:] == edge_chk[:-1]
    if np.any(np.diff(c.check_vars)[same_check] <= 0):
        raise ConstructionError("parallel or unsorted edges in check adjacency")

    var_deg = np.bincount(c.check_vars, minlength=c.n)
    if np.any(var_deg == 0):
        raise ConstructionError("variable of degree 0")
    n_msg = c.n_msg
    msg_edge = c.check_vars < n_msg

    p = c.params
    k, n = code_size(p)
    if (c.n, c.m) != (n, n - k):
        raise ConstructionError(f"n={c.n}, m={c.m} disagree with the parameters (n={n}, m={n - k})")
    if np.any(var_deg[:n_msg] != p.width):
        raise ConstructionError(f"message variable degree != {p.width}")
    # every message edge lies inside the one-sided window of its source
    offs = edge_chk[msg_edge] // p.checks_per_pos - c.check_vars[msg_edge] // p.M
    if np.any(offs < 0) or np.any(offs >= p.width):
        raise ConstructionError("message edge outside its coupling window")
    msg_deg = np.bincount(edge_chk[msg_edge], minlength=c.m)
    if np.any(msg_deg > p.combine):
        raise ConstructionError(f"check absorbs more than {p.combine} message edges")
    # checks whose window of source positions is not cut by a chain end
    full = np.repeat(p.sources_per_check_pos() == p.width, p.checks_per_pos)
    if np.any(msg_deg[full] != p.combine):
        raise ConstructionError("interior check does not absorb exactly the combiner degree")

    if c.family == "ra":
        par_deg = var_deg[n_msg:]
        if np.any(par_deg[:-1] != 2) or par_deg[-1] != 1:
            raise ConstructionError("parity degrees must be 2 with a final degree-1 bit")
        # ascending rows, these degrees and the band below fix the whole chain
        sel = ~msg_edge
        band = edge_chk[sel] - (c.check_vars[sel] - n_msg)
        if np.any(band < 0) or np.any(band > 1):
            raise ConstructionError("parity edge outside the bidiagonal band")


# -- text I/O ----------------------------------------------------------------

def _write_text(dest, text: str) -> None:
    """Write text to a path or to an open text handle."""
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def _write_csv(dest, tag: str, metadata: dict, columns: str, rows) -> None:
    """Write '# tag', the sorted '# key=value' metadata lines, the column line and the rows, one a line."""
    meta = [f"# {key}={metadata[key]}" for key in sorted(metadata)]
    _write_text(dest, "".join(line + "\n" for line in [f"# {tag}", *meta, columns, *rows]))


def _read_text(src) -> str:
    """Read all text from a path or from an open text handle."""
    if hasattr(src, "read"):
        return src.read()
    with open(src) as fh:
        return fh.read()


# -- alist export ------------------------------------------------------------

def _rows_text(ids: np.ndarray, ends: np.ndarray, sep: str, end: str, base: int = 0) -> str:
    """Text of rows of ids, each id plus base in ASCII digits: a row's ids
    joined by sep, then end.  Row r holds ids[ends[r - 1]:ends[r]], from 0
    for the first row, so an empty row gives end alone.

    The digits of every value up to the largest (below the edge count in a
    valid code), then sep, are laid out once in a table of fixed-width byte
    cells, zero bytes leading; one gather puts a cell per id and an end
    cell per row in order.  The sep of each row's last id is cleared and
    the zero bytes are dropped.
    """
    top = int(ids.max(initial=0)) + base
    width = len(str(top))
    size = max(width + 1, len(end))
    table = np.zeros((top - base + 2, size), dtype=np.uint8)
    v = np.arange(base, top + 1, dtype=np.int32)  # ids < n < 2**31, as check_vars are int32
    table[:-1, width - 1] = v % 10 + ord("0")  # every value has a last digit, 0 too
    for col in range(width - 2, -1, -1):
        v //= 10
        table[:-1, col] = np.where(v > 0, v % 10 + ord("0"), 0)
    table[:-1, width] = ord(sep)
    table[-1, : len(end)] = list(end.encode())
    cells = np.insert(ids, ends, len(table) - 1)  # row r's end cell follows its ids
    text = np.take(table.view(f"V{size}").ravel(), cells).view(np.uint8)
    row_end = ends + np.arange(len(ends))
    text[(row_end[np.diff(ends, prepend=0) > 0] - 1) * size + width] = 0  # no sep before a row end
    return text.tobytes().translate(None, b"\0").decode("ascii")


def export_alist(c: CodeInstance, dest) -> None:
    """Write the adjacency in alist text form.

    Header is "n m"; neighbor lists are 1-based and ascending; no zero
    padding is emitted.
    """
    col_deg = np.bincount(c.check_vars, minlength=c.n)
    row_deg = np.diff(c.check_indptr)
    col_chk = c.edge_checks[_edge_order(c.check_vars, c.edge_checks, c.m)]
    _write_text(dest, "".join([
        f"{c.n} {c.m}\n{int(col_deg.max(initial=0))} {int(row_deg.max(initial=0))}\n",
        _rows_text(np.concatenate([col_deg, row_deg]), np.array([c.n, c.n + c.m]), " ", "\n"),
        _rows_text(col_chk, np.cumsum(col_deg), " ", "\n", base=1),
        _rows_text(c.check_vars, c.check_indptr[1:], " ", "\n", base=1),
    ]))


# -- descriptor persistence --------------------------------------------------

def _params_to_json(p: ScRaParams | ScLdpcParams) -> dict:
    return {"family": p.family, **asdict(p)}


def _params_from_json(obj) -> ScRaParams | ScLdpcParams:
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


def save_descriptor(c: CodeInstance, dest) -> None:
    """Persist an instance losslessly as canonical JSON: sorted keys, no
    spaces, one list of variable ids per check, and a trailing newline.
    The checks, whose key sorts first, are written by _rows_text."""
    rows = ("[" + _rows_text(c.check_vars, c.check_indptr[1:], ",", "],["))[:-2]  # "" without checks
    rest = {"format": DESCRIPTOR_FORMAT, "version": DESCRIPTOR_VERSION,
            "params": _params_to_json(c.params), "seed": c.seed, "n": c.n}
    _write_text(dest, '{"checks":[' + rows + "]," + json.dumps(rest, sort_keys=True, separators=(",", ":"))[1:] + "\n")


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
    if not (is_int(seed) and seed >= 0):
        raise DescriptorError("field 'seed': expected a non-negative integer")
    params = _params_from_json(obj["params"])
    if n != code_size(params)[1]:
        raise DescriptorError(f"field 'n': {n} disagrees with the parameters (n={code_size(params)[1]})")
    if not isinstance(checks, list):
        raise DescriptorError("field 'checks': expected a list of rows")
    ids = _check_ids(checks, n)
    indptr = np.zeros(len(checks) + 1, dtype=np.int64)
    np.cumsum(list(map(len, checks)), out=indptr[1:])
    inst = CodeInstance(params=params, seed=seed, n=n, check_indptr=indptr, check_vars=ids.astype(np.int32))
    try:
        validate_instance(inst)
    except ConstructionError as exc:
        raise DescriptorError(f"field 'checks': {exc}") from None
    return inst


def _check_ids(checks: list, n: int) -> np.ndarray:
    """All ids of the rows in order, as int64, if every row is a list of int
    ids in [0, n) and n is at most the edge count; else the DescriptorError
    naming the first bad row or, if all rows are good, field 'n'.

    One type pass over the rows and one over the ids, one conversion and one
    range check; only a bad document, or one with an id past int64, is
    walked row by row to find the row to name.  JSON true is no int.
    """
    ids = None
    if set(map(type, checks)) <= {list} and set(map(type, chain.from_iterable(checks))) <= {int}:
        with suppress(OverflowError):
            ids = np.fromiter(chain.from_iterable(checks), dtype=np.int64)
    if ids is None or (ids.size and (int(ids.min()) < 0 or int(ids.max()) >= n)):
        for t, row in enumerate(checks):
            if not (isinstance(row, list) and all(is_int(v) and 0 <= v < n for v in row)):
                raise DescriptorError(f"field 'checks': row {t} is not a list of variable ids")
    edges = sum(map(len, checks))
    # every variable has an edge, so n is bounded by what the file holds (a good
    # id past int64 means n is too); a document without checks fails later
    if checks and n > edges:
        raise DescriptorError(f"field 'n': {n} variables but only {edges} edges")
    return ids
