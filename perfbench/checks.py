"""Output checks: sweep CSVs against pinned digests or seed-free invariants,
and threshold brackets against their probes and the pinned thresholds."""

from __future__ import annotations

import hashlib

BUILD_LINE = "# build="  # build ids move on purpose when the descriptor format changes


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def csv_digest(text: str) -> dict:
    """Digest of a simulate CSV: one hash for the header, one per data row.

    The `# build=` metadata line is left out; every other byte counts.
    """
    lines = text.split("\n")
    if lines[-1] != "":
        raise ValueError("CSV text must end with a newline")
    lines = [ln for ln in lines[:-1] if not ln.startswith(BUILD_LINE)]
    cut = next(i for i, ln in enumerate(lines) if ln.startswith("eps,")) + 1
    return {"header": _sha("\n".join(lines[:cut])), "rows": [_sha(ln) for ln in lines[cut:]]}


def failed_rows_vs_golden(text: str, golden: dict) -> int:
    """Rows that differ from the pinned digest; a changed header fails every row."""
    got = csv_digest(text)
    n = max(len(got["rows"]), len(golden["rows"]))
    if got["header"] != golden["header"] or len(got["rows"]) != len(golden["rows"]):
        return n
    return sum(a != b for a, b in zip(got["rows"], golden["rows"]))


def parse_csv(text: str) -> tuple[dict, list[list[str]]]:
    """(metadata, data rows as cells) of a simulate CSV."""
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# ") and "=" in line:
            key, value = line[2:].split("=", 1)
            meta[key] = value
        elif line and line[0].isdigit():
            rows.append(line.split(","))
    return meta, rows


def csv_trials(text: str) -> int:
    """Trials kept in a simulate CSV, summed over its rows."""
    return sum(int(cells[1]) for cells in parse_csv(text)[1])


def failed_rows_by_invariants(text: str) -> int:
    """Rows that break a seed-free invariant of a simulate CSV.

    Each row must have word_err <= trials, must have used its full trial
    budget or stopped exactly at the word-error count, and must count no
    more message-bit errors than trials x message bits.
    """
    meta, rows = parse_csv(text)
    budget = int(meta["max_trials"])
    stop = None if meta["max_word_errors"] == "None" else int(meta["max_word_errors"])
    bits = int(meta["message_bits"])
    failed = 0
    for cells in rows:
        trials, word_err, bit_err = int(cells[1]), int(cells[2]), int(cells[6])
        ok = (
            0 <= word_err <= trials
            and (trials == budget or (stop is not None and word_err == stop and trials < budget))
            and 0 <= bit_err <= trials * bits
        )
        failed += not ok
    return failed


def capped_probes(probes, max_iters: int) -> list:
    """Probes that ran out of DE iterations: not converged at exactly max_iters."""
    return [p for p in probes if not p[1] and p[2] == max_iters]


def check_bracket(result, pin: float, precision: float, max_iters: int,
                  pin_tol: float = 2e-4) -> tuple[bool, list[str]]:
    """(hi end verified, hard errors) for one ThresholdResult.

    A search whose hi probe ran out of iterations is a failed operation,
    not a hard error.  Hard errors are a bracket wider than the
    precision, a lo probe that did not converge, and a midpoint more than
    pin_tol from the pinned threshold.
    """
    errors = []
    if result.hi - result.lo > precision + 1e-12:
        errors.append(f"bracket [{result.lo}, {result.hi}] wider than {precision}")
    by_eps = {p[0]: p for p in result.probes}
    lo, hi = by_eps.get(result.lo), by_eps.get(result.hi)
    if lo is None or not lo[1]:
        errors.append(f"lo={result.lo} has no converged probe")
    if hi is None or hi[1]:
        errors.append(f"hi={result.hi} has no failed probe")
    mid = 0.5 * (result.lo + result.hi)
    if abs(mid - pin) > pin_tol:
        errors.append(f"midpoint {mid:.6f} is more than {pin_tol} from the pin {pin}")
    hi_verified = hi is not None and not capped_probes([hi], max_iters)
    return hi_verified, errors
