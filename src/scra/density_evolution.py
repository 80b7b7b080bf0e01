"""Density evolution on the BEC for coupled RA and LDPC ensembles.

Two ensemble views are tracked.  The smoothed (window-w) recursions
follow the randomized ensemble with one erasure value per position.  The
structured view follows the protograph instance: one value per (message
position -> check position) edge bundle, plus left/right accumulator
neighbor values per check position as the two rows of y, with boundary
checks modeled through their mean message degree (a real-valued exponent).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np

from scra.ensembles import (
    ParameterError,
    ScLdpcParams,
    ScRaParams,
    density_matched_q,
    design_rate,
    rate_sc_ra_w,
)
from scra.construct import _write_text

DELTA_SUCCESS = 1e-8
DELTA_STALL = 1e-12
MAX_ITERS = 20000
DE_BLOCK = 64  # most steps de_run takes between checks of its stop conditions
BISECT_PRECISION = 1e-4
FIG4_RATE = Fraction(1, 2)  # uncoupled design rate of the Fig. 4 degree families


class DensityEvolutionError(RuntimeError):
    """Raised for inconsistent convergence behavior or bad model setup."""


@dataclass
class DeState:
    """Erasure probabilities of one DE recursion after `iteration` steps.

    x: message-to-check erasure; per message position, index 0 at the left
       termination (smoothed), or x[i, d] for the bundle from message
       position i into check position i+d (structured).
    y: parity-to-check erasure, None for LDPC; per active check position
       (smoothed), or shape (2, n_chk_pos) with rows from the left and the
       right accumulator neighbor (structured).
    """

    x: np.ndarray
    y: np.ndarray | None
    eps: float
    iteration: int


class _Driver:
    """What the DE drivers share: a step into fresh arrays and the states de_run
    steps through (see de_run for the driver contract)."""

    def step(self, s: DeState) -> DeState:
        """One step into fresh arrays, so a state the caller holds is never overwritten."""
        x, y = np.empty_like(s.x), None if s.y is None else np.empty_like(s.y)
        self.step_into(s.x, s.y, s.eps, x, y)
        return DeState(x, y, s.eps, s.iteration + 1)

    @cached_property
    def history(self) -> tuple[np.ndarray, np.ndarray | None]:
        """DE_BLOCK + 1 values of x, and of y (None without y), for de_run to step through."""
        s = self.initial_state(0.0)
        rows = DE_BLOCK + 1
        return np.empty((rows, *s.x.shape)), None if s.y is None else np.empty((rows, *s.y.shape))


def _residuals(xs: np.ndarray) -> np.ndarray:
    """The residual of each state in a stack: its largest message erasure x."""
    return np.maximum.reduce(xs.reshape(len(xs), -1), 1)


def _changes(xs: np.ndarray, ys: np.ndarray | None) -> np.ndarray:
    """The change into each state of a stack from the one before it: the largest
    move of x, or of y where that is larger.  A NaN move of x is the change; one
    of y alone is not, as in Python's max(dx, dy)."""
    d = np.subtract(xs[1:], xs[:-1])
    d = np.maximum.reduce(np.abs(d, out=d).reshape(len(xs) - 1, -1), 1)
    if ys is not None:
        dy = np.subtract(ys[1:], ys[:-1])
        dy = np.maximum.reduce(np.abs(dy, out=dy).reshape(len(ys) - 1, -1), 1)
        d = np.where(dy > d, dy, d)
    return d


class _WModel(_Driver):
    """Driver for the smoothed recursions; make_de_model has checked the window."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)

    @cached_property
    def _tables(self) -> tuple:
        """Constants for step_into, built on first use so make_de_model stays cheap: the
        window of ones, whether np.convolve would swap its operands, and w and the
        exponents at a check, a variable and (RA) a parity as floats, which numpy takes
        faster than ints, to the same result."""
        p = self.p
        exponents = (p.a - 1, p.q - 1, p.a) if self.is_ra else (p.dr - 1, p.dl - 1, 0)
        # np.convolve puts the longer operand first; a window wider than the chain
        # swaps the two, and the sums of each window then run in the other order
        return np.ones(p.w), p.w > p.span, float(p.w), *map(float, exponents)

    def initial_state(self, eps: float) -> DeState:
        y = np.full(2 * self.p.L + self.p.w, eps) if self.is_ra else None
        return DeState(np.full(self.p.span, eps), y, eps, 0)

    def step_into(self, x, y, eps, x_out, y_out) -> None:
        """One synchronous update from the iteration-(l) state; each new y[t] reads the old y[t]."""
        ones, swap, w, e_chk, e_var, e_par = self._tables
        # 1 - the mean of x over {t-w+1..t} for every check position t, zeros outside
        omx = np.correlate(ones, x[::-1], "full") if swap else np.correlate(x, ones, "full")
        np.divide(omx, w, out=omx)
        np.subtract(1.0, omx, out=omx)
        if y is None:
            g = omx ** e_chk
        else:
            omy = 1.0 - y
            g = omy ** 2
            np.multiply(g, omx ** e_chk, out=g)
        v = np.correlate(g, ones, "valid")
        np.divide(v, w, out=v)
        np.subtract(1.0, v, out=v)
        v **= e_var
        np.multiply(eps, v, out=x_out)
        if y is not None:
            t = omx ** e_par
            np.multiply(omy, t, out=t)
            np.subtract(1.0, t, out=t)
            np.multiply(eps, t, out=y_out)


class _ProtoModel(_Driver):
    """Driver for the structured (protograph) recursion."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)
        self.width = p.width
        self.span = p.span
        self.n_chk = p.n_chk_pos

    @cached_property
    def _tables(self) -> tuple:
        """Degrees, index tables and scratch for step_into, built on first use so
        make_de_model stays cheap."""
        w, span, n_chk = self.width, self.span, self.n_chk
        n_sources = self.p.sources_per_check_pos().astype(np.float64)  # bundles into each check position
        mean_deg = self.p.combine * n_sources / w  # and its mean message degree
        window = np.arange(span)[:, None] + np.arange(w)  # [i, d] -> i + d, where bundle x[i, d] enters
        # buf is zero but for buf[d, i + d] = diag[d, i], so its column sums add the bundles in order of d
        flat = np.zeros(w * (n_chk + 1))
        diag, buf = flat.reshape(w, n_chk + 1)[:, :span], flat[: w * n_chk].reshape(w, n_chk)
        # gather indexes z with a trailing 1.0: [:, 0, i] -> (1, z[i], .., z[i+w-2]) and [:, 1, i] ->
        # (1, z[i+w-1], .., z[i+1]); one cumprod of those gives the products before and after each bundle
        gather = np.full((w, 2, span), n_chk)
        gather[1:, 0], gather[1:, 1] = window.T[:-1], window.T[:0:-1]
        z = np.ones(n_chk + 1)  # check-to-message erasure, then the empty product
        c, xt = np.empty(gather.shape), np.empty((w, span))  # the cumprod, and x with a row per bundle
        return n_sources, mean_deg - 1.0, mean_deg, diag, buf, gather, z, c, xt

    def initial_state(self, eps: float) -> DeState:
        y = np.full((2, self.n_chk), eps) if self.is_ra else None
        return DeState(np.full((self.span, self.width), eps), y, eps, 0)

    def step_into(self, x, y, eps, x_out, y_out) -> None:
        n_sources, deg_m1, deg, diag, buf, gather, z, c, xt = self._tables
        diag[...] = x.T
        omx = np.add.reduce(buf, 0)
        np.divide(omx, n_sources, out=omx)
        np.subtract(1.0, omx, out=omx)  # 1 - the mean bundle into each check position
        clean = omx ** deg_m1
        if self.is_ra:
            omy = 1.0 - y
            np.multiply(clean, omy[0], out=clean)  # left, then right: the rounding the digests pin
            np.multiply(clean, omy[1], out=clean)
        np.subtract(1.0, clean, out=z[:-1])
        np.multiply.accumulate(z.take(gather, mode="clip"), 0, out=c)  # np.cumprod without its wrapper
        np.multiply(eps, c[:, 0], out=xt)
        np.multiply(xt, c[::-1, 1], out=x_out.T)
        if self.is_ra:
            np.multiply(omy, omx ** deg, out=y_out)
            np.subtract(1.0, y_out, out=y_out)
            np.multiply(eps, y_out, out=y_out)


def _ra_uncoupled(p: ScRaParams) -> _WModel:
    """The smoothed recursion at L=0, w=1: the single-position RA fixed-point iteration."""
    return _WModel(ScRaParams(q=p.q, a=p.a, L=0, M=p.a, w=1))


# kind -> (parameter type, window w required (True), forbidden (False) or ignored (None), factory);
# the uncoupled view, which ignores w, has no chain and ignores L too
MODELS = {
    "ra-w": (ScRaParams, True, _WModel),
    "ra-proto": (ScRaParams, False, _ProtoModel),
    "ldpc-w": (ScLdpcParams, True, _WModel),
    "ldpc-proto": (ScLdpcParams, False, _ProtoModel),
    "ra-uncoupled": (ScRaParams, None, _ra_uncoupled),
}


def make_de_model(kind: str, p: ScRaParams | ScLdpcParams):
    """Build the DE driver for one ensemble view."""
    if kind not in MODELS:
        raise ParameterError(f"unknown ensemble kind {kind!r}; expected one of {tuple(MODELS)}")
    ptype, windowed, factory = MODELS[kind]
    if not isinstance(p, ptype):
        raise ParameterError(f"{kind} needs {ptype.__name__}")
    if windowed is True and p.w is None:
        raise ParameterError("smoothed model needs the window w")
    if windowed is False and p.w is not None:
        raise ParameterError("structured model takes w=None parameters")
    return factory(p)


@dataclass
class DeRunResult:
    """One DE run: outcome is "converged", "stalled" (the change fell below
    DELTA_STALL first) or "budget" (max_iters ran out undecided)."""

    outcome: str
    iterations: int
    residual: float

    @property
    def converged(self) -> bool:
        return self.outcome == "converged"


def de_run(model, eps: float, max_iters: int = MAX_ITERS) -> DeRunResult:
    """Iterate a driver's recursion at fixed eps until success, stall, or budget.

    Success: the residual (the largest message erasure) falls below
    DELTA_SUCCESS.  Stall: the change (the largest move of x, or of y where
    that is larger) falls below DELTA_STALL first, reporting
    non-convergence; a NaN change counts as a stall, so a recursion that
    breaks down stops at once rather than running out the budget.  The
    result is that of checking both after every step.

    model is a driver from make_de_model, or any object with:
      initial_state(eps) -> DeState, the state before the first step;
      step_into(x, y, eps, x_out, y_out), which writes the step from the
        values (x, y) at eps into x_out and y_out, y and y_out being None
        where the state has no y, and whose result depends on those alone;
      history, a pair of arrays of DE_BLOCK + 1 values of x and of y (or
        None), which de_run overwrites, so one model runs one de_run at a
        time.
    The steps go in blocks of 1, 2, 4, .. up to DE_BLOCK steps, and both
    stop conditions are checked once per block, for all its steps in whole
    array passes; the steps after the first decisive one are thrown away.
    """
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    xs, ys = model.history
    s = model.initial_state(eps)
    xs[0] = s.x
    if ys is not None:
        ys[0] = s.y
    rows = list(zip(xs, [None] * len(xs) if ys is None else ys))
    done, size = 0, 1
    while done < max_iters:
        k = min(size, max_iters - done)
        for (x, y), (x_out, y_out) in zip(rows[:k], rows[1 : k + 1]):
            model.step_into(x, y, eps, x_out, y_out)
        res = _residuals(xs[1 : k + 1])
        chg = _changes(xs[: k + 1], None if ys is None else ys[: k + 1])
        decided = (res < DELTA_SUCCESS) | ~(chg >= DELTA_STALL)
        if decided.any():
            j = int(decided.argmax())
            outcome = "converged" if res[j] < DELTA_SUCCESS else "stalled"
            return DeRunResult(outcome, done + j + 1, float(res[j]))
        done += k
        xs[0] = xs[k]
        if ys is not None:
            ys[0] = ys[k]
        size = min(2 * size, DE_BLOCK)
    return DeRunResult("budget", done, float(_residuals(xs[:1])[0]))


@dataclass
class ThresholdResult:
    """Bisection bracket on the convergence threshold.

    probes lists (eps, converged, DE iterations, outcome) in evaluation
    order; the recursion converges at lo and fails at hi.
    """

    lo: float
    hi: float
    probes: list[tuple[float, bool, int, str]]

    @property
    def capped(self) -> int:
        """Probes that ran out of iterations undecided."""
        return sum(pr[3] == "budget" for pr in self.probes)

    @property
    def iters(self) -> int:
        return sum(pr[2] for pr in self.probes)


def threshold(model, precision: float = BISECT_PRECISION, max_iters: int = MAX_ITERS) -> ThresholdResult:
    """Bisect the erasure threshold of one driver (see de_run).

    The bracket narrows to `precision`, or until lo and hi are adjacent
    doubles; the returned lo converged and hi failed, each verified by an
    actual run.  A failure at eps=0 or a success at eps=1 means the
    convergence predicate is not monotone in the way bisection needs, and
    raises DensityEvolutionError.
    """
    if not precision > 0:
        raise ParameterError(f"precision must be > 0, got {precision}")
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")
    probes: list[tuple[float, bool, int, str]] = []

    def probe(eps: float) -> bool:
        r = de_run(model, eps, max_iters)
        probes.append((eps, r.converged, r.iterations, r.outcome))
        return r.converged

    if not probe(0.0):
        raise DensityEvolutionError("recursion fails at eps=0; predicate is not monotone-consistent")
    if probe(1.0):
        raise DensityEvolutionError("recursion converges at eps=1; predicate is not monotone-consistent")
    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles
            break
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(lo, hi, probes)


@dataclass
class Fig4Row:
    """One point of the threshold-vs-rate comparison."""

    family: str
    degree: int
    L: int
    w: int | None
    rate: float
    threshold_lo: float
    threshold_hi: float
    iters: int


def sweep_fig4(
    variant: str,
    Ls: tuple[int, ...] = (4, 8, 16, 32, 64),
    ldpc_degrees: tuple[int, ...] = (3, 4, 5, 6),
    precision: float = BISECT_PRECISION,
    max_iters: int = MAX_ITERS,
) -> list[Fig4Row]:
    """Threshold sweep over density-matched degree families.

    variant "4a" uses the smoothed ensembles (RA with w=q, LDPC with
    w=dl); variant "4b" uses the structured ensembles.  Each LDPC degree
    dl is paired with the RA repetition factor of equal edge density at
    the uncoupled rate FIG4_RATE.
    """
    if variant not in ("4a", "4b"):
        raise ParameterError(f"variant must be '4a' or '4b', got {variant!r}")
    smoothed = variant == "4a"
    ra_kind, ldpc_kind = ("ra-w", "ldpc-w") if smoothed else ("ra-proto", "ldpc-proto")
    rows: list[Fig4Row] = []
    for dl in ldpc_degrees:
        q = density_matched_q(dl, FIG4_RATE)
        dr = int(dl / (1 - FIG4_RATE))
        for L in Ls:
            ra_p = ScRaParams(q=q, a=q, L=L, M=1, w=q if smoothed else None)
            res = threshold(make_de_model(ra_kind, ra_p), precision=precision, max_iters=max_iters)
            ra_rate = rate_sc_ra_w(ra_p) if smoothed else float(design_rate(ra_p))
            rows.append(Fig4Row("ra", q, L, ra_p.w, ra_rate, res.lo, res.hi, res.iters))
            ld_p = ScLdpcParams(dl=dl, dr=dr, L=L, M=dr, w=dl if smoothed else None)
            res = threshold(make_de_model(ldpc_kind, ld_p), precision=precision, max_iters=max_iters)
            ld_rate = float(design_rate(replace(ld_p, w=None)))  # the terminated rate in both variants
            rows.append(Fig4Row("ldpc", dl, L, ld_p.w, ld_rate, res.lo, res.hi, res.iters))
    return rows


def write_fig4_csv(rows: list[Fig4Row], dest, metadata: dict | None = None) -> None:
    """Write threshold sweep rows as CSV with '#' metadata header lines."""
    lines = ["# scra-de-sweep v1"]
    for key in sorted(metadata or {}):
        lines.append(f"# {key}={metadata[key]}")
    lines.append("family,degree,L,w,rate,threshold_lo,threshold_hi,iters")
    for r in rows:
        w = "" if r.w is None else str(r.w)
        lines.append(
            f"{r.family},{r.degree},{r.L},{w},{r.rate:.10g},{r.threshold_lo:.10g},{r.threshold_hi:.10g},{r.iters}"
        )
    _write_text(dest, "\n".join(lines) + "\n")
