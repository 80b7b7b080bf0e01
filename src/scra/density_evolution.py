"""Density evolution on the BEC for coupled RA and LDPC ensembles.

Two ensemble views are tracked.  The smoothed (window-w) recursions
follow the randomized ensemble with one erasure value per position.  The
structured view follows the protograph instance: one value per (message
position -> check position) edge bundle, plus left/right accumulator
neighbor values per check position as the two rows of y, with boundary
checks modeled through their mean message degree (a real-valued exponent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Real

import numpy as np

from scra.ensembles import (
    ParameterError,
    ScLdpcParams,
    ScRaParams,
    density_matched_q,
    is_int,
)
from scra.construct import _write_csv

DELTA_SUCCESS = 1e-8
DELTA_STALL = 1e-12
# A coupled run decodes by a front of positions that moves inward; one that fails stops
# moving.  de_run reads the front at every block end from DE_BLOCK on.  A run whose front
# has not moved since the halfway mark (read every FRONT_EVERY steps, a multiple of
# DE_BLOCK), while its change fell by at least FRONT_DROP times, fails as "front-stalled";
# one whose front moved by FRONT_ADVANCE positions since the halfway mark, while its change
# did not fall, is a decoding wave and succeeds as "wave-converged".
FRONT_DECODED = 1e-3  # a position is behind the front once its largest message erasure is below this
FRONT_EVERY = 1024
FRONT_DROP = 10
FRONT_ADVANCE = 4
MAX_ITERS = 20000
DE_BLOCK = 64  # most steps de_run takes between checks of its stop conditions
BISECT_PRECISION = 1e-4
FIG4_RATE = Fraction(1, 2)  # uncoupled design rate of the Fig. 4 degree families
FIG4_LS = (4, 8, 16, 32, 64)  # the default Fig. 4 grid: chain lengths and LDPC variable degrees
FIG4_DEGREES = (3, 4, 5, 6)


class DensityEvolutionError(RuntimeError):
    """Raised for inconsistent convergence behavior or bad model setup."""


@dataclass
class DeState:
    """Erasure probabilities of one DE recursion at one step.

    x: message-to-check erasure; per message position, index 0 at the left
       termination (smoothed), or x[i, d] for the bundle from message
       position i into check position i+d (structured).  len(x) is the
       number of chain positions; a chain of one position has no front.
    y: parity-to-check erasure; per active check position (smoothed), or
       shape (2, n_chk_pos) with rows from the left and the right
       accumulator neighbor (structured).  LDPC has no parity, so its y is
       empty: shape (0,) smoothed, (2, 0) structured.
    """

    x: np.ndarray
    y: np.ndarray
    eps: float


def _is_real(x) -> bool:
    """A real number, not a bool (see ensembles.is_int)."""
    return isinstance(x, Real) and not isinstance(x, bool)


def _residuals(xs: np.ndarray) -> np.ndarray:
    """The residual of each state in a stack: its largest message erasure x."""
    return np.maximum.reduce(xs.reshape(len(xs), -1), 1)


class _Driver:
    """What the DE drivers share: the parameters, a step into fresh arrays and the
    decoding front (see de_run for the driver contract)."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)

    def step(self, s: DeState) -> DeState:
        """One step into fresh arrays, so a state the caller holds is never overwritten."""
        x, y = np.empty_like(s.x), np.empty_like(s.y)
        self.step_into(s.x, s.y, s.eps, x, y)
        return DeState(x, y, s.eps)

    def front(self, x: np.ndarray) -> int:
        """The decoding front of the values x: how many chain positions have their largest
        message erasure below FRONT_DECODED; x holds one row (or value) per position."""
        return int(np.count_nonzero(_residuals(x) < FRONT_DECODED))


def _changes(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The change into each state of a stack from the one before it: the largest
    move of x, or of y where that is larger; an empty y (LDPC) moves by 0.  A NaN
    move of x is the change; one of y alone is not, as in Python's max(dx, dy)."""
    dx, dy = (np.subtract(a[1:], a[:-1]) for a in (xs, ys))
    dx, dy = (np.maximum.reduce(np.abs(d, out=d).reshape(len(d), -1), 1, initial=0.0) for d in (dx, dy))
    return np.where(dy > dx, dy, dx)


class _WModel(_Driver):
    """Driver for the smoothed recursions; make_de_model has checked the window."""

    @cached_property
    def _tables(self) -> tuple:
        """Constants and scratch for step_into, built on first use so make_de_model stays
        cheap: the window of ones, whether np.convolve would swap its operands, 1, w and
        the exponents at a check, a variable and (RA) a parity as 0-d float64 arrays,
        which ufuncs take faster than Python numbers, to the same result, and rows for
        1 - y, the check factor and a power, one value per check position."""
        p = self.p
        exponents = (p.combine - 1, p.width - 1, p.combine)
        # np.convolve puts the longer operand first; a window wider than the chain
        # swaps the two, and the sums of each window then run in the other order
        consts = (np.array(float(v)) for v in (1, p.w, *exponents))
        return np.ones(p.w), p.w > p.span, *consts, *np.empty((3, 2 * p.L + p.w))

    def initial_state(self, eps: float) -> DeState:
        p = self.p
        return DeState(np.full(p.span, eps), np.full(2 * p.L + p.w if self.is_ra else 0, eps), eps)

    def step_into(self, x, y, eps, x_out, y_out) -> None:
        """One synchronous update from the iteration-(l) state; each new y[t] reads the old y[t]."""
        ones, swap, one, w, e_chk, e_var, e_par, omy, g, t = self._tables
        # 1 - the mean of x over {t-w+1..t} for every check position t, zeros outside
        omx = np.correlate(ones, x[::-1], "full") if swap else np.correlate(x, ones, "full")
        np.divide(omx, w, out=omx)
        np.subtract(one, omx, out=omx)
        if self.is_ra:
            np.subtract(one, y, out=omy)
            np.multiply(omy, omy, out=g)
            np.multiply(g, np.power(omx, e_chk, out=t), out=g)
        else:
            np.power(omx, e_chk, out=g)
        v = np.correlate(g, ones, "valid")
        np.divide(v, w, out=v)
        np.subtract(one, v, out=v)
        np.power(v, e_var, out=v)
        np.multiply(eps, v, out=x_out)
        if self.is_ra:
            np.power(omx, e_par, out=t)
            np.multiply(omy, t, out=t)
            np.subtract(one, t, out=t)
            np.multiply(eps, t, out=y_out)


class _ProtoModel(_Driver):
    """Driver for the structured (protograph) recursion."""

    @cached_property
    def _tables(self) -> tuple:
        """Constants, index tables, scratch and views of it for step_into, built on first
        use so make_de_model stays cheap; 1 is a 0-d float64 array, as in _WModel."""
        p = self.p
        w, span, n_chk = p.width, p.span, p.n_chk_pos
        n_sources = p.sources_per_check_pos().astype(np.float64)  # bundles into each check position
        mean_deg = p.combine * n_sources / w  # and its mean message degree
        window = np.arange(span)[:, None] + np.arange(w)  # [i, d] -> i + d, where bundle x[i, d] enters
        # buf is zero but for buf[d, i + d] = diag[d, i], so its column sums add the bundles in order of d
        flat = np.zeros(w * (n_chk + 1))
        diag, buf = flat.reshape(w, n_chk + 1)[:, :span], flat[: w * n_chk].reshape(w, n_chk)
        # gather indexes z with a trailing 1.0: [:, 0, i] -> (1, z[i], .., z[i+w-2]) and [:, 1, i] ->
        # (1, z[i+w-1], .., z[i+1]); one cumprod of those gives the products before and after each bundle
        gather = np.full((w, 2, span), n_chk)
        gather[1:, 0], gather[1:, 1] = window.T[:-1], window.T[:0:-1]
        z = np.ones(n_chk + 1)  # check-to-message erasure, then the empty product
        zg, c = np.empty((2, *gather.shape))  # z gathered, and its cumprod
        omx, clean = np.empty((2, n_chk))  # 1 - the mean bundle, and the check factor, then a power
        omy = np.empty((2, n_chk))  # 1 - y: the left, then the right accumulator neighbors
        # diag, and the products before and after each bundle, in the (span, w) layout of x
        views = diag.T, z[:-1], c[:, 0].T, c[::-1, 1].T, omy[0], omy[1]
        return np.array(1.0), n_sources, mean_deg - 1.0, mean_deg, buf, gather, z, zg, c, omx, clean, omy, *views

    def initial_state(self, eps: float) -> DeState:
        p = self.p
        y_shape = 2, p.n_chk_pos if self.is_ra else 0  # LDPC has no accumulator neighbors
        return DeState(np.full((p.span, p.width), eps), np.full(y_shape, eps), eps)

    def step_into(self, x, y, eps, x_out, y_out) -> None:
        (one, n_sources, deg_m1, deg, buf, gather, z, zg, c, omx, clean, omy,
         diag_t, z_head, pre, suf, omy_left, omy_right) = self._tables
        diag_t[...] = x
        np.add.reduce(buf, 0, out=omx)
        np.divide(omx, n_sources, out=omx)
        np.subtract(one, omx, out=omx)  # 1 - the mean bundle into each check position
        np.power(omx, deg_m1, out=clean)
        if self.is_ra:
            np.subtract(one, y, out=omy)
            np.multiply(clean, omy_left, out=clean)  # left, then right: the rounding the digests pin
            np.multiply(clean, omy_right, out=clean)
        np.subtract(one, clean, out=z_head)
        z.take(gather, out=zg, mode="clip")
        np.multiply.accumulate(zg, 0, out=c)  # np.cumprod without its wrapper
        np.multiply(eps, pre, out=x_out)
        np.multiply(x_out, suf, out=x_out)
        if self.is_ra:
            np.multiply(omy, np.power(omx, deg, out=clean), out=y_out)
            np.subtract(one, y_out, out=y_out)
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
    """One DE run: outcome is "converged", "wave-converged" (a coupled run's
    front moved steadily, see de_run), "stalled" (the change fell below
    DELTA_STALL first), "front-stalled" (a coupled run's front stopped moving,
    see de_run) or "budget" (max_iters ran out undecided)."""

    outcome: str
    iterations: int
    residual: float

    @property
    def converged(self) -> bool:
        return self.outcome in ("converged", "wave-converged")


@np.errstate(divide="ignore", invalid="ignore")  # a breakdown (ra-proto, a < q, eps=1) ends as a NaN stall
def de_run(model, eps: float, max_iters: int = MAX_ITERS) -> DeRunResult:
    """Iterate a driver's recursion at fixed eps until success, stall, or budget.

    Success: the residual (the largest message erasure) falls below
    DELTA_SUCCESS.  Stall: the change (the largest move of x, or of y where
    that is larger) falls below DELTA_STALL first, reporting
    non-convergence; a NaN change counts as a stall, so a recursion that
    breaks down stops at once rather than running out the budget.

    Two rules read the front of a driver with one, on a chain of more than
    one position (len(x) > 1).  Front stall: at each iteration t that is a
    multiple of FRONT_EVERY, let h be t/2 rounded down to a multiple of
    FRONT_EVERY and at least FRONT_EVERY; the run fails as "front-stalled"
    when front(t) equals front(h) and change(t) <= change(h) / FRONT_DROP.
    Wave: at each iteration t >= 2 FRONT_EVERY that is a multiple of
    DE_BLOCK, let h be t/2 rounded down to a multiple of DE_BLOCK and at
    least FRONT_EVERY; the run succeeds as "wave-converged" when front(t)
    - front(h) >= FRONT_ADVANCE and change(t) >= change(h): its decoding
    wave moves inward at a speed that does not fall.  Such a run has not
    reached DELTA_SUCCESS; that it would was checked offline, not here:
    every probe the rule decides in the default Fig. 4 grids and the
    pinned test searches also converges in a plain run of 10^6
    iterations.  A chain of one position, such as ra-uncoupled or any
    ensemble at L=0, has no front: near its BP threshold a run can
    plateau, then converge.  The result is that of checking success, then
    stall, then the front stall, then the wave after every step.

    model is a driver from make_de_model, or any object with:
      initial_state(eps) -> DeState, the state before the first step, whose
        y is empty where the ensemble has no parity;
      step_into(x, y, eps, x_out, y_out), which writes the step from the
        values (x, y) at eps into x_out and y_out, and whose result depends
        on those alone;
        de_run passes eps as a 0-d float64 array, and the step must be bit
        for bit the one the float gives;
      and optionally front(x) -> int, the decoding front of the values x
        (see _Driver.front); a driver without one takes neither front rule.
    A driver may also keep scratch of its own that every step overwrites,
    which is why one model runs one de_run at a time.
    The steps go in blocks of 1, 1, 2, 4, .. up to DE_BLOCK steps, so every
    multiple of DE_BLOCK ends a block.  Success and stall are checked once
    per block, for all its steps in whole array passes, and the front at
    the end of a block; the steps after the first decisive one are thrown
    away.
    """
    if not (_is_real(eps) and 0.0 <= eps <= 1.0):
        raise ParameterError(f"eps must be a real number in [0, 1], got {eps!r}")
    eps = float(eps)
    if not is_int(max_iters):
        raise ParameterError(f"max_iters must be an integer, got {max_iters!r}")
    s = model.initial_state(eps)
    # DE_BLOCK + 1 values of x and of y: a block's start, then its steps
    xs, ys = (np.empty((DE_BLOCK + 1, *a.shape)) for a in (s.x, s.y))
    xs[0], ys[0] = s.x, s.y
    steps = list(zip(xs, ys, xs[1:], ys[1:]))  # (x, y, x_out, y_out) of each step of a block
    step_into, e = model.step_into, np.array(eps, dtype=np.float64)
    front = getattr(model, "front", None) if len(s.x) > 1 else None
    marks = []  # marks[t // DE_BLOCK - 1] is (front, change) at iteration t
    done = 0
    while done < max_iters:
        k = min(done or 1, DE_BLOCK, max_iters - done)
        for x, y, x_out, y_out in steps[:k]:
            step_into(x, y, e, x_out, y_out)
        res = _residuals(xs[1 : k + 1])
        chg = _changes(xs[: k + 1], ys[: k + 1])
        decided = (res < DELTA_SUCCESS) | ~(chg >= DELTA_STALL)
        if decided.any():
            j = int(decided.argmax())
            outcome = "converged" if res[j] < DELTA_SUCCESS else "stalled"
            return DeRunResult(outcome, done + j + 1, float(res[j]))
        done += k
        if front is not None and done % DE_BLOCK == 0:
            marks.append((front(xs[k]), chg[-1]))
            front_t, change_t = marks[-1]
            if done % FRONT_EVERY == 0:
                front_h, change_h = marks[max(done // 2 // FRONT_EVERY * FRONT_EVERY, FRONT_EVERY) // DE_BLOCK - 1]
                if front_t == front_h and change_t <= change_h / FRONT_DROP:
                    return DeRunResult("front-stalled", done, float(res[-1]))
            if done >= 2 * FRONT_EVERY:
                front_h, change_h = marks[max(done // 2 // DE_BLOCK * DE_BLOCK, FRONT_EVERY) // DE_BLOCK - 1]
                if front_t - front_h >= FRONT_ADVANCE and change_t >= change_h:
                    return DeRunResult("wave-converged", done, float(res[-1]))
        xs[0], ys[0] = xs[k], ys[k]
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
    def front_stalled(self) -> int:
        """Probes that failed because their front stopped moving (see de_run)."""
        return sum(pr[3] == "front-stalled" for pr in self.probes)

    @property
    def wave_converged(self) -> int:
        """Probes that succeeded because their front moved steadily (see de_run)."""
        return sum(pr[3] == "wave-converged" for pr in self.probes)

    @property
    def iters(self) -> int:
        return sum(pr[2] for pr in self.probes)


def threshold(model, precision: float = BISECT_PRECISION, max_iters: int = MAX_ITERS) -> ThresholdResult:
    """Bisect the erasure threshold of one driver (see de_run).

    The bracket narrows to `precision`, or until lo and hi are adjacent
    doubles; the returned lo converged and hi failed, each verified by an
    actual run.  On a chain of more than one position, hi may rest on a
    front stall (see de_run), which ends a failing run before its change
    falls below DELTA_STALL, and lo on a wave (see de_run), which ends a
    converging run whose front moves steadily before its residual falls
    below DELTA_SUCCESS.  That such runs fail, or converge, was checked
    offline, not here: every probe either rule stops in the default Fig. 4
    grids and the pinned test searches also fails, or converges, in a
    plain run of 10^6 iterations; lo is not run again to completion.
    A probe that runs out of max_iters counts as a failure too.  A failure
    at eps=0 or a success at eps=1 means the convergence predicate is not
    monotone in the way bisection needs, and raises DensityEvolutionError.
    """
    if not (_is_real(precision) and precision > 0):
        raise ParameterError(f"precision must be a real number > 0, got {precision!r}")
    if not (is_int(max_iters) and max_iters >= 1):
        raise ParameterError(f"max_iters must be an integer >= 1, got {max_iters!r}")
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


def sweep_fig4(
    variant: str,
    Ls: tuple[int, ...] = FIG4_LS,
    ldpc_degrees: tuple[int, ...] = FIG4_DEGREES,
    precision: float = BISECT_PRECISION,
    max_iters: int = MAX_ITERS,
) -> list[tuple[ScRaParams | ScLdpcParams, ThresholdResult]]:
    """Threshold sweep over density-matched degree families, as (params, ThresholdResult) pairs.

    variant "4a" uses the smoothed ensembles (RA with w=q, LDPC with
    w=dl) and their smoothed_rate; variant "4b" uses the structured
    ensembles and their design_rate.  Each LDPC degree dl is paired with
    the RA repetition factor of equal edge density at the uncoupled rate
    FIG4_RATE.  A point whose rate is not positive is refused, by its
    ScLdpcParams, before the first search.
    """
    if variant not in ("4a", "4b"):
        raise ParameterError(f"variant must be '4a' or '4b', got {variant!r}")
    smoothed = variant == "4a"
    view = "w" if smoothed else "proto"
    # the whole grid is built, and refused if any point is bad, before the first search
    grid = []
    for dl in ldpc_degrees:
        q = density_matched_q(dl, FIG4_RATE)
        dr = int(dl / (1 - FIG4_RATE))
        for L in Ls:
            for p in (ScRaParams(q=q, a=q, L=L, M=1, w=q if smoothed else None),
                      ScLdpcParams(dl=dl, dr=dr, L=L, M=dr, w=dl if smoothed else None)):
                grid.append((p, make_de_model(f"{p.family}-{view}", p)))
    return [(p, threshold(model, precision=precision, max_iters=max_iters)) for p, model in grid]


def write_fig4_csv(rows: list, dest, metadata: dict | None = None) -> None:
    """Write sweep_fig4's (params, ThresholdResult) pairs as a tagged CSV; the degree
    column is the chain's width, q or dl."""
    lines = (
        f"{p.family},{p.width},{p.L},{'' if p.w is None else p.w},{p.rate:.10g},"
        f"{r.lo:.10g},{r.hi:.10g},{r.iters}"
        for p, r in rows
    )
    columns = "family,degree,L,w,rate,threshold_lo,threshold_hi,iters"
    _write_csv(dest, "scra-de-sweep v1", metadata or {}, columns, lines)
