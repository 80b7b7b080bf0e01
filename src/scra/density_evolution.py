"""Density evolution on the BEC for coupled RA and LDPC ensembles.

Two ensemble views are tracked.  The smoothed (window-w) recursions
follow the randomized ensemble with one erasure value per position.  The
structured view follows the protograph instance: one value per (message
position -> check position) edge bundle, plus left/right accumulator
neighbor values per check position, with boundary checks modeled through
their mean message degree (a real-valued exponent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from scra.ensembles import (
    ParameterError,
    ScLdpcParams,
    ScRaParams,
    rate_sc_ldpc,
    rate_sc_ra,
    rate_sc_ra_w,
    density_matched_q,
)
from scra.construct import _write_text

DELTA_SUCCESS = 1e-8
DELTA_STALL = 1e-12
MAX_ITERS = 20000
BISECT_PRECISION = 1e-4


class DensityEvolutionError(RuntimeError):
    """Raised for inconsistent convergence behavior or bad model setup."""


@dataclass
class DeState:
    """Erasure probabilities of the smoothed coupled recursion.

    x: message-to-check erasure per message position, index 0 at the left
       termination (length 2L+1).
    y: parity-to-check erasure per active check position (length 2L+w) for
       the RA family; None for the LDPC baseline.
    """

    x: np.ndarray
    y: np.ndarray | None
    eps: float
    iteration: int


@dataclass
class ProtoDeState:
    """Erasure probabilities of the structured (protograph) recursion.

    x[i, d] is the bundle from message position i into check position
    i+d.  y_left / y_right are the accumulator-neighbor values per check
    position (None for LDPC).  z stores the check-to-message erasure used
    by the step that produced this state, so a-posteriori profiles align
    with decoder sweeps.
    """

    x: np.ndarray
    y_left: np.ndarray | None
    y_right: np.ndarray | None
    z: np.ndarray | None
    eps: float
    iteration: int


class _Driver:
    """Residual and change shared by the DE drivers.

    The residual is the largest message erasure x; parity_fields names the
    state's parity arrays, which the change also tracks (none for LDPC).
    """

    parity_fields: tuple[str, ...]

    def residual(self, s) -> float:
        return float(np.maximum.reduce(s.x, None))

    def change(self, old, new) -> float:
        d = float(np.maximum.reduce(np.abs(new.x - old.x), None))
        for f in self.parity_fields:
            d = max(d, float(np.maximum.reduce(np.abs(getattr(new, f) - getattr(old, f)), None)))
        return d


class _WModel(_Driver):
    """Driver for the smoothed recursions; make_de_model has checked the window."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)
        self.parity_fields = ("y",) if self.is_ra else ()

    @cached_property
    def _ones(self) -> np.ndarray:
        return np.ones(self.p.w)

    def initial_state(self, eps: float) -> DeState:
        y = np.full(2 * self.p.L + self.p.w, eps) if self.is_ra else None
        return DeState(np.full(self.p.span, eps), y, eps, 0)

    def step(self, s: DeState) -> DeState:
        """One synchronous update from the iteration-(l) state; each new y[t] reads the old y[t]."""
        p, ones = self.p, self._ones
        # 1 - the mean of x over {t-w+1..t} for every check position t, zeros outside
        omx = 1.0 - np.convolve(s.x, ones, "full") / p.w
        if not self.is_ra:
            x_new = s.eps * (1.0 - np.convolve(omx ** (p.dr - 1), ones, "valid") / p.w) ** (p.dl - 1)
            return DeState(x_new, None, s.eps, s.iteration + 1)
        omy = 1.0 - s.y
        g = omy ** 2 * omx ** (p.a - 1)
        x_new = s.eps * (1.0 - np.convolve(g, ones, "valid") / p.w) ** (p.q - 1)
        return DeState(x_new, s.eps * (1.0 - omy * omx ** p.a), s.eps, s.iteration + 1)


class _ProtoModel(_Driver):
    """Driver for the structured (protograph) recursion."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)
        self.parity_fields = ("y_left", "y_right") if self.is_ra else ()
        self.width = p.width
        self.span = p.span
        self.n_chk = p.n_chk_pos

    @cached_property
    def _tables(self) -> tuple:
        """Degrees and index tables for step, built on first use so make_de_model stays cheap."""
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
        return n_sources, mean_deg - 1.0, mean_deg, window, diag, buf, gather

    def initial_state(self, eps: float) -> ProtoDeState:
        y = np.full(self.n_chk, eps) if self.is_ra else None
        return ProtoDeState(
            np.full((self.span, self.width), eps),
            y,
            None if y is None else y.copy(),
            None,
            eps,
            0,
        )

    def step(self, s: ProtoDeState) -> ProtoDeState:
        n_sources, deg_m1, deg, _, diag, buf, gather = self._tables
        diag[...] = s.x.T
        omx = 1.0 - np.add.reduce(buf, 0) / n_sources  # 1 - the mean bundle into each check position
        clean = omx ** deg_m1
        if self.is_ra:
            omy_left, omy_right = 1.0 - s.y_left, 1.0 - s.y_right
            clean = clean * omy_left * omy_right
        z = np.empty(self.n_chk + 1)  # check-to-message erasure, then the empty product
        z[-1] = 1.0
        np.subtract(1.0, clean, out=z[:-1])
        c = z.take(gather).cumprod(0)
        x_new = (s.eps * c[:, 0] * c[::-1, 1]).T
        if self.is_ra:
            through = omx ** deg
            y_left = s.eps * (1.0 - omy_left * through)
            y_right = s.eps * (1.0 - omy_right * through)
        else:
            y_left = y_right = None
        return ProtoDeState(x_new, y_left, y_right, z[:-1], s.eps, s.iteration + 1)

    def posterior_profile(self, s: ProtoDeState) -> np.ndarray:
        """A-posteriori message erasure per position after s.iteration sweeps."""
        if s.z is None:
            return np.full(self.span, s.eps)
        return s.eps * s.z.take(self._tables[3]).prod(axis=1)


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

    model is a driver from make_de_model, or any object with its
    initial_state, step, residual and change.  Success: the residual (the
    largest message erasure) falls below DELTA_SUCCESS.  Stall: the
    largest per-iteration change falls below DELTA_STALL first, reporting
    non-convergence; a NaN change counts as a stall, so a recursion that
    breaks down stops at once rather than running out the budget.
    """
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    state = model.initial_state(eps)
    for _ in range(max_iters):
        new = model.step(state)
        res = model.residual(new)
        if res < DELTA_SUCCESS:
            return DeRunResult("converged", new.iteration, res)
        if not model.change(state, new) >= DELTA_STALL:
            return DeRunResult("stalled", new.iteration, res)
        state = new
    return DeRunResult("budget", state.iteration, model.residual(state))


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
    rate: Fraction = Fraction(1, 2),
    precision: float = BISECT_PRECISION,
    max_iters: int = MAX_ITERS,
) -> list[Fig4Row]:
    """Threshold sweep over density-matched degree families.

    variant "4a" uses the smoothed ensembles (RA with w=q, LDPC with
    w=dl); variant "4b" uses the structured ensembles.  Each LDPC degree
    dl is paired with the RA repetition factor of equal edge density at
    the given uncoupled rate.
    """
    if variant not in ("4a", "4b"):
        raise ParameterError(f"variant must be '4a' or '4b', got {variant!r}")
    smoothed = variant == "4a"
    ra_kind, ldpc_kind = ("ra-w", "ldpc-w") if smoothed else ("ra-proto", "ldpc-proto")
    dr_frac = {dl: Fraction(dl) / (1 - rate) for dl in ldpc_degrees}
    for dl, dr in dr_frac.items():
        if dr.denominator != 1:
            raise ParameterError(f"dl={dl} at rate {rate} gives non-integral dr={dr}")
    rows: list[Fig4Row] = []
    for dl in ldpc_degrees:
        q = density_matched_q(dl, rate)
        dr = int(dr_frac[dl])
        for L in Ls:
            ra_p = ScRaParams(q=q, a=q, L=L, M=1, w=q if smoothed else None)
            res = threshold(make_de_model(ra_kind, ra_p), precision=precision, max_iters=max_iters)
            ra_rate = rate_sc_ra_w(ra_p) if smoothed else float(rate_sc_ra(ScRaParams(q, q, L)))
            rows.append(Fig4Row("ra", q, L, ra_p.w, ra_rate, res.lo, res.hi, res.iters))
            ld_p = ScLdpcParams(dl=dl, dr=dr, L=L, M=dr, w=dl if smoothed else None)
            res = threshold(make_de_model(ldpc_kind, ld_p), precision=precision, max_iters=max_iters)
            rows.append(
                Fig4Row("ldpc", dl, L, ld_p.w, float(rate_sc_ldpc(ld_p)), res.lo, res.hi, res.iters)
            )
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
