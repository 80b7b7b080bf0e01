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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

CRITERION_MESSAGE = "message"
CRITERION_ALL = "all"


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


def _trailing_means(x: np.ndarray, w: int) -> np.ndarray:
    """Means of x over {t-w+1..t} for every check position t, zeros outside."""
    return np.convolve(x, np.ones(w), "full") / w


def de_step_ra_w(s: DeState, p: ScRaParams) -> DeState:
    """One synchronous update of the smoothed coupled RA recursion.

    Both updates read the iteration-(l) state; the parity value on the
    right-hand side uses the same position index as the left-hand side.
    """
    if p.w is None:
        raise ParameterError("smoothed recursion needs the window w")
    xbar = _trailing_means(s.x, p.w)
    g = (1.0 - s.y) ** 2 * (1.0 - xbar) ** (p.a - 1)
    x_new = s.eps * (1.0 - np.convolve(g, np.ones(p.w), "valid") / p.w) ** (p.q - 1)
    y_new = s.eps * (1.0 - (1.0 - s.y) * (1.0 - xbar) ** p.a)
    return DeState(x_new, y_new, s.eps, s.iteration + 1)


def de_step_ldpc_w(s: DeState, p: ScLdpcParams) -> DeState:
    """One synchronous update of the smoothed coupled LDPC recursion."""
    if p.w is None:
        raise ParameterError("smoothed recursion needs the window w")
    xbar = _trailing_means(s.x, p.w)
    g = (1.0 - xbar) ** (p.dr - 1)
    x_new = s.eps * (1.0 - np.convolve(g, np.ones(p.w), "valid") / p.w) ** (p.dl - 1)
    return DeState(x_new, None, s.eps, s.iteration + 1)


class _Driver:
    """Residual and change shared by the DE drivers.

    Every state tracks the message values x; parity_fields names the
    state's parity arrays, empty for the LDPC baseline.
    """

    parity_fields: tuple[str, ...]

    def residual(self, s, criterion: str) -> float:
        r = float(s.x.max())
        if criterion == CRITERION_ALL:
            for f in self.parity_fields:
                r = max(r, float(getattr(s, f).max()))
        return r

    def change(self, old, new) -> float:
        d = float(np.abs(new.x - old.x).max())
        for f in self.parity_fields:
            d = max(d, float(np.abs(getattr(new, f) - getattr(old, f)).max()))
        return d


class _WModel(_Driver):
    """Driver for the smoothed recursions."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)
        self.parity_fields = ("y",) if self.is_ra else ()

    def initial_state(self, eps: float) -> DeState:
        active = 2 * self.p.L + self.p.w
        y = np.full(active, eps) if self.is_ra else None
        return DeState(np.full(self.p.span, eps), y, eps, 0)

    def step(self, s: DeState) -> DeState:
        return de_step_ra_w(s, self.p) if self.is_ra else de_step_ldpc_w(s, self.p)


class _ProtoModel(_Driver):
    """Driver for the structured (protograph) recursion."""

    def __init__(self, p: ScRaParams | ScLdpcParams):
        self.p = p
        self.is_ra = isinstance(p, ScRaParams)
        self.parity_fields = ("y_left", "y_right") if self.is_ra else ()
        self.width = p.width
        self.span = p.span
        self.n_chk = p.n_chk_pos
        # bundles into each check position, and its mean message degree
        self.n_sources = p.sources_per_check_pos().astype(np.float64)
        self.mean_deg = p.combine * self.n_sources / p.width

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

    def _xbar(self, s: ProtoDeState) -> np.ndarray:
        tot = np.zeros(self.n_chk)
        for d in range(self.width):
            tot[d : d + self.span] += s.x[:, d]
        return tot / self.n_sources

    def _check_to_message(self, s: ProtoDeState) -> np.ndarray:
        xbar = self._xbar(s)
        clean = (1.0 - xbar) ** (self.mean_deg - 1.0)
        if self.is_ra:
            clean = clean * (1.0 - s.y_left) * (1.0 - s.y_right)
        return 1.0 - clean, xbar

    def step(self, s: ProtoDeState) -> ProtoDeState:
        z, xbar = self._check_to_message(s)
        zw = sliding_window_view(z, self.width)  # zw[i, d] = z at check position i+d
        pre = np.ones_like(zw)
        np.cumprod(zw[:, :-1], axis=1, out=pre[:, 1:])
        suf = np.ones_like(zw)
        suf[:, :-1] = np.cumprod(zw[:, :0:-1], axis=1)[:, ::-1]
        x_new = s.eps * pre * suf
        if self.is_ra:
            through = (1.0 - xbar) ** self.mean_deg
            y_left = s.eps * (1.0 - (1.0 - s.y_left) * through)
            y_right = s.eps * (1.0 - (1.0 - s.y_right) * through)
        else:
            y_left = y_right = None
        return ProtoDeState(x_new, y_left, y_right, z, s.eps, s.iteration + 1)

    def posterior_profile(self, s: ProtoDeState) -> np.ndarray:
        """A-posteriori message erasure per position after s.iteration sweeps."""
        if s.z is None:
            return np.full(self.span, s.eps)
        return s.eps * sliding_window_view(s.z, self.width).prod(axis=1)


def _ra_uncoupled(p: ScRaParams) -> _WModel:
    """The smoothed recursion at L=0, w=1: the single-position RA fixed-point iteration."""
    return _WModel(ScRaParams(q=p.q, a=p.a, L=0, M=p.a, w=1))


# kind -> (parameter type, window w required (True), forbidden (False) or ignored (None), factory)
_MODELS = {
    "ra-w": (ScRaParams, True, _WModel),
    "ldpc-w": (ScLdpcParams, True, _WModel),
    "ra-proto": (ScRaParams, False, _ProtoModel),
    "ldpc-proto": (ScLdpcParams, False, _ProtoModel),
    "ra-uncoupled": (ScRaParams, None, _ra_uncoupled),
}
MODEL_KINDS = tuple(_MODELS)


def make_de_model(kind: str, p: ScRaParams | ScLdpcParams):
    """Build the DE driver for one ensemble view."""
    if kind not in _MODELS:
        raise ParameterError(f"unknown ensemble kind {kind!r}; expected one of {MODEL_KINDS}")
    ptype, windowed, factory = _MODELS[kind]
    if not isinstance(p, ptype):
        raise ParameterError(f"{kind} needs {ptype.__name__}")
    if windowed is True and p.w is None:
        raise ParameterError("smoothed model needs the window w")
    if windowed is False and p.w is not None:
        raise ParameterError("structured model takes w=None parameters")
    return factory(p)


def _model_for(p):
    """The driver for a parameter set, smoothed iff it has a window; a driver passes through."""
    if isinstance(p, (ScRaParams, ScLdpcParams)):
        return _WModel(p) if p.w is not None else _ProtoModel(p)
    return p


@dataclass
class DeRunResult:
    converged: bool
    state: DeState | ProtoDeState
    iterations: int
    residual: float


def de_run(
    p,
    eps: float,
    max_iters: int = MAX_ITERS,
    delta_success: float = DELTA_SUCCESS,
    delta_stall: float = DELTA_STALL,
    criterion: str = CRITERION_MESSAGE,
) -> DeRunResult:
    """Iterate the recursion at fixed eps until success, stall, or budget.

    Success: the maximum tracked message erasure falls below
    delta_success (criterion "all" also tracks the parity values).
    Stall: the maximum per-iteration change falls below delta_stall
    first, reporting non-convergence.
    """
    if not 0.0 <= eps <= 1.0:
        raise ParameterError(f"eps must lie in [0, 1], got {eps}")
    if criterion not in (CRITERION_MESSAGE, CRITERION_ALL):
        raise ParameterError(f"unknown success criterion {criterion!r}")
    model = _model_for(p)
    state = model.initial_state(eps)
    for _ in range(max_iters):
        new = model.step(state)
        res = model.residual(new, criterion)
        if res < delta_success:
            return DeRunResult(True, new, new.iteration, res)
        if model.change(state, new) < delta_stall:
            return DeRunResult(False, new, new.iteration, res)
        state = new
    return DeRunResult(False, state, state.iteration, model.residual(state, criterion))


@dataclass
class ThresholdResult:
    """Bisection bracket on the convergence threshold.

    probes lists (eps, converged, DE iterations) in evaluation order;
    the recursion converges at lo and fails at hi.
    """

    lo: float
    hi: float
    steps: int
    probes: list[tuple[float, bool, int]]
    criterion: str


def threshold(
    p,
    precision: float = BISECT_PRECISION,
    max_iters: int = MAX_ITERS,
    delta_success: float = DELTA_SUCCESS,
    delta_stall: float = DELTA_STALL,
    criterion: str = CRITERION_MESSAGE,
) -> ThresholdResult:
    """Bisect the erasure threshold of one ensemble view.

    The bracket narrows to `precision`; the returned lo converged and hi
    failed, each verified by an actual run.  A failure at eps=0 or a
    success at eps=1 means the convergence predicate is not monotone in
    the way bisection needs, and raises DensityEvolutionError.
    """
    model = _model_for(p)
    probes: list[tuple[float, bool, int]] = []

    def probe(eps: float) -> bool:
        r = de_run(model, eps, max_iters, delta_success, delta_stall, criterion)
        probes.append((eps, r.converged, r.iterations))
        return r.converged

    if not probe(0.0):
        raise DensityEvolutionError("recursion fails at eps=0; predicate is not monotone-consistent")
    if probe(1.0):
        raise DensityEvolutionError("recursion converges at eps=1; predicate is not monotone-consistent")
    lo, hi = 0.0, 1.0
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(lo, hi, len(probes), probes, criterion)


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
            res = threshold(ra_p, precision=precision, max_iters=max_iters)
            ra_rate = rate_sc_ra_w(ra_p) if smoothed else float(rate_sc_ra(ScRaParams(q, q, L)))
            rows.append(
                Fig4Row("ra", q, L, ra_p.w, ra_rate, res.lo, res.hi, sum(p[2] for p in res.probes))
            )
            ld_p = ScLdpcParams(dl=dl, dr=dr, L=L, M=dr, w=dl if smoothed else None)
            res = threshold(ld_p, precision=precision, max_iters=max_iters)
            rows.append(
                Fig4Row(
                    "ldpc",
                    dl,
                    L,
                    ld_p.w,
                    float(rate_sc_ldpc(ld_p)),
                    res.lo,
                    res.hi,
                    sum(p[2] for p in res.probes),
                )
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
