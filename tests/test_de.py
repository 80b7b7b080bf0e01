"""Density evolution recursions, drivers, and threshold bisection."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from oracles import de_run_reference
from scra.density_evolution import (
    DE_BLOCK,
    DensityEvolutionError,
    MODELS,
    DeState,
    _changes,
    de_run,
    make_de_model,
    sweep_fig4,
    threshold,
    write_fig4_csv,
)
from scra.ensembles import ParameterError, ScLdpcParams, ScRaParams


def w_model(q=3, a=3, L=4, w=3):
    return make_de_model("ra-w", ScRaParams(q, a, L, M=a, w=w))


def proto_model(q=3, a=3, L=4):
    return make_de_model("ra-proto", ScRaParams(q, a, L, M=a))


def test_step_at_eps_zero_clears_state():
    for model in (w_model(), proto_model(), make_de_model("ldpc-w", ScLdpcParams(3, 6, 4, 6, w=3))):
        s = model.initial_state(0.0)
        s = model.step(s)
        for k, v in vars(s).items():
            if isinstance(v, np.ndarray):
                assert not v.any(), k


def test_all_ones_is_fixed_point_at_eps_one():
    """The saturated parity factor keeps the RA recursion at all ones."""
    model = w_model(L=2)
    s = model.initial_state(1.0)
    s.x[:] = 1.0
    s.y[:] = 1.0
    s = model.step(s)
    np.testing.assert_array_equal(s.x, np.ones_like(s.x))
    np.testing.assert_array_equal(s.y, np.ones_like(s.y))

    pm = proto_model(L=2)
    ps = pm.initial_state(1.0)
    ps = pm.step(ps)
    np.testing.assert_array_equal(ps.x, np.ones_like(ps.x))
    np.testing.assert_array_equal(ps.y, np.ones_like(ps.y))


@pytest.mark.parametrize("q,a", [(3, 3), (6, 6)])
def test_w1_L0_reduces_to_scalar_recursion(q, a):
    model = make_de_model("ra-w", ScRaParams(q, a, 0, M=a, w=1))
    eps = 0.4
    s = DeState(np.array([eps]), np.array([eps]), eps, 0)
    x, y = eps, eps
    for _ in range(60):
        s = model.step(s)
        x, y = (
            eps * (1 - (1 - y) ** 2 * (1 - x) ** (a - 1)) ** (q - 1),
            eps * (1 - (1 - y) * (1 - x) ** a),
        )
        np.testing.assert_allclose(s.x, [x], rtol=1e-10)
        np.testing.assert_allclose(s.y, [y], rtol=1e-10)


def test_uncoupled_model_is_the_scalar_recursion():
    model = make_de_model("ra-uncoupled", ScRaParams(6, 6, 0, M=6))
    s = model.initial_state(0.35)
    assert s.x.shape == (1,) and s.y.shape == (1,)
    s = model.step(s)
    eps, a, q = 0.35, 6, 6
    expect_x = eps * (1 - (1 - eps) ** 2 * (1 - eps) ** (a - 1)) ** (q - 1)
    np.testing.assert_allclose(s.x, [expect_x], rtol=1e-14)


def test_uncoupled_convergence_flags():
    model = make_de_model("ra-uncoupled", ScRaParams(6, 6, 0, M=6))
    assert de_run(model, 0.40).converged
    assert not de_run(model, 0.42).converged
    assert [de_run(model, 0.40).outcome, de_run(model, 0.42).outcome] == ["converged", "stalled"]
    capped = de_run(model, 0.42, max_iters=5)
    assert (capped.outcome, capped.converged, capped.iterations) == ("budget", False, 5)
    assert de_run(model, 0.42, max_iters=0).outcome == "budget"


def test_nan_change_counts_as_stall():
    """At eps=1 with a < q the structured RA recursion turns to NaN at its boundary
    checks (mean message degree below 1); a NaN change must stop the run as a
    stall, not run out the budget, and the threshold bracket must not move."""
    model = make_de_model("ra-proto", ScRaParams(4, 2, 2, M=2))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = de_run(model, 1.0)
        res = threshold(model, precision=1e-3)
    assert (r.outcome, r.iterations) == ("stalled", 1)
    assert np.isnan(r.residual)
    assert (res.lo, res.hi) == (0.7060546875, 0.70703125)
    assert res.capped == 0 and res.probes[1][:2] == (1.0, False)


@pytest.mark.parametrize("kind,p", [
    ("ra-w", ScRaParams(3, 3, 4, M=3, w=3)),
    ("ldpc-w", ScLdpcParams(3, 6, 4, 6, w=2)),
    ("ra-proto", ScRaParams(3, 3, 4, M=3)),
    ("ldpc-proto", ScLdpcParams(3, 6, 4, 6)),
])
def test_stepped_state_is_never_overwritten(kind, p):
    """step returns fresh arrays: a state held by the caller survives later steps."""
    model = make_de_model(kind, p)
    s1 = model.step(model.initial_state(0.45))
    held = {k: v.copy() for k, v in vars(s1).items() if isinstance(v, np.ndarray)}
    model.step(model.step(s1))
    for k, v in held.items():
        np.testing.assert_array_equal(getattr(s1, k), v, err_msg=k)


def _reference_proto_step(model, s):
    """The structured step as a loop over the coupling width, with sliding windows."""
    p = model.p
    n_sources = p.sources_per_check_pos().astype(np.float64)
    mean_deg = p.combine * n_sources / p.width
    tot = np.zeros(p.n_chk_pos)
    for d in range(p.width):
        tot[d : d + p.span] += s.x[:, d]
    xbar = tot / n_sources
    clean = (1.0 - xbar) ** (mean_deg - 1.0)
    if s.y is not None:
        y_left, y_right = s.y
        clean = clean * (1.0 - y_left) * (1.0 - y_right)
    z = 1.0 - clean
    zw = sliding_window_view(z, p.width)
    pre = np.ones_like(zw)
    np.cumprod(zw[:, :-1], axis=1, out=pre[:, 1:])
    suf = np.ones_like(zw)
    suf[:, :-1] = np.cumprod(zw[:, :0:-1], axis=1)[:, ::-1]
    x = s.eps * pre * suf
    if s.y is None:
        return x, None, None, z
    through = (1.0 - xbar) ** mean_deg
    return x, s.eps * (1.0 - (1.0 - y_left) * through), s.eps * (1.0 - (1.0 - y_right) * through), z


@pytest.mark.parametrize("kind,p", [
    ("ra-proto", ScRaParams(2, 1, 0, M=1)),
    ("ra-proto", ScRaParams(3, 3, 1, M=3)),
    ("ra-proto", ScRaParams(6, 6, 5, M=6)),
    ("ra-proto", ScRaParams(9, 3, 3, M=3)),
    ("ldpc-proto", ScLdpcParams(2, 4, 0, M=2)),
    ("ldpc-proto", ScLdpcParams(4, 8, 3, M=8)),
    ("ldpc-proto", ScLdpcParams(8, 16, 2, M=16)),
])
def test_proto_step_matches_loop_reference(kind, p):
    """Same arithmetic in the same order as the loop: equal to the last bit, not to a tolerance."""
    model = make_de_model(kind, p)
    rng = np.random.default_rng(p.width)
    s = model.initial_state(0.47)
    s.x = rng.random(s.x.shape) * 0.47
    if s.y is not None:
        s.y = rng.random(s.y.shape) * 0.47
    for _ in range(3):
        new = model.step(s)
        x, y_left, y_right, z = _reference_proto_step(model, s)
        np.testing.assert_array_equal(new.x, x)
        np.testing.assert_array_equal(new.z, z)
        if y_left is not None:
            np.testing.assert_array_equal(new.y[0], y_left)
            np.testing.assert_array_equal(new.y[1], y_right)
        s = new


def _reference_w_step(model, s):
    """The smoothed step as np.convolve expressions, each new array fresh."""
    p, ones = model.p, np.ones(model.p.w)
    omx = 1.0 - np.convolve(s.x, ones, "full") / p.w
    if s.y is None:
        return s.eps * (1.0 - np.convolve(omx ** (p.dr - 1), ones, "valid") / p.w) ** (p.dl - 1), None
    omy = 1.0 - s.y
    g = omy ** 2 * omx ** (p.a - 1)
    return s.eps * (1.0 - np.convolve(g, ones, "valid") / p.w) ** (p.q - 1), s.eps * (1.0 - omy * omx ** p.a)


@pytest.mark.parametrize("kind,p", [
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)),
    ("ra-w", ScRaParams(3, 3, 0, M=3, w=3)),  # window wider than the chain
    ("ra-w", ScRaParams(4, 2, 1, M=2, w=5)),
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)),
    ("ldpc-w", ScLdpcParams(3, 6, 1, M=6, w=7)),
    ("ra-uncoupled", ScRaParams(6, 6, 0, M=6)),
])
def test_w_step_matches_convolve_reference(kind, p):
    """Same arithmetic in the same order as np.convolve, equal to the last bit, from random
    states; a window wider than the chain sums each window in np.convolve's order too."""
    model = make_de_model(kind, p)
    rng = np.random.default_rng(p.w)
    for _ in range(50):
        s = random_w_state(model, rng, 0.9)
        new = model.step(s)
        x, y = _reference_w_step(model, s)
        np.testing.assert_array_equal(new.x, x)
        if y is not None:
            np.testing.assert_array_equal(new.y, y)


def random_w_state(model, rng, eps):
    s = model.initial_state(eps)
    s.x = rng.random(s.x.shape) * eps
    if s.y is not None:
        s.y = rng.random(s.y.shape) * eps
    return s


def test_w_step_componentwise_monotone():
    model = w_model(L=2)
    rng = np.random.default_rng(0)
    for _ in range(50):
        lo = random_w_state(model, rng, 0.6)
        hi = DeState(
            lo.x + rng.random(lo.x.shape) * (1 - lo.x),
            lo.y + rng.random(lo.y.shape) * (1 - lo.y),
            lo.eps,
            0,
        )
        slo, shi = model.step(lo), model.step(hi)
        assert np.all(slo.x <= shi.x + 1e-12)
        assert np.all(slo.y <= shi.y + 1e-12)


def test_proto_step_componentwise_monotone():
    model = proto_model(L=2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        lo = model.initial_state(0.6)
        lo.x = rng.random(lo.x.shape) * 0.6
        lo.y = rng.random(lo.y.shape) * 0.6
        hi = model.initial_state(0.6)
        hi.x = lo.x + rng.random(lo.x.shape) * (1 - lo.x)
        hi.y = lo.y + rng.random(lo.y.shape) * (1 - lo.y)
        slo, shi = model.step(lo), model.step(hi)
        assert np.all(slo.x <= shi.x + 1e-12)
        assert np.all(slo.y <= shi.y + 1e-12)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.8, 1.0])
def test_values_stay_in_unit_interval(eps):
    for model in (w_model(), proto_model(), make_de_model("ldpc-proto", ScLdpcParams(3, 6, 4, 6))):
        s = model.initial_state(eps)
        for _ in range(50):
            s = model.step(s)
            assert 0.0 <= s.x.min() and s.x.max() <= 1.0
            if s.y is not None:
                assert 0.0 <= s.y.min() and s.y.max() <= 1.0


def test_convergence_monotone_in_eps():
    p = make_de_model("ra-w", ScRaParams(3, 3, 8, M=3, w=3))
    flags = [de_run(p, eps).converged for eps in np.arange(0.05, 1.0, 0.05)]
    assert flags[0] and not flags[-1]
    assert flags == sorted(flags, reverse=True), "a failure below a success"


def test_run_examples_and_guards():
    p = make_de_model("ra-w", ScRaParams(3, 3, 16, M=3, w=3))
    assert de_run(p, 0.2).converged
    res = de_run(p, 0.9)
    assert not res.converged and res.iterations < 20000  # stalls fast
    with pytest.raises(ParameterError):
        de_run(p, 1.5)


def test_structured_matches_smoothed_in_pristine_interior():
    """Before boundary effects reach the center, both recursions follow
    the same uniform update, so early center trajectories coincide."""
    L = 64
    wm = w_model(q=3, a=3, L=L, w=3)
    pm = proto_model(q=3, a=3, L=L)
    sw = wm.initial_state(0.45)
    sp = pm.initial_state(0.45)
    for _ in range(10):
        sw = wm.step(sw)
        sp = pm.step(sp)
        bundles = sp.x[L]
        assert bundles.max() - bundles.min() < 1e-12
        np.testing.assert_allclose(bundles.mean(), sw.x[L], atol=1e-9)


# Bisection midpoints computed once at precision 1e-5 and frozen.
PINNED_THRESHOLDS = [
    ("ra-uncoupled", ScRaParams(6, 6, 0, M=6), 0.412425),
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6), 0.497575),
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4), 0.497605),
    ("ra-proto", ScRaParams(6, 6, 16, M=6), 0.497625),
    ("ra-proto", ScRaParams(6, 6, 8, M=6), 0.501925),
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8), 0.497665),
]

# sha256 of repr((lo, hi, [(eps, converged, iters) of each probe])) at the default precision
# and budget.  A change to the DE code that keeps its arithmetic keeps every probe bit for
# bit; one that moves a probe must say why and pin anew.
PROBE_DIGESTS = {
    ("ra-uncoupled", ScRaParams(6, 6, 0, M=6)): "c32df4abd31fabd4e0a6ed8e4ecb31c1625c0fafa36a8d4ffb84e718b304a2b2",
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)): "285506c3090b39d5769d119129379ef831ee8c2b9cd1267ce8851622a5bf27fc",
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)): "b86ec2c489972d5200091f38e44427b5f9755b13c6d18865f7914c527bae8f95",
    ("ra-proto", ScRaParams(6, 6, 16, M=6)): "eaa66115d38a317889ead61bdf4cda1cd00d1078d1a6984fe61f950b1cdefdf6",
    ("ra-proto", ScRaParams(6, 6, 8, M=6)): "abe7ae5ef5027b407e9c378b820ba9fb7eb8e85ad74b1d884498145e30e2309a",
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8)): "c05ffdd77d3513bfc4ac6caac6c1208f4a72d80eb2fa4c7b260d555ff940810f",
}


# sha256 of the bytes of x, then y, then z (those that are not None) after 500 steps from eps
# 0.4976, near the threshold of each coupled search in the benchmark; in the structured RA view
# y holds the left accumulator neighbors, then the right ones.  PROBE_DIGESTS sees only outcomes
# and iteration counts; these pin every value of the state, so a restructured step that moves
# one rounding shows here.
STATE_DIGESTS = {
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)): "5ddb6a9b9f35474fb202387d1b394b09633dae84feaffb3bc9bbfedc14f526c0",
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)): "53cacd96b0c9c4a1d67c3bfb5b7862132f8fa25f5f1efb81bf181d174c9ecf7a",
    ("ra-proto", ScRaParams(6, 6, 16, M=6)): "530c390a9f6bcd68a7402822cd190f767caaa0c7129bde02a81c7afda61ce106",
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8)): "d7810936768e2707200db6a8ea2e3e54d4a4b4334fd203e6caabd4ab0badf29b",
}


@pytest.mark.parametrize("kind,p", list(STATE_DIGESTS))
def test_state_digests(kind, p):
    model = make_de_model(kind, p)
    s = model.initial_state(0.4976)
    for _ in range(500):
        s = model.step(s)
    h = hashlib.sha256()
    for a in (s.x, s.y, s.z):
        if a is not None:
            h.update(a.tobytes())
    assert h.hexdigest() == STATE_DIGESTS[kind, p]


def _block_cases():
    """(kind, params, eps): every kind at 0, below, near and above its pinned threshold and at 1,
    then the structured RA chain whose boundary checks turn to NaN at eps=1."""
    for kind, p, pinned in PINNED_THRESHOLDS[:4] + PINNED_THRESHOLDS[5:]:  # one chain of each kind
        for eps in (0.0, pinned - 0.05, pinned, pinned + 0.05, 1.0):
            yield kind, p, eps
    yield "ra-proto", ScRaParams(4, 2, 2, M=2), 1.0


@pytest.mark.parametrize("max_iters", [0, 1, DE_BLOCK - 1, DE_BLOCK, DE_BLOCK + 1, 2 * DE_BLOCK + 3])
@pytest.mark.parametrize("kind,p,eps", list(_block_cases()))
def test_blocked_run_matches_reference_loop(kind, p, eps, max_iters):
    """de_run checks its stop conditions once per block of steps, yet reports the run of the
    per-iteration loop: its outcome, its iteration count and every bit of its residual."""
    model = make_de_model(kind, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = de_run(model, eps, max_iters)
        want = de_run_reference(model, eps, max_iters)
    assert (got.outcome, got.iterations) == (want.outcome, want.iterations)
    assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
    if p == ScRaParams(4, 2, 2, M=2) and max_iters > 0:
        assert (got.outcome, got.iterations) == ("stalled", 1) and np.isnan(got.residual)


def test_runs_share_no_state_through_the_history():
    """Runs alternate between two models, and between eps values on one model, many stopping
    inside a block; each gives what the same run on a fresh model gives."""
    a = ("ra-proto", ScRaParams(6, 6, 16, M=6))
    b = ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4))
    models = {a: make_de_model(*a), b: make_de_model(*b)}
    plan = [(a, 0.45, 500), (b, 0.45, 500), (a, 0.50, 100), (b, 0.55, 500), (a, 0.45, 37),
            (a, 0.55, 500), (b, 0.50, 70), (b, 0.45, 500), (a, 0.50, 2 * DE_BLOCK + 3)]
    for key, eps, max_iters in plan:
        assert de_run(models[key], eps, max_iters) == de_run(make_de_model(*key), eps, max_iters)


CHANGE_PARAMS = {
    "ra-w": ScRaParams(3, 3, 4, M=3, w=3),
    "ldpc-w": ScLdpcParams(3, 6, 4, 6, w=3),
    "ra-proto": ScRaParams(3, 3, 4, M=3),
    "ldpc-proto": ScLdpcParams(3, 6, 4, 6),
    "ra-uncoupled": ScRaParams(6, 6, 0, M=6),
}


def _change(old, new):
    """The change de_run takes from state old to state new."""
    ys = None if new.y is None else np.stack((old.y, new.y))
    return float(_changes(np.stack((old.x, new.x)), ys)[0])


@pytest.mark.parametrize("kind", MODELS)
def test_change_tracks_every_parity_value(kind):
    """Every kind steps DeState to DeState, and change sees one raised value of x or of y."""
    model = make_de_model(kind, CHANGE_PARAMS[kind])
    s0 = model.initial_state(0.45)
    s = model.step(s0)
    assert type(s0) is DeState and type(s) is DeState
    x, i = s.x.copy(), s.x.size // 2
    x.flat[i] += 1e-3
    assert _change(s, replace(s, x=x)) == pytest.approx(x.flat[i] - s.x.flat[i], abs=1e-15)
    if kind.startswith("ldpc"):
        assert s.y is None  # change reads x only
        return
    y = s.y.copy()
    at = (1, y.shape[1] // 2) if y.ndim == 2 else y.size // 2  # structured view: row 1, a right neighbor
    y[at] += 1e-3
    assert _change(s, replace(s, y=y)) == pytest.approx(y[at] - s.y[at], abs=1e-15)


@pytest.mark.parametrize("kind", ["ra-w", "ra-proto"])
def test_change_is_nan_only_for_a_nan_move_of_x(kind):
    """The change takes x's move and y's as Python's max(dx, dy) does in the reference
    loop: a NaN dx is the change, a NaN dy alone gives dx."""
    model = make_de_model(kind, CHANGE_PARAMS[kind])
    s = model.step(model.initial_state(0.45))
    x, y = s.x.copy(), s.y.copy()
    x.flat[0], y.flat[0] = np.nan, np.nan
    assert _change(s, replace(s, y=y)) == 0.0
    assert np.isnan(_change(s, replace(s, x=x)))
    assert np.isnan(_change(s, replace(s, x=x, y=y)))


@pytest.mark.parametrize("kind,p,pinned", PINNED_THRESHOLDS)
def test_threshold_regression_values(kind, p, pinned):
    res = threshold(make_de_model(kind, p))
    mid = 0.5 * (res.lo + res.hi)
    assert abs(mid - pinned) < 2e-4
    assert res.hi - res.lo <= 1e-4 + 1e-12
    probes = repr((res.lo, res.hi, [pr[:3] for pr in res.probes]))
    assert hashlib.sha256(probes.encode()).hexdigest() == PROBE_DIGESTS[kind, p]


def test_threshold_bracket_contract():
    p = make_de_model("ra-w", ScRaParams(3, 3, 4, M=3, w=3))
    res = threshold(p, precision=1e-3)
    assert res.hi - res.lo <= 1e-3 + 1e-12
    assert de_run(p, res.lo).converged
    assert not de_run(p, res.hi).converged
    evaluated = [pr[0] for pr in res.probes]
    assert 0.0 in evaluated and 1.0 in evaluated
    assert res.iters == sum(pr[2] for pr in res.probes) and res.capped == 0
    cut = threshold(p, precision=1e-3, max_iters=20)
    budget = [pr for pr in cut.probes if pr[3] == "budget"]
    assert cut.capped == len(budget) > 0
    assert all(not pr[1] and pr[2] == 20 for pr in budget)
    assert {pr[3] for pr in cut.probes} <= {"converged", "stalled", "budget"}


def test_coupling_never_hurts():
    uncoupled = threshold(make_de_model("ra-uncoupled", ScRaParams(3, 3, 0, M=3)), precision=1e-3)
    for L in (4, 8):
        coupled = threshold(make_de_model("ra-w", ScRaParams(3, 3, L, M=3, w=3)), precision=1e-3)
        assert coupled.lo >= uncoupled.hi


class _Stuck:
    """Never converges, any eps."""

    history = np.empty((DE_BLOCK + 1, 1)), None

    def initial_state(self, eps):
        return DeState(np.array([1.0]), None, eps, 0)

    def step_into(self, x, y, eps, x_out, y_out):
        x_out[...] = x


class _Instant:
    """Converges everywhere, even eps=1."""

    history = np.empty((DE_BLOCK + 1, 1)), None

    def initial_state(self, eps):
        return DeState(np.array([0.0]), None, eps, 0)

    def step_into(self, x, y, eps, x_out, y_out):
        x_out[...] = x


def test_threshold_detects_non_monotone_predicate():
    with pytest.raises(DensityEvolutionError):
        threshold(_Stuck())
    with pytest.raises(DensityEvolutionError):
        threshold(_Instant())


def test_make_de_model_guards():
    with pytest.raises(ParameterError):
        make_de_model("ra-w", ScLdpcParams(3, 6, 2, 6, w=3))
    with pytest.raises(ParameterError):
        make_de_model("ldpc-proto", ScRaParams(3, 3, 2))
    with pytest.raises(ParameterError):
        make_de_model("nope", ScRaParams(3, 3, 2))
    with pytest.raises(ParameterError):
        make_de_model("ra-w", ScRaParams(3, 3, 2))  # missing window
    with pytest.raises(ParameterError):
        make_de_model("ra-proto", ScRaParams(3, 3, 2, M=3, w=3))  # window set


def test_step_dispatch_guards():
    with pytest.raises(ParameterError, match="window"):
        make_de_model("ra-w", ScRaParams(3, 3, 0, M=3))
    with pytest.raises(ParameterError, match="window"):
        make_de_model("ldpc-w", ScLdpcParams(3, 6, 0, 6))


@pytest.mark.parametrize("kwargs,key", [
    ({"precision": 0.0}, "precision"),
    ({"precision": -1.0}, "precision"),
    ({"precision": float("nan")}, "precision"),
    ({"max_iters": 0}, "max_iters"),
])
def test_threshold_refuses_bad_bisection_args(kwargs, key):
    with pytest.raises(ParameterError, match=key):
        threshold(make_de_model("ra-uncoupled", ScRaParams(6, 6, 0, M=6)), **kwargs)


def test_threshold_ends_on_adjacent_doubles():
    """A precision finer than the spacing of doubles near the threshold stops
    the bisection once the midpoint rounds onto an end of the bracket."""
    model = make_de_model("ra-uncoupled", ScRaParams(3, 3, 0, M=3))
    res = threshold(model, precision=1e-300, max_iters=200)
    assert 0.0 < res.lo < res.hi == np.nextafter(res.lo, 1.0)
    assert de_run(model, res.lo, max_iters=200).converged
    assert len({pr[0] for pr in res.probes}) == len(res.probes) < 70

def test_sweep_rows_and_csv(tmp_path):
    rows = sweep_fig4("4b", Ls=(2,), ldpc_degrees=(3,), precision=5e-3)
    assert [r.family for r in rows] == ["ra", "ldpc"]
    ra, ldpc = rows
    assert ra.degree == 4 and ra.w is None  # density-matched q at rate 1/2
    assert ldpc.degree == 3
    for r in rows:
        assert 0.0 < r.threshold_lo < r.threshold_hi < 1.0
        assert r.threshold_hi - r.threshold_lo <= 5e-3 + 1e-12
        assert 0.0 < r.rate < 1.0

    out = tmp_path / "sweep.csv"
    write_fig4_csv(rows, str(out), {"figure": "4b"})
    lines = out.read_text().splitlines()
    assert lines[0] == "# scra-de-sweep v1"
    assert lines[1] == "# figure=4b"
    assert lines[2] == "family,degree,L,w,rate,threshold_lo,threshold_hi,iters"
    assert len(lines) == 5
    assert lines[3].startswith("ra,4,2,,")


def test_sweep_rejects_bad_variant():
    with pytest.raises(ParameterError):
        sweep_fig4("4c", Ls=(2,))
