"""Density evolution recursions, drivers, and threshold bisection."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from oracles import de_run_reference, proto_step_reference
from scra.density_evolution import (
    DE_BLOCK,
    FRONT_EVERY,
    MAX_ITERS,
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
    s = DeState(np.array([eps]), np.array([eps]), eps)
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
    stall, not run out the budget, with no numpy warning (which the suite turns
    into an error), and the threshold bracket must not move."""
    model = make_de_model("ra-proto", ScRaParams(4, 2, 2, M=2))
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


@pytest.mark.parametrize("kind,p", [
    ("ra-proto", ScRaParams(2, 1, 0, M=1)),
    ("ra-proto", ScRaParams(3, 3, 1, M=3)),
    ("ra-proto", ScRaParams(6, 6, 5, M=6)),
    ("ra-proto", ScRaParams(9, 3, 3, M=3)),
    ("ldpc-proto", ScLdpcParams(2, 5, 0, M=5)),
    ("ldpc-proto", ScLdpcParams(4, 8, 3, M=8)),
    ("ldpc-proto", ScLdpcParams(8, 32, 2, M=4)),
])
def test_proto_step_matches_loop_reference(kind, p):
    """Same arithmetic in the same order as the loop: equal to the last bit, not to a tolerance."""
    model = make_de_model(kind, p)
    rng = np.random.default_rng(p.width)
    s = model.initial_state(0.47)
    s.x = rng.random(s.x.shape) * 0.47
    if s.y.size:
        s.y = rng.random(s.y.shape) * 0.47
    for _ in range(3):
        new = model.step(s)
        x, y_left, y_right, _ = proto_step_reference(model, s)
        np.testing.assert_array_equal(new.x, x)
        if y_left is not None:
            np.testing.assert_array_equal(new.y[0], y_left)
            np.testing.assert_array_equal(new.y[1], y_right)
        s = new


def _reference_w_step(model, s):
    """The smoothed step as np.convolve expressions, each new array fresh."""
    p, ones = model.p, np.ones(model.p.w)
    omx = 1.0 - np.convolve(s.x, ones, "full") / p.w
    if not s.y.size:
        return s.eps * (1.0 - np.convolve(omx ** (p.dr - 1), ones, "valid") / p.w) ** (p.dl - 1), np.empty(0)
    omy = 1.0 - s.y
    g = omy ** 2 * omx ** (p.a - 1)
    return s.eps * (1.0 - np.convolve(g, ones, "valid") / p.w) ** (p.q - 1), s.eps * (1.0 - omy * omx ** p.a)


@pytest.mark.parametrize("kind,p", [
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)),
    ("ra-w", ScRaParams(3, 3, 0, M=3, w=3)),  # window wider than the chain
    ("ra-w", ScRaParams(4, 2, 1, M=2, w=5)),
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)),
    ("ldpc-w", ScLdpcParams(3, 12, 1, M=4, w=7)),
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
        np.testing.assert_array_equal(new.y, y)


def random_w_state(model, rng, eps):
    s = model.initial_state(eps)
    s.x = rng.random(s.x.shape) * eps
    if s.y.size:
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
            if s.y.size:
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

# sha256 of repr((lo, hi, [(eps, converged) of each probe])) at the default precision and
# budget: the bisection path.  The front rule of de_run ends failing runs only, so it left
# every path as it was before the rule; any change must keep them.
PATH_DIGESTS = {
    ("ra-uncoupled", ScRaParams(6, 6, 0, M=6)): "d333a1335f6e7be6fbdc37b88ee1e0036e1d58a7864901b899fb3aa14bf3b162",
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)): "60cf53d682f88cb0644fb4e99825e35e21a7aea57f30da13f05203cb4439ba94",
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)): "60cf53d682f88cb0644fb4e99825e35e21a7aea57f30da13f05203cb4439ba94",
    ("ra-proto", ScRaParams(6, 6, 16, M=6)): "662f37dc4d9caf400ebe2b899c1683bf53c420315c7ca14da9984917e93cf42a",
    ("ra-proto", ScRaParams(6, 6, 8, M=6)): "d3ea9cf2c83de8507b56c37ad70cc9fb995abc18247482f8e2a4f7b30dfb3882",
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8)): "662f37dc4d9caf400ebe2b899c1683bf53c420315c7ca14da9984917e93cf42a",
}

# sha256 of repr((lo, hi, [(eps, converged, iters) of each probe])) at the default precision
# and budget.  A change to the DE code that keeps its arithmetic and its stop rules keeps
# every probe bit for bit; one that moves a probe must say why and pin anew.
PROBE_DIGESTS = {
    ("ra-uncoupled", ScRaParams(6, 6, 0, M=6)): "c32df4abd31fabd4e0a6ed8e4ecb31c1625c0fafa36a8d4ffb84e718b304a2b2",
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)): "45e1529fe9ec2837aeb3edd14f19b673c80a1ed173eed35305063de570c501f6",
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)): "ca270f238ca7615a5d5a37ea63de387ca366aaa04cf63ad11c826ce4d0a622b1",
    ("ra-proto", ScRaParams(6, 6, 16, M=6)): "0a45d290106e448fa523b541795eae375da3143f5fdccc52e3140bf927e7c922",
    ("ra-proto", ScRaParams(6, 6, 8, M=6)): "f7bfa48927a22917495dee9893591ce75d4c71a811fdaaa51c7678180b61d71d",
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8)): "42d8025407d300b1450fbaa243cf8d819d250c46269bbadaa6a4c002e07d6595",
}


@cache
def pinned_search(kind, p):
    """The default threshold search of one pinned driver, run once for the tests that read it."""
    return threshold(make_de_model(kind, p))


# sha256 of the bytes of x, then y, then z (those that are not None) after 500 steps from eps
# 0.4976, near the threshold of each coupled search in the benchmark; in the structured RA view
# y holds the left accumulator neighbors, then the right ones.  z, the check-to-message erasure
# of the last structured step, comes from proto_step_reference on the state before it.  PROBE_DIGESTS sees only outcomes
# and iteration counts; these pin every value of the state, so a restructured step that moves
# one rounding shows here.  np.power rounds some last bits differently in numpy's AVX-512
# kernels, so there is one pin per set of those kernels in use: all of them, or none.
STATE_CASES = [
    ("ra-w", ScRaParams(6, 6, 16, M=6, w=6)),
    ("ldpc-w", ScLdpcParams(4, 8, 16, M=8, w=4)),
    ("ra-proto", ScRaParams(6, 6, 16, M=6)),
    ("ldpc-proto", ScLdpcParams(4, 8, 16, M=8)),
]
AVX512_KERNELS = ("X86_V4", "AVX512_ICL", "AVX512_SPR")  # as NPY_DISABLE_CPU_FEATURES names them
STATE_DIGESTS = {
    AVX512_KERNELS: {
        "ra-w": "5ddb6a9b9f35474fb202387d1b394b09633dae84feaffb3bc9bbfedc14f526c0",
        "ldpc-w": "53cacd96b0c9c4a1d67c3bfb5b7862132f8fa25f5f1efb81bf181d174c9ecf7a",
        "ra-proto": "530c390a9f6bcd68a7402822cd190f767caaa0c7129bde02a81c7afda61ce106",
        "ldpc-proto": "d7810936768e2707200db6a8ea2e3e54d4a4b4334fd203e6caabd4ab0badf29b",
    },
    (): {
        "ra-w": "26694c499dd4b4a5c94d99c8f1ef09a10c9a40f23d5a1c2310773e826243a7ab",
        "ldpc-w": "c19c973c50a3932460f9e491ee7632e9364ddff61ff1cf227d50ca23cb73eefc",
        "ra-proto": "ffd690460f91554fa015f53d59f74767a0a7f91f7bd0ff3eb49bbda3a2e483a5",
        "ldpc-proto": "f435640cde429c8f81c2b169895b40b801dbf37584b3e077c60758cab14014dc",
    },
}


def avx512_kernels() -> tuple[str, ...]:
    """Those of numpy's AVX-512 kernel sets that this process dispatches to."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return tuple(name for name in AVX512_KERNELS if __cpu_features__.get(name))


def state_digest(kind, p) -> str:
    model = make_de_model(kind, p)
    s = model.initial_state(0.4976)
    for _ in range(499):
        s = model.step(s)
    z = proto_step_reference(model, s)[3] if kind.endswith("-proto") else None
    s = model.step(s)
    h = hashlib.sha256()
    for a in (s.x, s.y, z):
        if a is not None:
            h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("kind,p", STATE_CASES)
def test_state_digests(kind, p):
    kernels = avx512_kernels()
    assert kernels in STATE_DIGESTS, f"no state digests are pinned for numpy's AVX-512 kernels {kernels}"
    assert state_digest(kind, p) == STATE_DIGESTS[kernels][kind]


def test_state_digests_without_avx512_kernels():
    """The digests in a process with numpy's AVX-512 kernels turned off, so that a host that has
    them checks both pins."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_KERNELS),
               PYTHONPATH=os.pathsep.join([str(tests), *sys.path]))
    script = ("import json, test_de as t; "
              "print(json.dumps([t.avx512_kernels(), [t.state_digest(k, p) for k, p in t.STATE_CASES]]))")
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    kernels, digests = json.loads(run.stdout)
    assert kernels == []
    assert digests == [STATE_DIGESTS[()][kind] for kind, _ in STATE_CASES]


def _block_cases():
    """(kind, params, eps, budgets): every kind at 0, below, near and above its pinned threshold
    and at 1, then the structured RA chain whose boundary checks turn to NaN at eps=1, each at
    budgets around the block ends; then runs the front rule ends, at budgets around its second
    check: each coupled kind above its threshold, and the ra-w and ra-proto probes that the rule
    moves from the budget to a front stall."""
    short = (0, 1, DE_BLOCK - 1, DE_BLOCK, DE_BLOCK + 1, 2 * DE_BLOCK + 3)
    for kind, p, pinned in PINNED_THRESHOLDS[:4] + PINNED_THRESHOLDS[5:]:  # one chain of each kind
        for eps in (0.0, pinned - 0.05, pinned, pinned + 0.05, 1.0):
            yield kind, p, eps, short
    yield "ra-proto", ScRaParams(4, 2, 2, M=2), 1.0, short
    long = (MAX_ITERS, 2 * FRONT_EVERY - 1, 2 * FRONT_EVERY, 2 * FRONT_EVERY + 1)
    for kind, p, _ in PINNED_THRESHOLDS[1:4] + PINNED_THRESHOLDS[5:]:
        yield kind, p, 0.497802734375, long
    for kind, p, _ in PINNED_THRESHOLDS[1], PINNED_THRESHOLDS[3]:
        yield kind, p, 0.4976806640625, long


BLOCK_RUNS = [pytest.param(kind, p, eps, max_iters, id=f"{kind}-p{i}-{eps}-{max_iters}")
              for i, (kind, p, eps, budgets) in enumerate(_block_cases()) for max_iters in budgets]


@pytest.mark.parametrize("kind,p,eps,max_iters", BLOCK_RUNS)
def test_blocked_run_matches_reference_loop(kind, p, eps, max_iters):
    """de_run checks its stop conditions once per block of steps, and the front at block ends,
    yet reports the run of the per-iteration loop: its outcome, its iteration count and every
    bit of its residual."""
    model = make_de_model(kind, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = de_run(model, eps, max_iters)
        want = de_run_reference(model, eps, max_iters)
    assert (got.outcome, got.iterations) == (want.outcome, want.iterations)
    assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
    if p == ScRaParams(4, 2, 2, M=2) and max_iters > 0:
        assert (got.outcome, got.iterations) == ("stalled", 1) and np.isnan(got.residual)
    if eps == 0.4976806640625 and max_iters == MAX_ITERS:  # a budget probe before the rule
        assert got.outcome == "front-stalled"


def test_runs_share_no_state_through_the_history():
    """de_run steps through blocks of states it allocates itself, so no run reads what an
    earlier one left.  Runs alternate between two models, and between eps values on one
    model, many stopping inside a block; each gives what the same run on a fresh model gives."""
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
    return float(_changes(np.stack((old.x, new.x)), np.stack((old.y, new.y)))[0])


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
        assert s.y.size == 0  # change reads x only
        return
    y = s.y.copy()
    at = (1, y.shape[1] // 2) if y.ndim == 2 else y.size // 2  # structured view: row 1, a right neighbor
    y[at] += 1e-3
    assert _change(s, replace(s, y=y)) == pytest.approx(y[at] - s.y[at], abs=1e-15)


@pytest.mark.parametrize("kind", MODELS)
def test_every_state_has_a_y_array(kind):
    """Every kind's state holds y as an array, empty exactly for LDPC, which has no parity;
    a step keeps both shapes, and an LDPC change is the move of x alone, a NaN one too."""
    model = make_de_model(kind, CHANGE_PARAMS[kind])
    states = [model.initial_state(0.45)]
    for _ in range(3):
        states.append(model.step(states[-1]))
    for s in states:
        assert isinstance(s.y, np.ndarray) and s.y.ndim == s.x.ndim
        assert (s.x.shape, s.y.shape) == (states[0].x.shape, states[0].y.shape)
    assert (states[0].y.size == 0) == kind.startswith("ldpc")
    if kind.startswith("ldpc"):
        xs, ys = np.stack([s.x for s in states]), np.stack([s.y for s in states])
        dx = [float(np.max(np.abs(new.x - old.x))) for old, new in zip(states, states[1:])]
        assert _changes(xs, ys).tolist() == dx
        xs[2].flat[0] = np.nan
        assert np.isnan(_changes(xs, ys)[1:]).all() and _changes(xs, ys)[0] == dx[0]


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


def _state_bytes(*arrays) -> bytes:
    return b"".join(a.tobytes() for a in arrays)


def _cached_arrays(model) -> list:
    """Every array a driver holds: its constants, scratch and views of them."""
    values = [a for v in vars(model).values() for a in (v if isinstance(v, tuple) else (v,))]
    return [a for a in values if isinstance(a, np.ndarray)]


@pytest.mark.parametrize("kind,p,eps", [
    *((kind, p, eps) for kind, p in CHANGE_PARAMS.items() for eps in (0.0, 0.45, 0.4976, 1.0)),
    ("ra-proto", ScRaParams(4, 2, 2, M=2), 1.0),  # a < q: the boundary checks turn to NaN
])
def test_step_into_gives_the_same_bits_for_a_float_and_a_0d_eps(kind, p, eps):
    """de_run hands step_into eps as a 0-d float64 array, step hands it the float; both
    must take one arithmetic, so step and de_run walk the same states."""
    model = make_de_model(kind, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = model.step(model.step(model.initial_state(eps)))
        outs = []
        for e in (eps, np.array(eps, dtype=np.float64)):
            x, y = np.empty_like(s.x), np.empty_like(s.y)
            model.step_into(s.x, s.y, e, x, y)
            outs.append(_state_bytes(x, y))
    assert outs[0] == outs[1]
    if p == ScRaParams(4, 2, 2, M=2):
        assert np.isnan(np.frombuffer(outs[0])).any()


@pytest.mark.parametrize("kind", MODELS)
def test_make_de_model_builds_no_table_or_scratch(kind):
    """A driver builds its constants and scratch on first use, so building the models of a
    sweep or a benchmark set-up costs no array work."""
    model = make_de_model(kind, CHANGE_PARAMS[kind])
    assert _cached_arrays(model) == [] and "_tables" not in vars(model)
    model.step(model.initial_state(0.45))
    assert "_tables" in vars(model) and _cached_arrays(model)  # what the first line looks for


@pytest.mark.parametrize("kind", MODELS)
def test_step_shares_no_memory_with_the_driver(kind):
    """step returns arrays of its own, never a view of the driver's constants or scratch."""
    model = make_de_model(kind, CHANGE_PARAMS[kind])
    de_run(model, 0.45, 10)
    s = model.step(model.step(model.initial_state(0.45)))
    held = _cached_arrays(model)
    assert len(held) > 2
    for a in held:
        for b in (s.x, s.y):
            assert not np.shares_memory(a, b)


@pytest.mark.parametrize("kind", MODELS)
def test_scratch_is_private_to_a_model_and_a_call(kind):
    """A step between two runs on one model leaves both runs as on fresh models, and two
    models of one kind and parameters, stepped in turn, walk their solo states bit for bit."""
    p = CHANGE_PARAMS[kind]
    model = make_de_model(kind, p)
    for eps, max_iters in ((0.45, 2 * DE_BLOCK + 3), (0.55, 37)):
        assert de_run(model, eps, max_iters) == de_run(make_de_model(kind, p), eps, max_iters)
        model.step(model.step(model.initial_state(0.3)))

    def walk(model, eps, steps=40):
        s = model.initial_state(eps)
        for _ in range(steps):
            s = model.step(s)
            yield _state_bytes(s.x, s.y)

    solo = [list(walk(make_de_model(kind, p), eps)) for eps in (0.45, 0.55)]
    pair = [make_de_model(kind, p), make_de_model(kind, p)]
    together = zip(walk(pair[0], 0.45), walk(pair[1], 0.55))
    assert [list(w) for w in zip(*together)] == solo


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("kind,p,pinned", PINNED_THRESHOLDS)
def test_threshold_regression_values(kind, p, pinned):
    res = pinned_search(kind, p)
    mid = 0.5 * (res.lo + res.hi)
    assert abs(mid - pinned) < 2e-4
    assert res.hi - res.lo <= 1e-4 + 1e-12
    assert _digest((res.lo, res.hi, [pr[:2] for pr in res.probes])) == PATH_DIGESTS[kind, p]
    assert _digest((res.lo, res.hi, [pr[:3] for pr in res.probes])) == PROBE_DIGESTS[kind, p]


class _NoFront:
    """A driver's recursion with the front rule left out: the stops a plain run takes."""

    def __init__(self, model):
        self.initial_state, self.step_into = model.initial_state, model.step_into


@pytest.mark.parametrize("kind,p", [PINNED_THRESHOLDS[1][:2], PINNED_THRESHOLDS[3][:2]])
def test_front_stalled_probes_fail_in_a_plain_run(kind, p):
    """Every probe the front rule ends in the default ra-w and ra-proto searches also fails
    when run to a stall or to 10^6 iterations without the rule."""
    stalled = [pr for pr in pinned_search(kind, p).probes if pr[3] == "front-stalled"]
    assert stalled
    plain = _NoFront(make_de_model(kind, p))
    for eps, *_ in stalled:
        r = de_run(plain, eps, 10**6)
        assert r.outcome == "stalled", (eps, r)


@pytest.mark.parametrize("kind,p,pinned", PINNED_THRESHOLDS[1:4] + PINNED_THRESHOLDS[5:])
def test_front_never_falls(kind, p, pinned):
    """DE from the all-eps start falls pointwise, so a coupled run's front never falls: below,
    near and above the threshold."""
    model = make_de_model(kind, p)
    for eps in (pinned - 0.01, pinned, pinned + 0.01):
        s, fronts = model.initial_state(eps), []
        while len(fronts) < 3000 and s.x.max() >= 1e-8:
            s = model.step(s)
            fronts.append(model.front(s.x))
        assert fronts == sorted(fronts), eps
        assert fronts[-1] > 0 if eps < pinned else fronts[-1] < len(s.x)


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

    def initial_state(self, eps):
        return DeState(np.array([1.0]), np.empty(0), eps)

    def step_into(self, x, y, eps, x_out, y_out):
        x_out[...] = x


class _Instant:
    """Converges everywhere, even eps=1."""

    def initial_state(self, eps):
        return DeState(np.array([0.0]), np.empty(0), eps)

    def step_into(self, x, y, eps, x_out, y_out):
        x_out[...] = x


def test_drivers_without_a_front_keep_the_plain_rule():
    """ra-uncoupled, a chain of one position that can plateau near its BP threshold and then
    converge, and drivers with no front never report a front stall.  At this eps an
    uncoupled run passes the rule's second check and stalls later."""
    model = make_de_model("ra-uncoupled", ScRaParams(6, 6, 0, M=6))
    r = de_run(model, 0.4124298095703125)
    assert (r.outcome, r.iterations) == ("stalled", 2419) and r.iterations > 2 * FRONT_EVERY
    for driver in (model, _Stuck(), _Instant()):
        for eps in (0.0, 0.2, 0.4124298095703125, 0.5, 1.0):
            assert de_run(driver, eps).outcome != "front-stalled"
    assert pinned_search("ra-uncoupled", ScRaParams(6, 6, 0, M=6)).front_stalled == 0


def test_a_chain_of_one_position_has_no_front():
    """The front rule follows the chain, not the ensemble's name: ra-w at L=0, w=1 is the
    ra-uncoupled recursion and takes its probes, and ldpc-w at L=0, w=1, the (3,6) recursion,
    front-stalls no probe and brackets its BP threshold 0.42944."""
    ra_w = threshold(make_de_model("ra-w", ScRaParams(6, 6, 0, M=6, w=1)), precision=1e-5)
    ra = threshold(make_de_model("ra-uncoupled", ScRaParams(6, 6, 0, M=6)), precision=1e-5)
    assert ra_w == ra and ra.front_stalled == 0
    ldpc = threshold(make_de_model("ldpc-w", ScLdpcParams(3, 6, 0, M=6, w=1)))
    assert ldpc.front_stalled == 0 and ldpc.lo <= 0.42944 <= ldpc.hi


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
        make_de_model("ldpc-w", ScLdpcParams(3, 12, 0, 4))


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
