"""Density evolution recursions, drivers, and threshold bisection."""

import numpy as np
import pytest

from scra.density_evolution import (
    DensityEvolutionError,
    DeState,
    de_run,
    de_step_ldpc_w,
    de_step_ra_w,
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
        assert model.residual(s, "all") == 0.0


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
    np.testing.assert_array_equal(ps.y_left, np.ones_like(ps.y_left))


@pytest.mark.parametrize("q,a", [(3, 3), (6, 6)])
def test_w1_L0_reduces_to_scalar_recursion(q, a):
    p = ScRaParams(q, a, 0, M=a, w=1)
    eps = 0.4
    s = DeState(np.array([eps]), np.array([eps]), eps, 0)
    x, y = eps, eps
    for _ in range(60):
        s = de_step_ra_w(s, p)
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
        lo.y_left = rng.random(lo.y_left.shape) * 0.6
        lo.y_right = rng.random(lo.y_right.shape) * 0.6
        hi = model.initial_state(0.6)
        hi.x = lo.x + rng.random(lo.x.shape) * (1 - lo.x)
        hi.y_left = lo.y_left + rng.random(lo.y_left.shape) * (1 - lo.y_left)
        hi.y_right = lo.y_right + rng.random(lo.y_right.shape) * (1 - lo.y_right)
        slo, shi = model.step(lo), model.step(hi)
        assert np.all(slo.x <= shi.x + 1e-12)
        assert np.all(slo.y_left <= shi.y_left + 1e-12)


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.8, 1.0])
def test_values_stay_in_unit_interval(eps):
    for model in (w_model(), proto_model(), make_de_model("ldpc-proto", ScLdpcParams(3, 6, 4, 6))):
        s = model.initial_state(eps)
        for _ in range(50):
            s = model.step(s)
            assert 0.0 <= s.x.min() and s.x.max() <= 1.0
            if getattr(s, "y", None) is not None:
                assert 0.0 <= s.y.min() and s.y.max() <= 1.0


def test_convergence_monotone_in_eps():
    p = ScRaParams(3, 3, 8, M=3, w=3)
    flags = [de_run(p, eps).converged for eps in np.arange(0.05, 1.0, 0.05)]
    assert flags[0] and not flags[-1]
    assert flags == sorted(flags, reverse=True), "a failure below a success"


def test_run_examples_and_guards():
    p = ScRaParams(3, 3, 16, M=3, w=3)
    assert de_run(p, 0.2).converged
    res = de_run(p, 0.9)
    assert not res.converged and res.iterations < 20000  # stalls fast
    assert de_run(p, 0.2, criterion="all").converged
    with pytest.raises(ParameterError):
        de_run(p, 1.5)
    with pytest.raises(ParameterError):
        de_run(p, 0.5, criterion="bogus")


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


@pytest.mark.parametrize("kind,p,pinned", PINNED_THRESHOLDS)
def test_threshold_regression_values(kind, p, pinned):
    res = threshold(make_de_model(kind, p))
    mid = 0.5 * (res.lo + res.hi)
    assert abs(mid - pinned) < 2e-4
    assert res.hi - res.lo <= 1e-4 + 1e-12


def test_threshold_bracket_contract():
    p = ScRaParams(3, 3, 4, M=3, w=3)
    res = threshold(p, precision=1e-3)
    assert res.hi - res.lo <= 1e-3 + 1e-12
    assert de_run(p, res.lo).converged
    assert not de_run(p, res.hi).converged
    evaluated = [pr[0] for pr in res.probes]
    assert 0.0 in evaluated and 1.0 in evaluated
    assert res.criterion == "message"


def test_coupling_never_hurts():
    uncoupled = threshold(make_de_model("ra-uncoupled", ScRaParams(3, 3, 0, M=3)), precision=1e-3)
    for L in (4, 8):
        coupled = threshold(ScRaParams(3, 3, L, M=3, w=3), precision=1e-3)
        assert coupled.lo >= uncoupled.hi


class _Stuck:
    """Never converges, any eps."""

    def initial_state(self, eps):
        return DeState(np.array([1.0]), None, eps, 0)

    def step(self, s):
        return DeState(s.x.copy(), None, s.eps, s.iteration + 1)

    def residual(self, s, criterion):
        return 1.0

    def change(self, old, new):
        return 0.0


class _Instant:
    """Converges everywhere, even eps=1."""

    def initial_state(self, eps):
        return DeState(np.array([0.0]), None, eps, 0)

    def step(self, s):
        return DeState(s.x.copy(), None, s.eps, s.iteration + 1)

    def residual(self, s, criterion):
        return 0.0

    def change(self, old, new):
        return 0.0


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
    s = DeState(np.array([0.1]), np.array([0.1]), 0.1, 0)
    with pytest.raises(ParameterError):
        de_step_ra_w(s, ScRaParams(3, 3, 0, M=3))
    with pytest.raises(ParameterError):
        de_step_ldpc_w(DeState(np.array([0.1]), None, 0.1, 0), ScLdpcParams(3, 6, 0, 6))


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
