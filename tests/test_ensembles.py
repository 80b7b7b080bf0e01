"""Parameter validation and exact rate bookkeeping."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from scra.construct import build_sc_ldpc, build_sc_ra
from scra.ensembles import (
    ParameterError,
    ScLdpcParams,
    ScRaParams,
    code_size,
    density_matched_q,
    design_rate,
    rate_sc_ra_w,
)


def rate_sc_ra_reference(p: ScRaParams) -> Fraction:
    """The paper's closed form for the terminated coupled RA rate:
    (2L+1)a / ((2L+1)a + (2L+q)q), tending to a/(a+q) as L grows."""
    return Fraction(p.span * p.a, p.span * p.a + p.n_chk_pos * p.q)


def rate_sc_ldpc_reference(p: ScLdpcParams) -> Fraction:
    """The paper's closed form for the terminated coupled (dl, dr) LDPC
    rate: 1 - (dl/dr) * (2L+dl)/(2L+1)."""
    return 1 - Fraction(p.dl, p.dr) * Fraction(p.n_chk_pos, p.span)


def test_rate_ra_exact_value():
    r = design_rate(ScRaParams(q=6, a=6, L=16))
    assert r == Fraction(198, 426)
    assert r == Fraction(33, 71)
    assert f"{float(r):.4f}" == "0.4648"


def test_rate_ldpc_exact_value():
    r = design_rate(ScLdpcParams(dl=4, dr=8, L=16, M=2))
    assert r == Fraction(5, 11)
    assert f"{float(r):.4f}" == "0.4545"


def test_design_rate_matches_closed_forms():
    """k/n of code_size is the paper's closed form of either family, exactly."""
    for L in (0, 1, 2, 5, 16):
        for q in range(2, 9):
            for a in range(1, q + 1):
                p = ScRaParams(q=q, a=a, L=L, M=a)
                assert design_rate(p) == rate_sc_ra_reference(p)
        for dl in range(2, 7):
            for dr in range(dl, 13):
                p = ScLdpcParams(dl=dl, dr=dr, L=L, M=dr)
                ref = rate_sc_ldpc_reference(p)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    assert design_rate(p) == ref
                assert len(caught) == (ref <= 0)  # the degenerate warning, exactly when due


@pytest.mark.parametrize("p", [ScRaParams(3, 3, 1, 2), ScRaParams(4, 2, 2, 3), ScLdpcParams(3, 6, 2, 4)])
def test_message_count_is_span_times_M(p):
    c = (build_sc_ra if p.family == "ra" else build_sc_ldpc)(p, 0)
    assert c.n_msg == p.span * p.M == (c.k if p.family == "ra" else c.n)  # systematic bits, or all bits


# Independently derived with exact rational arithmetic and frozen here.
SMOOTHED_RATE_ORACLE = [
    (6, 6, 16, 6, Fraction(769824, 1635773)),
    (3, 3, 16, 3, Fraction(99, 202)),
    (4, 4, 8, 4, Fraction(1088, 2319)),
    (6, 6, 16, 1, Fraction(1, 2)),
]


@pytest.mark.parametrize("q,a,L,w,expect", SMOOTHED_RATE_ORACLE)
def test_rate_w_frozen_values(q, a, L, w, expect):
    got = rate_sc_ra_w(ScRaParams(q=q, a=a, L=L, M=a, w=w))
    np.testing.assert_allclose(got, float(expect), rtol=1e-12)


@pytest.mark.parametrize("q,a", [(3, 3), (4, 2), (6, 3), (6, 6), (8, 4)])
def test_rate_w_collapses_to_asymptotic_at_w1(q, a):
    """At w=1 the smoothing overhead vanishes and the rate is a/(a+q)."""
    for L in (0, 1, 4, 16):
        got = rate_sc_ra_w(ScRaParams(q=q, a=a, L=L, M=a, w=1))
        np.testing.assert_allclose(got, a / (a + q), rtol=1e-12)


@pytest.mark.parametrize("q", range(3, 11))
def test_rate_w_at_full_window_dominates_terminated_rate(q):
    """Smoothing with w=q costs no more rate than hard termination."""
    a = q
    for L in (2, 8, 16):
        plain = float(design_rate(ScRaParams(q=q, a=a, L=L)))
        smooth = rate_sc_ra_w(ScRaParams(q=q, a=a, L=L, M=a, w=q))
        assert smooth >= plain - 1e-12


def test_rates_increase_with_L_and_tend_to_asymptotic():
    prev_plain, prev_smooth = -1.0, -1.0
    for L in (1, 2, 4, 8, 16, 32):
        plain = float(design_rate(ScRaParams(6, 6, L)))
        smooth = rate_sc_ra_w(ScRaParams(6, 6, L, M=6, w=6))
        assert plain > prev_plain and smooth > prev_smooth
        prev_plain, prev_smooth = plain, smooth
    big = ScRaParams(6, 6, 10**6)
    assert abs(float(design_rate(big)) - 0.5) < 1e-5
    assert abs(rate_sc_ra_w(ScRaParams(6, 6, 10**6, M=6, w=6)) - 0.5) < 1e-5


def test_rate_dispatch_guards():
    with pytest.raises(ParameterError):
        design_rate(ScRaParams(6, 6, 16, M=6, w=6))
    with pytest.raises(ParameterError):
        design_rate(ScLdpcParams(4, 8, 16, M=2, w=4))
    with pytest.raises(ParameterError):
        rate_sc_ra_w(ScRaParams(6, 6, 16))


def test_node_counts_paper_point():
    k, n = code_size(ScRaParams(q=6, a=6, L=16, M=100))
    assert (k, n, n - k) == (3300, 7100, 3800)  # message bits, length, checks = parity bits


@pytest.mark.parametrize("q,a,L,M", [(3, 3, 1, 2), (4, 2, 3, 5), (6, 4, 8, 10), (10, 10, 16, 7)])
def test_node_counts_formulas(q, a, L, M):
    k, n = code_size(ScRaParams(q=q, a=a, L=L, M=M))
    assert k == (2 * L + 1) * M  # message bits
    assert n - k == (2 * L + q) * (q * M // a)  # one parity bit per check


def test_code_size_paper_points():
    assert code_size(ScRaParams(6, 6, 16, M=100)) == (3300, 7100)
    assert code_size(ScRaParams(6, 6, 16, M=300)) == (9900, 21300)
    assert code_size(ScLdpcParams(4, 8, 16, M=220)) == (3300, 7260)
    assert code_size(ScLdpcParams(4, 8, 16, M=660)) == (9900, 21780)


def test_density_matched_q_half_rate_family():
    for dl, q in ((3, 4), (4, 6), (5, 8), (6, 10)):
        assert density_matched_q(dl, Fraction(1, 2)) == q
        assert density_matched_q(dl, "1/2") == q


def test_density_matched_q_rejects_non_integral():
    with pytest.raises(ParameterError):
        density_matched_q(3, "2/5")
    with pytest.raises(ParameterError):
        density_matched_q(2, 0)
    with pytest.raises(ParameterError):
        density_matched_q(1, "1/2")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(q=1, a=1, L=1),
        dict(q=3, a=0, L=1),
        dict(q=3, a=3, L=-1),
        dict(q=3, a=3, L=1, M=0),
        dict(q=5, a=3, L=1, M=1),  # a does not divide q*M
        dict(q=3, a=3, L=1, M=3, w=0),
        dict(q=3, a=True, L=1, M=2),  # bool is an int subclass; a=True would differ from a=1 in repr
        dict(q=3, a=3, L=1, M=3, w=True),
    ],
)
def test_ra_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ScRaParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dl=1, dr=4, L=1),
        dict(dl=4, dr=3, L=1),  # dr < dl
        dict(dl=4, dr=8, L=-1),
        dict(dl=4, dr=8, L=1, M=0),
        dict(dl=4, dr=8, L=1, M=3),  # dr does not divide dl*M
        dict(dl=4, dr=8, L=1, M=2, w=0),
        dict(dl=4, dr=8, L=True, M=2),
    ],
)
def test_ldpc_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ScLdpcParams(**kwargs)


def test_degenerate_ldpc_rate_warns():
    with pytest.warns(UserWarning):
        r = design_rate(ScLdpcParams(dl=4, dr=4, L=1))
    assert r <= 0

