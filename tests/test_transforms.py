import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from supnorm import specfun, transforms, verify
from supnorm.transforms import TestFunction


def test_validation():
    with pytest.raises(ValueError):
        TestFunction(7, 2)  # parity
    with pytest.raises(ValueError):
        TestFunction(4, 4)  # B < A
    with pytest.raises(ValueError):
        TestFunction(3, 1)  # B >= 2
    assert TestFunction(10, 2).sign == 1
    assert TestFunction(8, 2).sign == -1  # i^(2-8) = i^(-6) = -1


def test_spec_example_tilde_4_2_t1():
    # (A,B) = (4,2), t = 1: factors (9+1)(4+1)(1+1), coefficient 2/2^3 = 1/4
    tf = TestFunction(4, 2)
    assert transforms.tilde_transform_closed_exact(tf, Fraction(1)) == Fraction(1, 400)
    assert transforms.tilde_transform_closed(tf, 1.0) == pytest.approx(1 / (400 * math.pi))


def test_closed_forms_agree_exact_vs_float():
    for a, b in ((8, 2), (10, 4), (13, 3)):
        tf = TestFunction(a, b)
        for t in (0.0, 0.5, 2.0):
            exact = float(transforms.tilde_transform_closed_exact(
                tf, Fraction(t).limit_denominator(10 ** 6) ** 2)) / math.pi
            # only check at exactly-representable t
            if t in (0.0, 0.5, 2.0):
                assert transforms.tilde_transform_closed(tf, t) == pytest.approx(exact, rel=1e-12)


def test_dot_closed_rejects_odd_or_small_k():
    tf = TestFunction(10, 2)
    with pytest.raises(ValueError):
        transforms.dot_transform_closed(tf, 3)
    with pytest.raises(ValueError):
        transforms.dot_transform_quadrature(tf, 0)
    with pytest.raises(ValueError):
        transforms.dot_truncation_bound(tf, 3)


def test_degenerate_factor_raises():
    # a factor (half - j)^2 + t^2 vanishes at imaginary t with t^2 = -(half - j)^2
    tf = TestFunction(10, 2)
    with pytest.raises(ValueError):
        transforms.tilde_transform_closed_exact(tf, Fraction(-16))


def test_weber_schafheitlin_oracle_dot():
    # third oracle: int J_{k-1} J_A y^{-B-1} dy via the gamma-ratio formula
    tf = TestFunction(10, 2)
    k = 4
    nu, a_, b_ = k - 1, tf.A, tf.B
    gamma = (math.gamma(b_ + 1) * math.gamma((nu + a_ - b_) / 2)
             / (2 ** (b_ + 1) * math.gamma((b_ + 2 + a_ - nu) / 2)
                * math.gamma((b_ + 2 + nu - a_) / 2) * math.gamma((b_ + 2 + nu + a_) / 2)))
    sign = (-1) ** (k // 2) * tf.sign
    assert transforms.dot_transform_closed_value(tf, k) == pytest.approx(sign * gamma, rel=1e-12)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(8, 2), (10, 2), (12, 2), (10, 4), (13, 3)]),
       st.sampled_from([2, 4, 6]))
def test_dot_quadrature_matches_closed(pair, k):
    tf = TestFunction(*pair)
    closed = transforms.dot_transform_closed_value(tf, k)
    quad = transforms.dot_transform_quadrature(tf, k)
    assert quad == pytest.approx(closed, rel=1e-8)


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 5.0])
def test_tilde_quadrature_matches_closed(t):
    tf = TestFunction(10, 2)
    closed = transforms.tilde_transform_closed(tf, t)
    quad = transforms.tilde_transform_quadrature(tf, t)
    assert quad == pytest.approx(closed, rel=1e-6)


def test_tilde_even_in_t():
    tf = TestFunction(8, 2)
    assert (transforms.tilde_transform_quadrature(tf, 2.0)
            == transforms.tilde_transform_quadrature(tf, -2.0))


def test_closed_tilde_rejects_non_finite_t():
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be finite"):
            transforms.tilde_transform_closed(TestFunction(10, 2), t)


def test_quadratures_repeat_bit_identically():
    tf = TestFunction(10, 2)
    assert (transforms.dot_transform_quadrature(tf, 4)
            == transforms.dot_transform_quadrature(tf, 4))
    assert (transforms.tilde_transform_quadrature(tf, 1.0)
            == transforms.tilde_transform_quadrature(tf, 1.0))


def test_cached_grid_and_kernels_are_read_only():
    transforms.tilde_transform_quadrature(TestFunction(10, 2), 1.0)
    cached = [*transforms._grid(), transforms._bessel_j_on_grid(3),
              transforms._imj_ratio_on_grid(1.0)]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_cold_sweep_computes_each_bessel_order_once():
    # both transforms share the grid, so J_A of the discrete and continuous
    # quadratures is one array: orders k - 1 = 1, 3, 5, 7 and A = 8, 10, 12
    transforms._bessel_j_on_grid.cache_clear()
    verify.sweep_transforms()
    assert transforms._bessel_j_on_grid.cache_info().misses == 7
    for order in (1, 3, 5, 7, 8, 10, 12):
        transforms._bessel_j_on_grid(order)
    assert transforms._bessel_j_on_grid.cache_info().misses == 7


@pytest.mark.parametrize("order", [1, 3, 5, 7, 8, 10, 12, 13, 20, 30])
def test_grid_bessel_j_matches_scipy_at_every_node(order):
    # Hankel's expansion from y = 150 (from 0.625 order^2 past order 15), jv below
    y = transforms._grid()[0]
    assert np.max(np.abs(transforms._bessel_j_on_grid(order) - special.jv(order, y))) <= 1e-16


def test_grid_sends_only_the_middle_band_to_the_contour(monkeypatch):
    # the series takes y < 4 and Hankel's expansion y >= max(40, 2.5 t^2), so
    # of the 26,016 nodes the contour gets 114 at t <= 4 (925 before the
    # series and the lower Hankel cut) and 169 at t = 5
    rows = []
    contour = specfun._ratio_contour
    monkeypatch.setattr(specfun, "_ratio_contour",
                        lambda t, y: rows.append(len(y)) or contour(t, y))
    transforms._imj_ratio_on_grid.cache_clear()
    try:
        for t in verify.TRANSFORM_TS:
            transforms._imj_ratio_on_grid(t)
    finally:
        transforms._imj_ratio_on_grid.cache_clear()
    y = transforms._grid()[0]
    between = [int(np.count_nonzero((y >= specfun._SERIES_CUT)
                                    & (y < specfun.hankel_cut(-16.0 * t * t))))
               for t in verify.TRANSFORM_TS]
    assert rows == between == [114, 114, 114, 114, 169]


def _dot_integral_on_old_grid(tf, k, y_max=5e4):
    """int J_{k-1} J_A y^(-B-1) dy on the grid the discrete transform used
    before its cut was stated: the same panels, run on to y_max."""
    u, wu = specfun.gauss_legendre_panels(math.log(1e-3), math.log(2 * math.pi), 0.25)
    y_lin, w_lin = specfun.gauss_legendre_panels(2 * math.pi, y_max, 2 * math.pi)
    y = np.concatenate([np.exp(u), y_lin])
    w = np.concatenate([wu * np.exp(u), w_lin])
    return float((w * special.jv(k - 1, y) * special.jv(tf.A, y) * y ** (-tf.B - 1.0)).sum())


@pytest.mark.parametrize("pair", verify.TRANSFORM_PAIRS, ids=str)
def test_dot_truncation_bound_covers_the_longer_grid(pair):
    tf = TestFunction(*pair)
    for k in verify.TRANSFORM_KS:
        new = transforms._quadrature(transforms._bessel_j_on_grid(k - 1), tf)
        old = _dot_integral_on_old_grid(tf, k)
        closed = transforms.dot_transform_closed_value(tf, k)
        # the (10, 4) points differ by round-off alone, about 5e-15 relative
        assert abs(old - new) <= (transforms.dot_truncation_bound(tf, k)
                                  + 1e-12 * abs(closed))


def test_positivity_certificate():
    cert = transforms.positivity_certificate(TestFunction(10, 2))
    assert cert["dot_all_positive"]
    assert cert["tilde_positive"]
    assert set(cert["dot_values"]) == {2, 4, 6, 8}
    assert all(isinstance(v, Fraction) for v in cert["dot_values"].values())
    assert isinstance(cert["tilde_at_imag_boundary"], Fraction)


def test_positivity_holds_at_imaginary_boundary_exactly():
    # at t = i*7/64 the smallest factor is ((A+B)/2 - B)^2 - (7/64)^2 > 0 for all shipped pairs
    for pair in ((8, 2), (10, 2), (12, 2), (10, 4)):
        cert = transforms.positivity_certificate(TestFunction(*pair))
        assert cert["tilde_at_imag_boundary"] > 0

