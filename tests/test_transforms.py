import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supnorm import transforms
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
    cached = [*transforms._grid(transforms._DOT_YMAX),
              transforms._bessel_j_on_grid(3, transforms._DOT_YMAX),
              transforms._imj_ratio_on_grid(1.0)]
    for arr in cached:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


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

