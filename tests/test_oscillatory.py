import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from supnorm import oscillatory, verify
from supnorm.arithmetic import RationalApproximation, dirichlet_approximate
from supnorm.oscillatory import DyadicPartition, SmoothWindow, distance_to_nearest_integer
from supnorm.specfun import ArchimedeanParameter


def test_window_support_and_plateau():
    w = SmoothWindow(100.0, 10.0)
    assert w(49.9) == 0.0
    assert w(200.1) == 0.0
    assert w(100.0) == pytest.approx(1.0)
    assert 0 < w(55.0) < 1


def test_window_validation():
    with pytest.raises(ValueError):
        SmoothWindow(100.0, 0.5)
    with pytest.raises(ValueError):
        SmoothWindow(100.0, 200.0)
    with pytest.raises(ValueError):
        SmoothWindow(0.5, 0.5)


def _derivative_constants(w, j_max):
    """C_j = sup |w^(j)| T^j for j = 1..j_max, by central differences of step
    2h, h = T/50, on 2000 points around the support."""
    x = np.linspace(w.Z / 2 - w.T, 2 * w.Z + w.T, 2000)
    h = w.T / 50
    consts = []
    for j in range(1, j_max + 1):
        acc = sum((-1) ** i * math.comb(j, i) * w(x + (j - 2 * i) * h) for i in range(j + 1))
        consts.append(float(np.max(np.abs(acc / (2 * h) ** j)) * w.T ** j))
    return consts


def test_window_derivative_constants_scale_free():
    # C_j = sup|w^(j)| T^j should be roughly independent of T
    c_small = _derivative_constants(SmoothWindow(256.0, 8.0), 3)
    c_large = _derivative_constants(SmoothWindow(256.0, 64.0), 3)
    for a, b in zip(c_small, c_large):
        assert a == pytest.approx(b, rel=0.2)


def test_dyadic_partition_is_exact():
    part = DyadicPartition()
    grid = np.concatenate([np.linspace(1, 50, 200), np.geomspace(50, 1e6, 50)])
    rep = part.partition_check(grid)
    assert rep["max_deviation"] < 1e-12
    with pytest.raises(ValueError):
        part.partition_check([0.5, 2.0])


def test_dyadic_bump_support():
    part = DyadicPartition()
    assert part.bump(0.4) == 0.0
    assert part.bump(2.1) == 0.0
    assert part.bump(1.0) > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 997), st.integers(2, 997), st.integers(5, 500))
def test_dirichlet_approximation_property(a, q, h):
    x = Fraction(a, q)
    r = dirichlet_approximate(x, h)
    assert r.q <= h
    assert math.gcd(r.a, r.q) == 1
    assert abs(r.beta) <= 1 / (r.q * h) + 1e-12


def test_dirichlet_exact_when_denominator_fits():
    r = dirichlet_approximate(Fraction(3, 7), 10)
    assert (r.a, r.q) == (3, 7)
    assert r.beta == 0.0


def test_rational_approximation_validation():
    with pytest.raises(ValueError):
        RationalApproximation(x=0.5, a=2, q=4, H=10, beta=0.0)  # gcd
    with pytest.raises(ValueError):
        RationalApproximation(x=0.5, a=1, q=20, H=10, beta=0.0)  # q > H
    with pytest.raises(ValueError):
        RationalApproximation(x=0.6, a=1, q=2, H=10, beta=0.1)  # |beta| too big


def test_distance_to_nearest_integer():
    assert distance_to_nearest_integer(Fraction(7, 3)) == pytest.approx(1 / 3)
    assert distance_to_nearest_integer(2.5) == 0.5
    assert distance_to_nearest_integer(4.0) == 0.0


def test_lemma4_decay_check():
    w = SmoothWindow(512.0, 64.0)
    rep = oscillatory.lemma4_decay_check(w, 0.3, 2)
    assert rep["ratio"] < 1.0  # decay far below the envelope at this T||alpha||
    with pytest.raises(ValueError):
        oscillatory.lemma4_decay_check(w, 1.0, 2)  # integer alpha
    with pytest.raises(ValueError):
        oscillatory.lemma4_decay_check(w, 0.3, 1)  # j < 2


def test_lemma4_slope_is_steep():
    rep = oscillatory.lemma4_t_sweep(2048.0, 0.3, [8, 16, 32])
    assert rep["slope"] <= -1.8


def test_voronoi_integral_against_direct_quadrature():
    from scipy import integrate, special
    w = SmoothWindow(16.0, 8.0)
    param = ArchimedeanParameter.holomorphic(4)
    alpha = 1.0
    ours = oscillatory.voronoi_integral(w, param, "+", alpha)
    direct, _ = integrate.quad(
        lambda xi: w(xi) * 2 * math.pi * special.jv(3, alpha * math.sqrt(xi)),
        8.0, 32.0, limit=400)
    assert ours == pytest.approx(direct, rel=1e-8)
    # holomorphic minus kernel vanishes
    assert oscillatory.voronoi_integral(w, param, "-", alpha) == 0.0


def test_voronoi_integral_maass_t_zero():
    from scipy import integrate, special
    w = SmoothWindow(16.0, 8.0)
    param = ArchimedeanParameter.maass(0.0)
    ours = oscillatory.voronoi_integral(w, param, "-", 2.0)
    direct, _ = integrate.quad(
        lambda xi: w(xi) * 4 * special.kv(0, 2.0 * math.sqrt(xi)), 8.0, 32.0, limit=400)
    assert ours == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_voronoi_integral_maass_against_mpmath_kernel(sign):
    import mpmath as mp
    from scipy import integrate
    t, alpha = 2.0, 1.0
    w = SmoothWindow(16.0, 8.0)
    param = ArchimedeanParameter.maass(t)

    def kernel(x):
        with mp.workdps(40):
            if sign == "+":
                pair = 2 * mp.bessely(2j * mp.mpf(t), x).real
                return float(mp.pi / mp.cosh(mp.pi * t) * pair)
            return float(4 * mp.cosh(mp.pi * t) * mp.besselk(2j * mp.mpf(t), x).real)

    ours = oscillatory.voronoi_integral(w, param, sign, alpha)
    direct, _ = integrate.quad(lambda xi: w(xi) * kernel(alpha * math.sqrt(xi)),
                               8.0, 32.0, limit=200, epsabs=1e-13)
    assert ours == pytest.approx(direct, rel=1e-8)


def test_lemma6_bounds():
    assert oscillatory.lemma6_bound1(16.0, 2.0, 4.0) == pytest.approx(16 ** 0.75 * 2 / 2)
    val = oscillatory.lemma6_bound2(64.0, 8.0, 1.0, 2.0, 1)
    assert val > 0
    with pytest.raises(ValueError):
        oscillatory.lemma6_bound2(4.0, 2.0, 10.0, 0.1, 1)  # hypothesis fails


def test_kernel_sweep_evaluates_each_kernel_once(monkeypatch):
    # nodes and kernel depend on (Z, param, sign, alpha), not on T: the sweep's
    # 4 params x 2 Z x 3 alpha x 2 signs = 48 kernels serve its 96 integrals
    kernel, cached, calls = oscillatory.voronoi_kernel_values, oscillatory._kernel_on_panels, []
    monkeypatch.setattr(oscillatory, "voronoi_kernel_values",
                        lambda *args: calls.append(args) or kernel(*args))
    cached.cache_clear()
    shared = verify.sweep_kernel_integrals()
    assert len(calls) == 48
    # the per-call path builds nodes and kernel for every integral
    monkeypatch.setattr(oscillatory, "_kernel_on_panels", cached.__wrapped__)
    assert verify.sweep_kernel_integrals() == shared
    assert len(calls) == 48 + 96
    cached.cache_clear()


def test_cached_kernel_arrays_are_read_only():
    param = ArchimedeanParameter.maass(1.0)
    oscillatory.voronoi_integral(SmoothWindow(16.0, 8.0), param, "+", 1.0)
    for arr in oscillatory._kernel_on_panels(16.0, param, "+", 1.0):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
