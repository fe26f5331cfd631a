import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import special

from supnorm import specfun
from supnorm.specfun import ArchimedeanParameter


def test_archimedean_parameter():
    h = ArchimedeanParameter.holomorphic(4)
    assert h.t == 1.5 and h.t_star == 2.5
    m = ArchimedeanParameter.maass(-2.0)
    assert m.t_star == 3.0
    with pytest.raises(ValueError):
        ArchimedeanParameter.holomorphic(3)
    with pytest.raises(ValueError):
        ArchimedeanParameter.holomorphic(0)


def test_bessel_j_matches_scipy_and_rejects_nonpositive():
    assert specfun.bessel_j(2, 3.0) == pytest.approx(float(special.jv(2, 3.0)))
    with pytest.raises(ValueError):
        specfun.bessel_j(2, 0.0)


def _bessel_k_imag_quadrature(t: float, y: float) -> float:
    """Independent oracle: cosh(pi t / 2) * integral_0^inf exp(-y cosh u) cos(tu) du.

    Uses mpmath tanh-sinh quadrature at elevated precision on the real axis;
    intended for |t| <~ 30.
    """
    if y <= 0:
        raise ValueError(f"argument must be positive, got {y}")
    t = abs(float(t))
    dps = 25 + int(1.5 * t)
    with mp.workdps(dps):
        yy = mp.mpf(y)
        # truncate where exp(-y cosh u) is below working precision
        target = mp.mpf(10) ** (-(dps + 10))
        umax = mp.acosh(max(mp.mpf(2), -mp.log(target) / yy))
        if t > 0:
            # split at the oscillation scale of cos(tu)
            pts = [mp.mpf(0)]
            step = mp.pi / (2 * t)
            while pts[-1] < umax:
                pts.append(min(pts[-1] + step, umax))
        else:
            pts = [mp.mpf(0), umax]
        integral = mp.quad(lambda u: mp.e ** (-yy * mp.cosh(u)) * mp.cos(t * u), pts)
        return float(mp.cosh(mp.pi * t / 2) * integral)


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0, 7.0])
@pytest.mark.parametrize("y", [0.2, 1.0, 4.0, 15.0])
def test_bessel_k_imag_against_quadrature_oracle(t, y):
    direct = specfun.bessel_k_imag(t, y)
    quad = _bessel_k_imag_quadrature(t, y)
    assert direct == pytest.approx(quad, rel=1e-10, abs=1e-14)


def test_bessel_k_imag_even_in_t_and_t_zero():
    assert specfun.bessel_k_imag(2.0, 1.0) == specfun.bessel_k_imag(-2.0, 1.0)
    assert specfun.bessel_k_imag(0.0, 1.5) == pytest.approx(float(special.kv(0, 1.5)))


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
def test_y_pair_ratio_against_mpmath(t):
    # both branches: the contour integral below y = 150 and Hankel's expansion above
    y = np.geomspace(1e-3, 2e3, 41)
    ours = specfun.y_pair_ratio(t, y)
    with mp.workdps(30 + int(3 * t)):
        ref = [float(mp.besselj(2j * mp.mpf(t), mp.mpf(v)).imag / mp.sinh(mp.pi * t)) for v in y]
    assert np.max(np.abs(ours - ref)) <= 1e-12


@pytest.mark.parametrize("t", [20.0, 30.0, 40.0])
@pytest.mark.parametrize("y", [500.0, 1000.0])
def test_y_pair_ratio_at_a_single_large_point_against_mpmath(t, y):
    # alone, y is the smallest point of its band, so the first radial panel
    # needs the phase cap: as [0, y/16] it erred by 5.1e-7 at (30, 1000)
    ours = float(specfun.y_pair_ratio(t, [y])[0])
    with mp.workdps(30 + int(3 * t)):
        ref = float(mp.besselj(2j * mp.mpf(t), mp.mpf(y)).imag / mp.sinh(mp.pi * t))
    assert abs(ours - ref) <= 1e-12


@pytest.mark.parametrize("t, y", [(0.0, 1e-300), (3.0, 1e-200), (0.3, 1e-155)])
def test_y_pair_ratio_where_y_squared_underflows(t, y):
    # below y = 1e-150 a band takes np.hypot, since y^2 + p^2 would underflow to 0
    ours = float(specfun.y_pair_ratio(t, [y])[0])
    with mp.workdps(40):
        ref = (mp.bessely(0, mp.mpf(y)) if t == 0
               else mp.besselj(2j * mp.mpf(t), mp.mpf(y)).imag / mp.sinh(mp.pi * t))
    assert ours == pytest.approx(float(ref), rel=1e-12)


def test_k_imag_scaled_is_zero_where_its_factor_underflows():
    # e^{-y cos theta} underflows there, so the value is 0 and no nodes are
    # built; at 1e10 they would run past _MAX_PANELS
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = specfun.k_imag_scaled(1.0, [2.0, 1e10, 1e300])
    assert values[0] > 0 and list(values[1:]) == [0.0, 0.0]
    with pytest.raises(ValueError, match="argument must be finite, got inf"):
        specfun.k_imag_scaled(1.0, [2.0, math.inf])


def test_bands_split_at_powers_of_four():
    y = np.array([4.0, 0.25, 3.999, 1.0, 16.0, 0.2499, 1e-3])
    bands = [sorted(y[i]) for i in specfun._bands(y)]
    assert bands == [[1e-3], [0.2499], [0.25], [1.0, 3.999], [4.0], [16.0]]


@pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0])
def test_k_imag_scaled_against_mpmath(t):
    # relative accuracy where K decays (down to e^-700 at y = 700), absolute
    # accuracy in the oscillatory range y < t
    y = np.geomspace(0.05, 700, 41)
    ours = specfun.k_imag_scaled(t, y)
    with mp.workdps(30 + int(3 * t)):
        ref = np.array([float(mp.cosh(mp.pi * t / 2) * mp.besselk(1j * mp.mpf(t), mp.mpf(v)).real)
                        for v in y])
    decaying = y >= t
    assert np.max(np.abs(ours - ref)[decaying] / np.abs(ref[decaying])) <= 1e-12
    assert np.max(np.abs(ours - ref)[~decaying], initial=0.0) <= 1e-11


def test_imaginary_order_evaluators_at_t_zero_match_scipy():
    y = np.geomspace(1e-3, 140, 30)
    assert specfun.y_pair_ratio(0.0, y) == pytest.approx(special.yv(0, y), rel=1e-12, abs=1e-14)
    assert specfun.k_imag_scaled(0.0, y) == pytest.approx(special.kv(0, y), rel=1e-12)


def test_imaginary_order_evaluators_do_not_depend_on_blocking(monkeypatch):
    y = np.geomspace(1e-2, 140, 50)
    whole = specfun.y_pair_ratio(2.0, y), specfun.k_imag_scaled(3.0, y)
    monkeypatch.setattr(specfun, "_BLOCK", 64)
    blocked = specfun.y_pair_ratio(2.0, y), specfun.k_imag_scaled(3.0, y)
    for a, b in zip(whole, blocked):
        assert b == pytest.approx(a, rel=1e-14, abs=1e-16)


def test_imaginary_order_row_sums_do_not_depend_on_blocking(monkeypatch):
    # each row is summed by numpy's own reduction over that row alone
    y = np.geomspace(1e-3, 140, 70)
    whole = specfun.y_pair_ratio(0.5, y), specfun.k_imag_scaled(7.0, y)
    monkeypatch.setattr(specfun, "_BLOCK", 300)
    blocked = specfun.y_pair_ratio(0.5, y), specfun.k_imag_scaled(7.0, y)
    for a, b in zip(whole, blocked):
        assert np.array_equal(a, b)


def test_imaginary_order_evaluators_reject_nonpositive():
    with pytest.raises(ValueError):
        specfun.y_pair_ratio(1.0, [1.0, 0.0])
    with pytest.raises(ValueError):
        specfun.k_imag_scaled(1.0, [-1.0])


def test_scalar_wrappers_match_the_array_evaluators():
    t, y = 1.5, np.array([0.2, 1.3, 4.0, 9.0])
    ratio, k = specfun.y_pair_ratio(t, y), specfun.k_imag_scaled(t, y)
    for i, v in enumerate(y):
        assert specfun.bessel_k_imag(t, v) == float(specfun.k_imag_scaled(t, [v])[0])
        assert specfun.bessel_k_imag(t, v) == pytest.approx(k[i], rel=1e-13)
        assert specfun.bessel_y_imag_pair(t, v) == pytest.approx(
            2 * math.cosh(math.pi * t) * ratio[i], rel=1e-13)
    param = ArchimedeanParameter.maass(t)
    w = 4 * math.pi * y
    plus = specfun.y_pair_ratio(t, w)
    for i, v in enumerate(y):
        assert specfun.voronoi_kernel(param, "+", v) == pytest.approx(
            2 * math.pi * plus[i], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("t", [226.5, -227.0])
def test_bessel_y_imag_pair_past_cosh_overflow(t):
    # cosh(pi t) overflows float64 here, but the pair 2 ratio cosh(pi t) does not
    with pytest.raises(OverflowError):
        math.cosh(math.pi * t)
    value = specfun.bessel_y_imag_pair(t, 1.0)
    ratio = float(specfun.y_pair_ratio(t, [1.0])[0])
    assert math.isfinite(value)
    assert float(mp.mpf(value) / mp.cosh(mp.pi * t)) == pytest.approx(2 * ratio, rel=1e-14)
    with pytest.raises(ValueError, match="overflows float64"):
        specfun.bessel_y_imag_pair(300.0, 1.0)


def test_bessel_y_imag_pair_real_and_t_zero():
    assert specfun.bessel_y_imag_pair(0.0, 2.0) == pytest.approx(2 * float(special.yv(0, 2.0)))
    # continuity of the pair at small t
    assert specfun.bessel_y_imag_pair(1e-4, 2.0) == pytest.approx(
        specfun.bessel_y_imag_pair(0.0, 2.0), rel=1e-3)


def test_whittaker_weight_holomorphic_closed_form():
    param = ArchimedeanParameter.holomorphic(6)
    y = 0.7
    expected = (4 * math.pi * y) ** 3 * math.exp(-2 * math.pi * y) / math.sqrt(math.factorial(5))
    assert specfun.whittaker_weight(param, y) == pytest.approx(expected, rel=1e-12)


def test_whittaker_weight_maass_form():
    param = ArchimedeanParameter.maass(1.0)
    y = 0.5
    expected = math.sqrt(y) * specfun.bessel_k_imag(1.0, 2 * math.pi * y)
    assert specfun.whittaker_weight(param, y) == pytest.approx(expected)


def test_voronoi_kernel_holomorphic():
    param = ArchimedeanParameter.holomorphic(4)
    y = 0.3
    assert specfun.voronoi_kernel(param, "-", y) == 0.0
    assert specfun.voronoi_kernel(param, "+", y) == pytest.approx(
        2 * math.pi * float(special.jv(3, 4 * math.pi * y)))


def test_voronoi_kernel_maass_minus_is_renormalized_k():
    param = ArchimedeanParameter.maass(1.5)
    y = 0.4
    expected = 4 * specfun.bessel_k_imag(3.0, 4 * math.pi * y)
    assert specfun.voronoi_kernel(param, "-", y) == pytest.approx(expected)


def test_voronoi_kernel_rejects_bad_sign():
    with pytest.raises(ValueError):
        specfun.voronoi_kernel(ArchimedeanParameter.maass(1.0), "x", 1.0)


def test_derivative_recurrences():
    rep = specfun.check_derivative_recurrences(2.0, [0.5, 1, 3, 10])
    assert rep["max_discrepancy_J"] < 1e-6
    assert rep["max_discrepancy_K"] < 1e-6


def _bump(y):
    v = 2 * (y - 2.5) / 3
    return math.exp(-1 / (1 - v * v)) if abs(v) < 1 else 0.0


@pytest.mark.parametrize("family", ["J", "Y", "K"])
def test_ibp_identity(family):
    from scipy import integrate
    bes = {"J": special.jv, "Y": special.yv, "K": special.kv}[family]
    sign = 1.0 if family == "K" else -1.0

    def quad(f):
        return integrate.quad(f, 1.0, 4.0, limit=400, epsabs=0.0, epsrel=1e-11)[0]

    for r in (0.0, 1.0, 2.0):
        for alpha in (1.0, 2.0):
            rep = specfun.check_ibp_identity(_bump, (1.0, 4.0), r, alpha, family)
            assert rep["rel_error"] < 1e-7
            lhs = quad(lambda y: _bump(y) * bes(r, alpha * math.sqrt(y)))
            rhs = sign * 2 / alpha * quad(
                lambda y: ((_bump(y + 1e-6) - _bump(y - 1e-6)) / 2e-6 * math.sqrt(y)
                           - r / 2 * _bump(y) / math.sqrt(y)) * bes(r + 1, alpha * math.sqrt(y)))
            # the rhs integrand holds g', whose 16-panel rule error reaches 2.2e-9
            # here; 1e-8 is still 10x below the identity's 1e-7 gate
            assert rep["lhs"] == pytest.approx(lhs, rel=1e-10, abs=0), (r, alpha)
            assert rep["rhs"] == pytest.approx(rhs, rel=1e-8, abs=0), (r, alpha)


@pytest.mark.parametrize("family", ["J", "Y", "K"])
def test_ibp_identity_does_not_depend_on_panel_count(monkeypatch, family):
    coarse = specfun.check_ibp_identity(_bump, (1.0, 4.0), 2.0, 1.0, family)
    monkeypatch.setattr(specfun, "_IBP_PANELS", 32)
    fine = specfun.check_ibp_identity(_bump, (1.0, 4.0), 2.0, 1.0, family)
    assert fine["lhs"] == pytest.approx(coarse["lhs"], rel=1e-10, abs=0)
    assert fine["rhs"] == pytest.approx(coarse["rhs"], rel=1e-8, abs=0)


def test_transition_bound_constant_is_modest():
    for t in (2.0, 5.0, 10.0):
        grid = [0.3 * t, 0.9 * t, t, 1.1 * t, 2 * t]
        rep = specfun.check_kbessel_transition_bound(t, grid)
        assert rep["constant"] < 10.0
    with pytest.raises(ValueError):
        specfun.check_kbessel_transition_bound(1.0, [1.0])


def test_bessel_j_shape_constant():
    rep = specfun.fit_bessel_j_shape(range(0, 12), np.geomspace(0.1, 1e3, 120))
    assert rep["constant"] < 50.0


def test_bessel_k_shape_constant():
    rep = specfun.fit_bessel_k_shape((0.0, 1.0, 4.0), np.geomspace(0.1, 40, 40))
    assert rep["constant"] < 50.0


def _whittaker_shape_per_call(params, y_factors):
    """`fit_whittaker_shape` with each derivative from its own weights."""
    worst, worst_at = 0.0, None
    for param in params:
        ts = param.t_star
        for fac in y_factors:
            y = fac * ts
            h = max(1e-4 * y, 1e-6)
            w = functools.partial(specfun.whittaker_weight, param)
            derivatives = (w(y), (w(y + h) - w(y - h)) / (2 * h),
                           (w(y + h) - 2 * w(y) + w(y - h)) / (h * h))
            for j, d in enumerate(derivatives):
                ratio = abs(d) / (math.sqrt(ts) * (ts / y) ** (j + 0.1) * (1 + y / ts) ** -3.0)
                if ratio > worst:
                    worst, worst_at = ratio, (param.kind, param.k or param.t, fac, j)
    return {"constant": worst, "worst_point": worst_at}


def test_whittaker_fit_evaluates_each_weight_once(monkeypatch):
    params = [ArchimedeanParameter.holomorphic(4), ArchimedeanParameter.maass(0.0),
              ArchimedeanParameter.maass(5.0)]
    factors = (0.1, 1.0, 5.0)
    expected = _whittaker_shape_per_call(params, factors)
    weight, calls = specfun.whittaker_weight, []
    monkeypatch.setattr(specfun, "whittaker_weight",
                        lambda param, y: calls.append((param, y)) or weight(param, y))
    assert specfun.fit_whittaker_shape(params, factors) == expected
    assert len(calls) == 3 * len(params) * len(factors)


def test_ibp_checks_of_one_weight_share_its_samples():
    calls = []

    def g(y):
        calls.append(y)
        return _bump(y)

    grid = [(r, alpha, family) for family in "JYK" for r in (0.0, 1.0, 2.0) for alpha in (1.0, 2.0)]
    shared = [specfun.check_ibp_identity(g, (1.0, 4.0), *point) for point in grid]
    # g, g(y + 1e-6) and g(y - 1e-6) at the 256 nodes of 16 panels, once
    assert len(calls) == 3 * 16 * 16
    # a second weight function is sampled afresh and gives the same bits
    assert shared == [specfun.check_ibp_identity(_bump, (1.0, 4.0), *point) for point in grid]


def test_whittaker_shape_constant():
    params = [ArchimedeanParameter.holomorphic(4), ArchimedeanParameter.maass(2.0)]
    rep = specfun.fit_whittaker_shape(params, (0.2, 1.0, 3.0))
    assert rep["constant"] < 50.0
