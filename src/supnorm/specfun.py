"""Bessel kernels of integer and purely imaginary order, Whittaker weights,
and numerical checkers for the inequalities they satisfy.

Real orders go through scipy.special.  Purely imaginary orders go through two
evaluators over numpy arrays of y, each a real integral on a shifted contour,
summed on fixed 16-node Gauss-Legendre panels:

    y_pair_ratio(t, y)  = Im J_{2it}(y) / sinh(pi t)
                        = (Y_{2it}(y) + Y_{-2it}(y)) / (2 cosh(pi t))
                        = -(2/pi) int_0^inf cos(y cosh u) cos(2tu) du      (DLMF 10.9.8-9)
    k_imag_scaled(t, y) = cosh(pi t/2) K_{it}(y)
                        = cosh(pi t/2) int_0^inf exp(-y cosh u) cos(tu) du  (DLMF 10.32.9)

Moving the contour to Im u = theta turns the oscillation in u into decay while
keeping the cancellation between exponentially large terms bounded, so both
stay accurate in double precision at every |t|; the ratio switches to the
Hankel expansion at large y.  Each band [4^k, 4^(k+1)) of y gets its own
nodes (`_radial_nodes`); the ratio takes two cosines per node, and each row
is numpy's own sum, so no value depends on the block size or the BLAS.  Every
other imaginary-order function here is a scalar wrapper around these two, in
float64 throughout; their independent oracles are in the tests.

Every integral in the package is summed on the one 16-node Gauss-Legendre
rule, built here on first use (`gauss_legendre_nodes`, and
`gauss_legendre_panels` for equal panels).  `check_ibp_identity` integrates
both sides of the one-step integration-by-parts identity for J, Y and K on
16 equal panels over the support of the smooth weight, whose derivative it
takes by central differences.  Every "<<" inequality is tested with a single
fitted calibration constant which the caller (and the test suite) pins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .arithmetic import ResourceLimitError


# ---------------------------------------------------------------------------
# archimedean parameter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchimedeanParameter:
    kind: str  # "holomorphic" | "maass"
    k: int | None = None
    t: float | None = None

    @classmethod
    def holomorphic(cls, k: int) -> "ArchimedeanParameter":
        if k < 2 or k % 2 != 0:
            raise ValueError(f"holomorphic weight must be an even integer >= 2, got {k}")
        return cls(kind="holomorphic", k=k, t=(k - 1) / 2)

    @classmethod
    def maass(cls, t: float) -> "ArchimedeanParameter":
        return cls(kind="maass", t=float(t))

    @property
    def t_star(self) -> float:
        return 1.0 + abs(self.t)


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def bessel_j(order, y: float) -> float:
    if not (math.isfinite(order) and math.isfinite(y)):
        raise ValueError(f"order and argument must be finite, got {order}, {y}")
    if y <= 0:
        raise ValueError(f"argument must be positive, got {y}")
    return float(special.jv(order, y))


# -- imaginary orders: contour integrals on Gauss-Legendre panels -----------

_PANEL_PHASE = 12.0  # radians per 16-node panel; 16 nodes integrate 16 rad to 1e-15
_DECAY = 40.0        # integrands are cut where their envelope is below e^-40
_BLOCK = 2 ** 17     # (y x node) elements per block, which bounds peak memory
_HANKEL_CUT = 150.0  # the ratio uses the Hankel expansion for y >= max(150, 1.5 t^2)
_MAX_PANELS = 2 ** 17  # radial panels; |t| = 1e4 needs about 1.1e5 at y = 1e-3


@functools.cache
def _gauss_legendre_rule():
    """The 16-node rule on [-1, 1], built on first use: `leggauss` is a
    process's first LAPACK call, which a process that never integrates
    should not pay for."""
    return np.polynomial.legendre.leggauss(16)


def gauss_legendre_nodes(edges):
    """16-point Gauss-Legendre nodes and weights on the panels between
    consecutive entries of `edges`."""
    x, w = _gauss_legendre_rule()
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = (hi - lo) / 2
    return ((lo + hi) / 2 + half * x).ravel(), (half * w).ravel()


def gauss_legendre_panels(lo: float, hi: float, length: float):
    """`gauss_legendre_nodes` on the fewest equal panels of [lo, hi] no longer
    than `length`.  Raises ResourceLimitError past _MAX_PANELS panels, a
    non-finite count included, before any node array is built."""
    panels = (hi - lo) / length
    if not panels <= _MAX_PANELS:
        raise ResourceLimitError(f"{panels:.3g} panels on [{lo:g}, {hi:g}] exceed cap {_MAX_PANELS}")
    return gauss_legendre_nodes(np.linspace(lo, hi, math.ceil(panels) + 1))


def _radial_nodes(omega: float, p_min: float, p_max: float):
    """Panels on [0, p_max] in p = y sinh v, for integrands bounded by 1 that
    oscillate like cos(omega asinh(p/y)) plus at most unit frequency in p and
    whose only singularities are at p = +-iy with y >= 4 p_min.  A panel at p
    is min(p, _PANEL_PHASE p / (omega + 2p)) wide: geometric where the
    log-oscillation dominates, uniform beyond.  The first, from 0, has the
    rate bound omega/(4 p_min) + 2 in place of omega/p + 2.  Neither rule can
    overflow.  Raises past _MAX_PANELS panels, before any node array is built."""
    edges = [0.0, min(p_min, _PANEL_PHASE * 4 * p_min / (omega + 8 * p_min))]
    while edges[-1] < p_max:
        if len(edges) > _MAX_PANELS:
            raise ValueError(f"frequency {omega:g} needs more than {_MAX_PANELS} panels")
        p = edges[-1]
        edges.append(p + min(p, _PANEL_PHASE * p / (omega + 2 * p)))
    return gauss_legendre_nodes(edges)


def _bands(y: np.ndarray):
    """Indices of y in each band [4^k, 4^(k+1)) that holds any, lowest first."""
    band = (np.frexp(y)[1] - 1) >> 1
    return (np.flatnonzero(band == k) for k in np.unique(band))


def read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read-only, as every cache of arrays hands them out."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _row_blocks(n_rows: int, n_nodes: int):
    step = max(1, _BLOCK // n_nodes)
    return (slice(i, i + step) for i in range(0, n_rows, step))


def _positive_array(y) -> np.ndarray:
    y = np.asarray(y, dtype=float).reshape(-1)
    bad = ~((y > 0) & (y < math.inf))
    if bad.any():
        v = y[bad][0]
        raise ValueError(f"argument must be {'finite' if v > 0 else 'positive'}, got {v}")
    return y


def _ratio_hankel(t: float, y: np.ndarray) -> np.ndarray:
    """Hankel's large-argument expansion of the ratio.  The P and Q series of
    Y_{+-2it} depend on the order only through mu = 4 (2it)^2 = -16 t^2, so the
    pair is sqrt(2/(pi y)) (P sin(y - pi/4) + Q cos(y - pi/4)) in real arithmetic."""
    mu = -16.0 * t * t
    p = np.ones_like(y)
    q = np.zeros_like(y)
    term = np.ones_like(y)
    for k in range(1, 25):
        term = term * (mu - (2 * k - 1) ** 2) / (8 * k * y)
        if k % 2:
            q += (-1) ** ((k - 1) // 2) * term
        else:
            p += (-1) ** (k // 2) * term
    chi = y - math.pi / 4
    return np.sqrt(2 / (math.pi * y)) * (p * np.sin(chi) + q * np.cos(chi))


def _ratio_contour(t: float, y: np.ndarray) -> np.ndarray:
    """-(2/pi) Re int e^{iy cosh u} cos(2tu) du over 0 -> i theta -> i theta + inf,
    theta = min(pi/2, 1/t), so |cos(2tu)| <= cosh(2 t theta) <= cosh 2.  The
    vertical leg contributes -int_0^theta sin(y cos s) cosh(2ts) ds; the
    horizontal one, in p = y sinh v, decays like e^{-p sin theta}; with
    r = y cosh v, a = r cos theta and phi = 2tv its integrand is
    (e^{2t theta} cos(a - phi) + e^{-2t theta} cos(a + phi)) / 2r.  As
    y < max(150, 1.5 t^2) and `_radial_nodes` raises past t ~ 1e5, y^2 + p^2
    cannot overflow; bands below y = 1e-150 take `np.hypot`."""
    theta = math.pi / 2 if t <= 2 / math.pi else 1 / t
    cos_th, sin_th = math.cos(theta), math.sin(theta)
    grow, shrink = math.exp(2 * t * theta) / 2, math.exp(-2 * t * theta) / 2
    out = np.empty_like(y)
    for band in _bands(y):
        yb = y[band]
        p, wp = _radial_nodes(2 * t, yb.min() / 4, _DECAY / sin_th)
        n_vert = math.ceil((yb.max() * (1 - cos_th) + 2 * t * theta) / _PANEL_PHASE)
        s, ws = gauss_legendre_nodes(np.linspace(0.0, theta, n_vert + 1))
        cos_s, vertical = np.cos(s), np.cosh(2 * t * s) * ws
        p_sq, envelope = p * p, np.exp(-p * sin_th) * wp
        tiny = yb.min() < 1e-150  # where y^2 would underflow
        for blk in _row_blocks(len(yb), len(s) + len(p)):
            yy = yb[blk, None]
            r = np.hypot(yy, p) if tiny else np.sqrt(yy * yy + p_sq)
            a, phase = r * cos_th, 2 * t * np.arcsinh(p / yy)
            horizontal = (grow * np.cos(a - phase) + shrink * np.cos(a + phase)) / r
            out[band[blk]] = (2 / math.pi) * ((np.sin(yy * cos_s) * vertical).sum(axis=1)
                                              - (horizontal * envelope).sum(axis=1))
    return out


def y_pair_ratio(t: float, y) -> np.ndarray:
    """Im J_{2it}(y) / sinh(pi t) = (Y_{2it}(y) + Y_{-2it}(y)) / (2 cosh(pi t))
    over a 1-d array of y > 0; real, even in t, and Y_0(y) at t = 0.  Contour
    integral below y = max(150, 1.5 t^2), Hankel expansion above."""
    t = abs(float(t))
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    y = _positive_array(y)
    out = np.empty_like(y)
    far = y >= max(_HANKEL_CUT, 1.5 * t * t)
    out[far] = _ratio_hankel(t, y[far])
    if not far.all():
        out[~far] = _ratio_contour(t, y[~far])
    return out


def k_imag_scaled(t: float, y) -> np.ndarray:
    """cosh(pi t/2) K_{it}(y) over a 1-d array of y > 0; real and even in t.

    K_{it}(y) = Re int e^{-y cosh u + itu} du along Im u = theta (the vertical
    leg is purely imaginary), at the saddle height theta = asin(t/y) when y > t,
    capped at pi/2 - 1/t (and at 0 when that is negative) so the decay rate
    y cos theta stays positive.  The factor exp(-y cos theta - t theta) is
    carried in the log domain, so K stays relatively accurate where it is e^-300."""
    t = abs(float(t))
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    y = _positive_array(y)
    cap = math.pi / 2 - 1 / t if t > 2 / math.pi else 0.0
    theta = np.minimum(np.arcsin(np.minimum(1.0, t / y)), cap)
    cos_th, sin_th = np.cos(theta), np.sin(theta)
    log_cosh = math.pi * t / 2 + math.log1p(math.exp(-math.pi * t)) - math.log(2)
    scale = np.exp(log_cosh - y * cos_th - t * theta)
    out = np.zeros_like(y)
    live = np.flatnonzero(scale)  # where the factor underflows, K is 0 whatever the integral
    for band in _bands(y[live]):
        rows = live[band]
        # e^{-cos theta (R - y)} falls to e^-_DECAY at R = y + _DECAY / cos theta
        reach = _DECAY / cos_th[rows]
        p_max = float(np.max(np.sqrt(reach * (2 * y[rows] + reach))))
        p, wp = _radial_nodes(t, y[rows].min() / 4, p_max)
        for blk in _row_blocks(len(rows), len(p)):
            i = rows[blk]
            yy, cc, ss = y[i, None], cos_th[i, None], sin_th[i, None]
            r = np.hypot(yy, p)  # y^2 + p^2 would underflow at tiny y
            f = np.exp(-cc * p * p / (r + yy)) * np.cos(t * np.arcsinh(p / yy) - p * ss) / r
            out[i] = scale[i] * (f * wp).sum(axis=1)
    return out


def bessel_k_imag(t: float, y: float) -> float:
    """cosh(pi t / 2) * K_{it}(y) -- real for real t, even in t."""
    return float(k_imag_scaled(t, [y])[0])


def bessel_y_imag_pair(t: float, y: float) -> float:
    """Y_{2it}(y) + Y_{-2it}(y); real and even in t by conjugate symmetry.
    Raises ValueError where the pair itself overflows float64."""
    ratio = 2 * float(y_pair_ratio(t, [y])[0])
    try:
        value = ratio * math.cosh(math.pi * t)
    except OverflowError:
        # cosh(pi t) passes 2^1024 at |t| ~ 226, a little before the pair.  There
        # cosh x = 2 cosh(x/2)^2 - 1 with the -1 below one ulp; past |t| ~ 452
        # cosh(pi t/2) overflows too, and so does the pair.
        c = math.cosh(math.pi * t / 2) if abs(t) < 450 else math.inf
        value = ratio * c * (2 * c)
    if not math.isfinite(value):
        raise ValueError(f"the Y pair overflows float64 at t = {t}")
    return value


def whittaker_weight(param: ArchimedeanParameter, y: float) -> float:
    if not 0 < y < math.inf:
        raise ValueError(f"argument must be {'finite' if y > 0 else 'positive'}, got {y}")
    if param.kind == "holomorphic":
        k = param.k
        # log-domain: Gamma(k)^{-1/2} (4 pi y)^{k/2} e^{-2 pi y}
        logval = -0.5 * math.lgamma(k) + 0.5 * k * math.log(4 * math.pi * y) - 2 * math.pi * y
        return math.exp(logval)
    return math.sqrt(y) * bessel_k_imag(param.t, 2 * math.pi * y)


def voronoi_kernel_values(param: ArchimedeanParameter, sign: str, w) -> np.ndarray:
    """The plus/minus Voronoi kernel at w = 4 pi y, over a 1-d array of w > 0."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    w = _positive_array(w)
    if param.kind == "holomorphic":
        if sign == "-":
            return np.zeros_like(w)
        return 2 * math.pi * special.jv(param.k - 1, w)
    if sign == "+":
        # pi / cosh(pi t) * (Y_{2it} + Y_{-2it})
        return 2 * math.pi * y_pair_ratio(param.t, w)
    # 4 cosh(pi t) K_{2it}(w); note cosh(pi (2t) / 2) = cosh(pi t)
    return 4.0 * k_imag_scaled(2 * param.t, w)


def voronoi_kernel(param: ArchimedeanParameter, sign: str, y: float) -> float:
    if y <= 0:
        raise ValueError(f"argument must be positive, got {y}")
    return float(voronoi_kernel_values(param, sign, [4 * math.pi * y])[0])


# ---------------------------------------------------------------------------
# inequality / identity checkers
# ---------------------------------------------------------------------------

def check_derivative_recurrences(order: float, y_grid) -> dict:
    """Central finite differences (step 1e-5) of J_r and K_r against
    J_r' = (J_{r-1} - J_{r+1})/2 and K_r' = -(K_{r-1} + K_{r+1})/2."""
    worst_j = 0.0
    worst_k = 0.0
    r = float(order)
    h = 1e-5
    for y in y_grid:
        fd_j = (special.jv(r, y + h) - special.jv(r, y - h)) / (2 * h)
        rec_j = 0.5 * (special.jv(r - 1, y) - special.jv(r + 1, y))
        worst_j = max(worst_j, abs(fd_j - rec_j))
        if r >= 0:
            fd_k = (special.kv(r, y + h) - special.kv(r, y - h)) / (2 * h)
            rec_k = -0.5 * (special.kv(r - 1, y) + special.kv(r + 1, y))
            worst_k = max(worst_k, abs(fd_k - rec_k))
    return {"order": r, "max_discrepancy_J": worst_j, "max_discrepancy_K": worst_k}


# correct sign column for the one-integration-by-parts identity; J and Y carry a
# minus, K a plus (verified against direct quadrature)
_IBP_SIGN = {"J": -1.0, "Y": -1.0, "K": 1.0}
_FAMILY = {"J": special.jv, "Y": special.yv, "K": special.kv}
_IBP_PANELS = 16


@functools.lru_cache(maxsize=8)
def _ibp_samples(g, a: float, b: float, panels: int):
    """Weights, sqrt of the nodes, g and its central difference (step 1e-6) on
    `panels` equal panels of [a, b], shared by every check of one pure g."""
    y, w = gauss_legendre_panels(a, b, (b - a) / panels)
    return read_only(w, np.sqrt(y), np.array([g(v) for v in y]),
                     np.array([(g(v + 1e-6) - g(v - 1e-6)) / 2e-6 for v in y]))


def check_ibp_identity(g, g_support: tuple[float, float], r: float, alpha: float,
                       family: str) -> dict:
    """Both sides of
        int g(y) B_r(alpha sqrt(y)) dy
          = sign * (2/alpha) int (g'(y) sqrt(y) - (r/2) g(y)/sqrt(y)) B_{r+1}(alpha sqrt(y)) dy
    on _IBP_PANELS equal Gauss-Legendre panels over the support of the smooth
    scalar function g, sign = -1 for B in {J, Y} and +1 for K, with g' by
    central differences of step 1e-6.  The `rel_error` is the check's own
    resolution, not the identity's error: the central difference shifts the
    rhs by up to about 7.6e-10 relative and the 16-panel rule on the rhs errs
    by up to about 2.2e-9, so on the `verify` sweep it reads about 1.1e-9."""
    if family not in _FAMILY:
        raise ValueError(f"family must be J, Y or K, got {family!r}")
    bes = _FAMILY[family]
    w, root, gy, dg = _ibp_samples(g, *g_support, _IBP_PANELS)
    lhs = float((w * gy * bes(r, alpha * root)).sum())
    rhs = float((w * (dg * root - r / 2 * gy / root) * bes(r + 1, alpha * root)).sum())
    rhs *= _IBP_SIGN[family] * 2 / alpha
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return {"lhs": lhs, "rhs": rhs, "rel_error": abs(lhs - rhs) / scale}


def _fit_shape(params, y_grid, value, bound) -> dict:
    """The largest |value(a, y)| / bound(a, y) over a in `params` and y on the
    grid, and the (a, y) that attains it."""
    y = np.asarray(list(y_grid), dtype=float)
    worst, worst_at = -math.inf, None
    for a in params:
        ratios = np.abs(value(a, y)) / bound(a, y)
        i = int(np.argmax(ratios))
        if ratios[i] > worst:
            worst, worst_at = float(ratios[i]), (a, float(y[i]))
    return {"constant": worst, "worst_point": worst_at}


def check_kbessel_transition_bound(t: float, w_grid) -> dict:
    """cosh(pi t/2) K_{it}(w) against min(t^{-1/3}, |w^2 - t^2|^{-1/4}), t >= 2."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    with np.errstate(divide="ignore"):  # w = t is on the grid
        fit = _fit_shape([t], w_grid, k_imag_scaled,
                         lambda t, w: np.minimum(t ** (-1 / 3), np.abs(w * w - t * t) ** -0.25))
    return {"t": t, "constant": fit["constant"], "worst_w": fit["worst_point"][1]}


def fit_bessel_j_shape(orders, y_grid) -> dict:
    """Fitted constant for |J_k(y)| <= C (1+k) / (1+sqrt(y))."""
    return _fit_shape(orders, y_grid, special.jv, lambda k, y: (1 + k) / (1 + np.sqrt(y)))


def fit_bessel_k_shape(ts, y_grid) -> dict:
    """Fitted constant for cosh(pi t/2)|K_{it}(y)| <= C ((1+t)/y)^eps (1 + y/(1+t))^{-A},
    eps = 0.1 and A = 3."""
    return _fit_shape(ts, y_grid, k_imag_scaled,
                      lambda t, y: ((1 + t) / y) ** 0.1 * (1 + y / (1 + t)) ** -3.0)


def fit_whittaker_shape(params, y_factors) -> dict:
    """Fitted constant for |W^{(j)}(y)| <= C (t*)^{1/2} (t*/y)^{j+eps} (1+y/t*)^{-A},
    eps = 0.1 and A = 3, at j = 0, 1, 2 by central finite differences."""
    worst = 0.0
    worst_at = None
    for param in params:
        ts = param.t_star
        for fac in y_factors:
            y = fac * ts
            h = max(1e-4 * y, 1e-6)
            lo, mid, hi = (whittaker_weight(param, v) for v in (y - h, y, y + h))
            derivatives = (mid, (hi - lo) / (2 * h), (hi - 2 * mid + lo) / (h * h))
            for j, d in enumerate(derivatives):
                bound = math.sqrt(ts) * (ts / y) ** (j + 0.1) * (1 + y / ts) ** -3.0
                ratio = abs(d) / bound
                if ratio > worst:
                    worst, worst_at = ratio, (param.kind, param.k or param.t, fac, j)
    return {"constant": worst, "worst_point": worst_at}
