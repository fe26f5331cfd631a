"""The test function phi_{A,B}(x) = i^{B-A} J_A(x) x^{-B} and its two Bessel
transforms, in closed form (exact rationals over pi) and by quadrature.

Both quadratures are `_quadrature`, the sum of kernel(y) J_A(y) y^(-B-1) over
16-node Gauss-Legendre panels, uniform in log y below 2 pi and 2 pi wide above.
The discrete ("dot") transform i^k int J_{k-1}(y) phi(y) dy/y has the kernel
J_{k-1}.  The continuous ("tilde") one needs J at imaginary order 2it:

    (i / 2 sinh(pi t)) int (J_{2it} - J_{-2it}) phi dy/y
        = - int Im J_{2it}(y) / sinh(pi t) * phi(y) dy/y ,

with the kernel Im J_{2it}(y)/sinh(pi t) from `specfun.y_pair_ratio`.  One
grid on [1e-3, 1e4] serves both; it, the kernels (per order or t) and the
powers y^(-B-1) are cached read-only and shared across (A, B), k and t.  Of
the grid's 26,016 nodes, 25,091 lie at y >= 150, where J_n is Hankel's
expansion (`specfun.hankel_pq`) on the one cos/sin pair of y - pi/4 that
every order turns by n quarter periods; scipy's `jv` gives the rest.  The
ratio kernel sends only y in [4, max(40, 2.5 t^2)) to its contour integral,
114 nodes at t <= 4.  What the grid drops
from the discrete transform is bounded by `dot_truncation_bound`: the head
with |J_nu(y)| <= (y/2)^nu / nu! (DLMF 10.14.4), the tail with Watson's
|J_nu(y)| <= sqrt(c_nu / y) beyond the cut.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .arithmetic import THETA
from .specfun import (even_weight, finite_order, gauss_legendre_panels, hankel_cut, hankel_pq,
                      quarter_phase, read_only, y_pair_ratio)


@dataclass(frozen=True)
class TestFunction:
    """phi_{A,B}.  The invariants 2 <= B < A and A = B mod 2 make it admissible
    for the pre-trace formula: phi vanishes to order A - B >= 2 at 0, and
    each derivative of J_A is O(x^(-1/2)), so phi^(j)(x) = O(x^(-5/2)) for
    every j."""

    A: int
    B: int

    def __post_init__(self):
        if not (2 <= self.B < self.A):
            raise ValueError(f"need 2 <= B < A, got A={self.A}, B={self.B}")
        if (self.A - self.B) % 2 != 0:
            raise ValueError(f"A and B must have the same parity, got A={self.A}, B={self.B}")

    @property
    def sign(self) -> int:
        """i^(B-A) as a real sign."""
        return -1 if (self.A - self.B) % 4 == 2 else 1


# -- closed forms: B!/(2^(B+1) pi) * prod_{j=0}^{B} factor_j^{-1} ------------

def _closed_product(tf: TestFunction, spectral_sq: Fraction) -> Fraction:
    """Coefficient of 1/pi: B!/2^(B+1) * prod ((A+B)/2 - j)^2 + spectral_sq)^{-1}.

    spectral_sq is t^2 for the continuous transform and -((k-1)/2)^2 for the
    discrete one; a vanishing factor raises (degenerate parameters).
    """
    coeff = Fraction(math.factorial(tf.B), 2 ** (tf.B + 1))
    half = Fraction(tf.A + tf.B, 2)
    for j in range(tf.B + 1):
        factor = (half - j) ** 2 + spectral_sq
        if factor == 0:
            raise ValueError("degenerate parameters: closed-form factor vanishes")
        coeff /= factor
    return coeff


def dot_transform_closed(tf: TestFunction, k: int) -> Fraction:
    """Exact coefficient c with transform value c/pi, at even k >= 2."""
    return _closed_product(tf, -Fraction(even_weight(k) - 1, 2) ** 2)


def dot_transform_closed_value(tf: TestFunction, k: int) -> float:
    return float(dot_transform_closed(tf, k)) / math.pi


def tilde_transform_closed_exact(tf: TestFunction, t_squared: Fraction) -> Fraction:
    """Exact coefficient of 1/pi at rational t^2 (negative t^2 = imaginary t)."""
    return _closed_product(tf, Fraction(t_squared))


def tilde_transform_closed(tf: TestFunction, t: float) -> float:
    """The exact coefficient at the float t, correctly rounded, over pi."""
    return float(_closed_product(tf, Fraction(finite_order(t)) ** 2)) / math.pi


def positivity_certificate(tf: TestFunction) -> dict:
    """Exact-rational positivity of both transforms on their stated ranges:
    the discrete one at even 2 <= k <= A - B, the continuous one at t = 0 and
    at t = i*THETA on the boundary of the allowed imaginary segment."""
    dot_values = {k: dot_transform_closed(tf, k) for k in range(2, tf.A - tf.B + 1, 2)}
    tilde_zero = tilde_transform_closed_exact(tf, Fraction(0))
    tilde_imag = tilde_transform_closed_exact(tf, -THETA * THETA)
    return {
        "A": tf.A,
        "B": tf.B,
        "dot_values": dot_values,
        "dot_all_positive": all(v > 0 for v in dot_values.values()),
        "tilde_at_zero": tilde_zero,
        "tilde_at_imag_boundary": tilde_imag,
        "tilde_positive": tilde_zero > 0 and tilde_imag > 0,
        "imag_boundary": THETA,
    }


# -- quadrature: one panel grid, one kernel array per order or t ------------

_Y_MIN = 1e-3
_Y_MAX = 1e4
_FAR = 150.0  # J_n by Hankel's expansion from here; within 1e-16 of scipy's jv above


@functools.cache
def _grid():
    """Node/weight grid for int_0^inf, cut to [_Y_MIN, _Y_MAX].  Imaginary-order
    Bessel factors oscillate like cos(2t log y) near 0, so below 2 pi the
    panels are uniform in log y (after substitution dy = y du); above, plain
    2 pi panels, on which the integrands (two Bessel factors, each of
    frequency 1) turn by at most 4 pi.  What the cuts drop from the discrete
    transform is bounded by `dot_truncation_bound`; the continuous one's
    kernel has no such bound yet."""
    u, wu = gauss_legendre_panels(math.log(_Y_MIN), math.log(2 * math.pi), 0.25)
    y_log = np.exp(u)
    y_lin, w_lin = gauss_legendre_panels(2 * math.pi, _Y_MAX, 2 * math.pi)
    return read_only(np.concatenate([y_log, y_lin]), np.concatenate([wu * y_log, w_lin]))


@functools.cache
def _far_phase():
    """The index of the grid's first node at y >= _FAR, and `quarter_phase`
    on the nodes from there: one cos/sin pair that every order turns."""
    y = _grid()[0]
    start = int(np.searchsorted(y, _FAR))
    return (start, *read_only(*quarter_phase(y[start:])))


@functools.cache
def _bessel_j_on_grid(order: int) -> np.ndarray:
    """J_order on the grid: scipy's `jv` below y = max(_FAR, hankel_cut(mu)),
    mu = 4 order^2, and Hankel's expansion above, sqrt(2/(pi y)) (P cos w -
    Q sin w) with w = y - pi/4 - order pi/2.  Turning by a quarter period
    maps (cos, sin) to (sin, -cos), so cos w and sin w are entries order and
    order + 1 (mod 4) of the table below, with no rounded phase."""
    y = _grid()[0]
    start, amp, cos_q, sin_q = _far_phase()
    mu = 4.0 * order * order
    i = max(start, int(np.searchsorted(y, hankel_cut(mu))))
    p, q = hankel_pq(mu, y[i:])
    turn = (cos_q, sin_q, -cos_q, -sin_q)
    j = i - start
    far = amp[j:] * (p * turn[order % 4][j:] - q * turn[(order + 1) % 4][j:])
    return read_only(np.concatenate([special.jv(order, y[:i]), far]))[0]


@functools.cache
def _power_on_grid(exponent: float) -> np.ndarray:
    return read_only(_grid()[0] ** exponent)[0]


@functools.cache
def _imj_ratio_on_grid(t: float) -> np.ndarray:
    return read_only(y_pair_ratio(t, _grid()[0]))[0]


def _quadrature(kernel: np.ndarray, tf: TestFunction) -> float:
    """int kernel(y) J_A(y) y^(-B-1) dy on the grid.  The sum is numpy's own
    reduction, not a BLAS dot product, so its order (and the result, to the
    last bit) does not depend on the BLAS thread count."""
    w = _grid()[1]
    return float((w * (kernel * _bessel_j_on_grid(tf.A) * _power_on_grid(-tf.B - 1.0))).sum())


def dot_transform_quadrature(tf: TestFunction, k: int) -> float:
    """i^k int_0^inf J_{k-1}(y) phi(y) dy / y by panel quadrature."""
    sign = (-1) ** (even_weight(k) // 2) * tf.sign
    return sign * _quadrature(_bessel_j_on_grid(k - 1), tf)


def dot_truncation_bound(tf: TestFunction, k: int) -> float:
    """Bound on |int J_{k-1} J_A y^(-B-1) dy| over the two pieces the grid
    drops.  Tail [Y, inf), Y = _Y_MAX: y (J_nu^2 + Y_nu^2)(y) decreases in y
    for nu > 1/2 (Watson 13.74, DLMF 10.18), and k >= 2, A >= 4 keep both
    orders at least 1, so |J_nu(y)| <= sqrt(c_nu / y) with
    c_nu = Y (J_nu(Y)^2 + Y_nu(Y)^2), and the tail is at most
    sqrt(c_{k-1} c_A) Y^(-B-1) / (B+1).  Head [0, h], h = _Y_MIN:
    |J_nu(y)| <= (y/2)^nu / nu! (DLMF 10.14.4), so the head is at most
    h^p / (2^(k-1+A) (k-1)! A! p) with p = k - 1 + A - B."""
    nu, y_max = even_weight(k) - 1, _Y_MAX
    c_nu, c_a = (y_max * (special.jv(n, y_max) ** 2 + special.yv(n, y_max) ** 2)
                 for n in (nu, tf.A))
    tail = math.sqrt(c_nu * c_a) * y_max ** (-tf.B - 1.0) / (tf.B + 1)
    p = nu + tf.A - tf.B
    head = _Y_MIN ** p / (2 ** (nu + tf.A) * math.factorial(nu) * math.factorial(tf.A) * p)
    return tail + head


def tilde_transform_quadrature(tf: TestFunction, t: float) -> float:
    """(i / 2 sinh(pi t)) int (J_{2it}(y) - J_{-2it}(y)) phi(y) dy / y, with the
    t = 0 value defined by the continuous limit."""
    return -tf.sign * _quadrature(_imj_ratio_on_grid(finite_order(t)), tf)
