"""The test function phi_{A,B}(x) = i^{B-A} J_A(x) x^{-B} and its two Bessel
transforms, in closed form (exact rationals over pi) and by quadrature.

Both quadratures are `_quadrature`, the sum of kernel(y) J_A(y) y^(-B-1) over
16-node Gauss-Legendre panels, uniform in log y below 2 pi and 2 pi wide above.
The discrete ("dot") transform i^k int J_{k-1}(y) phi(y) dy/y has the kernel
J_{k-1}.  The continuous ("tilde") one needs J at imaginary order 2it:

    (i / 2 sinh(pi t)) int (J_{2it} - J_{-2it}) phi dy/y
        = - int Im J_{2it}(y) / sinh(pi t) * phi(y) dy/y ,

with the kernel Im J_{2it}(y)/sinh(pi t) from `specfun.y_pair_ratio`.  Grids
(per y_max) and kernels (per order or t) are cached read-only and shared
across (A, B) and k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .arithmetic import THETA
from .specfun import gauss_legendre_nodes, y_pair_ratio


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
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    return _closed_product(tf, -Fraction(k - 1, 2) ** 2)


def dot_transform_closed_value(tf: TestFunction, k: int) -> float:
    return float(dot_transform_closed(tf, k)) / math.pi


def tilde_transform_closed_exact(tf: TestFunction, t_squared: Fraction) -> Fraction:
    """Exact coefficient of 1/pi at rational t^2 (negative t^2 = imaginary t)."""
    return _closed_product(tf, Fraction(t_squared))


def tilde_transform_closed(tf: TestFunction, t: float) -> float:
    """The exact coefficient at the float t, correctly rounded, over pi."""
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    return float(_closed_product(tf, Fraction(t) ** 2)) / math.pi


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


# -- quadrature: one panel grid per y_max, one kernel array per order or t --

_DOT_YMAX = 5e4
_TILDE_YMAX = 1e4


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _gl_panels(lo: float, hi: float, length: float):
    return gauss_legendre_nodes(np.linspace(lo, hi, math.ceil((hi - lo) / length) + 1))


@functools.cache
def _grid(y_max: float, y_min: float = 1e-3, split: float = 2 * math.pi):
    """Node/weight grid for int_0^inf.  Imaginary-order Bessel factors oscillate
    like cos(2t log y) near 0, so below `split` the panels are uniform in log y
    (after substitution dy = y du); above, plain 2 pi panels, on which the
    integrands (two Bessel factors, each of frequency 1) turn by at most 4 pi.
    Contributions below y_min are under 1e-18 for every shipped test function
    and dropped."""
    u, wu = _gl_panels(math.log(y_min), math.log(split), 0.25)
    y_log = np.exp(u)
    y_lin, w_lin = _gl_panels(split, y_max, 2 * math.pi)
    return (_read_only(np.concatenate([y_log, y_lin])),
            _read_only(np.concatenate([wu * y_log, w_lin])))


@functools.cache
def _bessel_j_on_grid(order: int, y_max: float) -> np.ndarray:
    return _read_only(special.jv(order, _grid(y_max)[0]))


@functools.cache
def _imj_ratio_on_grid(t: float) -> np.ndarray:
    return _read_only(y_pair_ratio(t, _grid(_TILDE_YMAX)[0]))


def _quadrature(y_max: float, kernel: np.ndarray, tf: TestFunction) -> float:
    """int_0^y_max kernel(y) J_A(y) y^(-B-1) dy on the grid to y_max."""
    y, w = _grid(y_max)
    return float(np.dot(w, kernel * _bessel_j_on_grid(tf.A, y_max) * y ** (-tf.B - 1.0)))


def dot_transform_quadrature(tf: TestFunction, k: int) -> float:
    """i^k int_0^inf J_{k-1}(y) phi(y) dy / y by panel quadrature."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    sign = (-1) ** (k // 2) * tf.sign
    return sign * _quadrature(_DOT_YMAX, _bessel_j_on_grid(k - 1, _DOT_YMAX), tf)


def tilde_transform_quadrature(tf: TestFunction, t: float) -> float:
    """(i / 2 sinh(pi t)) int (J_{2it}(y) - J_{-2it}(y)) phi(y) dy / y, with the
    t = 0 value defined by the continuous limit."""
    return -tf.sign * _quadrature(_TILDE_YMAX, _imj_ratio_on_grid(abs(float(t))), tf)
