"""The test function phi_{A,B}(x) = i^{B-A} J_A(x) x^{-B} and its two Bessel
transforms, in closed form (exact rationals over pi) and by quadrature.

Both quadratures sum over one node grid each: 16-node Gauss-Legendre panels,
uniform in log y below 2 pi and 2 pi wide above.  The discrete ("dot")
transform i^k int J_{k-1}(y) phi(y) dy/y is a plain oscillatory integral.
The continuous ("tilde") transform needs J at purely imaginary order 2it; we
take

    (i / 2 sinh(pi t)) int (J_{2it} - J_{-2it}) phi dy/y
        = - int Im J_{2it}(y) / sinh(pi t) * phi(y) dy/y ,

with the ratio Im J_{2it}(y)/sinh(pi t) from `specfun.y_pair_ratio`.  The
ratio only depends on t, so it is cached on the node grid and reused across
(A, B).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy import special

from .specfun import gauss_legendre_nodes, y_pair_ratio


@dataclass(frozen=True)
class TestFunction:
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


def phi_eval(tf: TestFunction, x: float) -> float:
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    return tf.sign * float(special.jv(tf.A, x)) * x ** (-tf.B)


# ---------------------------------------------------------------------------
# closed forms: B!/(2^(B+1) pi) * prod_{j=0}^{B} factor_j^{-1}
# ---------------------------------------------------------------------------

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
    coeff = 1.0
    half = (tf.A + tf.B) / 2
    for j in range(tf.B + 1):
        coeff /= (half - j) ** 2 + t * t
    return math.factorial(tf.B) / 2 ** (tf.B + 1) / math.pi * coeff


def positivity_certificate(tf: TestFunction, tau: Fraction = Fraction(7, 64)) -> dict:
    """Exact-rational positivity of both transforms on their stated ranges:
    the discrete one at even 2 <= k <= A - B, the continuous one at t = 0 and
    at t = i*tau on the boundary of the allowed imaginary segment."""
    dot_values = {k: dot_transform_closed(tf, k) for k in range(2, tf.A - tf.B + 1, 2)}
    tilde_zero = tilde_transform_closed_exact(tf, Fraction(0))
    tilde_imag = tilde_transform_closed_exact(tf, -tau * tau)
    return {
        "A": tf.A,
        "B": tf.B,
        "dot_values": dot_values,
        "dot_all_positive": all(v > 0 for v in dot_values.values()),
        "tilde_at_zero": tilde_zero,
        "tilde_at_imag_boundary": tilde_imag,
        "tilde_positive": tilde_zero > 0 and tilde_imag > 0,
        "imag_boundary": tau,
    }


# ---------------------------------------------------------------------------
# quadrature: shared Gauss-Legendre panel grids
# ---------------------------------------------------------------------------

def _gl_panels(lo: float, hi: float, length: float):
    return gauss_legendre_nodes(np.linspace(lo, hi, math.ceil((hi - lo) / length) + 1))


def _panel_nodes(y_max: float, y_min: float = 1e-3, split: float = 2 * math.pi):
    """Node/weight grid for int_0^inf.  Imaginary-order Bessel factors oscillate
    like cos(2t log y) near 0, so below `split` the panels are uniform in log y
    (after substitution dy = y du); above, plain 2 pi panels, on which the
    integrands (two Bessel factors, each of frequency 1) turn by at most 4 pi.
    Contributions below y_min are under 1e-18 for every shipped test function
    and dropped."""
    u, wu = _gl_panels(math.log(y_min), math.log(split), 0.25)
    y_log = np.exp(u)
    y_lin, w_lin = _gl_panels(split, y_max, 2 * math.pi)
    return np.concatenate([y_log, y_lin]), np.concatenate([wu * y_log, w_lin])


_DOT_YMAX = 5e4
_TILDE_YMAX = 1e4


@functools.cache
def _dot_grid():
    return _panel_nodes(_DOT_YMAX)


@functools.cache
def _tilde_grid():
    return _panel_nodes(_TILDE_YMAX)


def dot_transform_quadrature(tf: TestFunction, k: int) -> float:
    """i^k int_0^inf J_{k-1}(y) phi(y) dy / y by panel quadrature."""
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
    y, w = _dot_grid()
    integrand = special.jv(k - 1, y) * special.jv(tf.A, y) * y ** (-tf.B - 1.0)
    sign = (-1) ** (k // 2) * tf.sign
    return sign * float(np.dot(w, integrand))


# -- Im J_{2it}(y) / sinh(pi t), cached per t on the tilde grid --------------

@functools.cache
def _imj_ratio_on_grid(t: float) -> np.ndarray:
    return y_pair_ratio(t, _tilde_grid()[0])


def tilde_transform_quadrature(tf: TestFunction, t: float) -> float:
    """(i / 2 sinh(pi t)) int (J_{2it}(y) - J_{-2it}(y)) phi(y) dy / y, with the
    t = 0 value defined by the continuous limit."""
    t = abs(float(t))
    y, w = _tilde_grid()
    ratio = _imj_ratio_on_grid(t)
    integrand = ratio * special.jv(tf.A, y) * y ** (-tf.B - 1.0)
    return -tf.sign * float(np.dot(w, integrand))


# ---------------------------------------------------------------------------
# admissibility of the shipped family as an archimedean test function
# ---------------------------------------------------------------------------

def decay_admissibility(tf: TestFunction, y_max: float = 200.0, n: int = 4000,
                        eps: float = 0.1) -> dict:
    """phi(0) = phi'(0) = 0 and |phi^(j)(y)| <= C (1+y)^(-2-eps) for j <= 3,
    derivatives by central finite differences on a uniform grid."""
    y = np.linspace(y_max / n, y_max, n)
    h = 1e-4
    stencil = np.array([phi_eval_vec(tf, y + i * h) for i in range(-2, 3)])
    derivs = [
        stencil[2],
        (stencil[3] - stencil[1]) / (2 * h),
        (stencil[3] - 2 * stencil[2] + stencil[1]) / h ** 2,
        (stencil[4] - 2 * stencil[3] + 2 * stencil[1] - stencil[0]) / (2 * h ** 3),
    ]
    envelope = (1 + y) ** (-2 - eps)
    constants = [float(np.max(np.abs(d) / envelope)) for d in derivs]
    # order of vanishing at 0: phi ~ x^(A-B), so A - B >= 2 gives phi(0)=phi'(0)=0
    x0 = 1e-4
    h0 = x0 / 2
    return {
        "vanishing_order_ok": tf.A - tf.B >= 2,
        "phi_near_zero": phi_eval(tf, x0),
        "phi_prime_near_zero": (phi_eval(tf, x0 + h0) - phi_eval(tf, x0 - h0)) / (2 * h0),
        "derivative_constants": constants,
        "constant": max(constants),
        "eps": eps,
    }


def phi_eval_vec(tf: TestFunction, x: np.ndarray) -> np.ndarray:
    return tf.sign * special.jv(tf.A, x) * np.asarray(x, dtype=float) ** (-tf.B)
