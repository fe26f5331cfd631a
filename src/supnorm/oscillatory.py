"""Smooth cutoffs and the oscillatory-sum/integral estimates built on them:
plateau windows on [Z/2, 2Z] with derivative scale T, an exact dyadic partition
of unity, exponential-sum decay under Poisson summation, and kernel integrals
against the plus/minus Bessel kernels.

The kernels come from `specfun.voronoi_kernel_values`, which evaluates the
imaginary-order Bessel functions of a Maass form over a whole node array at
once in float64.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import ResourceLimitError
from .specfun import (ArchimedeanParameter, gauss_legendre_panels, read_only,
                      voronoi_kernel_values)


# ---------------------------------------------------------------------------
# smooth windows
# ---------------------------------------------------------------------------

def _bump_edge(v):
    """C-infinity step: 0 for v <= 0, 1 for v >= 1, exp(-1/v) transition."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    out[v >= 1] = 1.0
    mid = (v > 0) & (v < 1)
    vm = v[mid]
    a = np.exp(-1.0 / vm)
    b = np.exp(-1.0 / (1.0 - vm))
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class SmoothWindow:
    """Plateau window supported on [Z/2, 2Z], ramping over length T at each end,
    so the j-th derivative is O(T^-j)."""

    Z: float
    T: float

    def __post_init__(self):
        if not 1 <= self.Z < math.inf:
            raise ValueError(f"need finite Z >= 1, got {self.Z}")
        if not 1 <= self.T <= self.Z:
            raise ValueError(f"need 1 <= T <= Z, got T={self.T}, Z={self.Z}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        val = _bump_edge((x - self.Z / 2) / self.T) * _bump_edge((2 * self.Z - x) / self.T)
        return val if val.ndim else float(val)

    @property
    def support(self) -> tuple[float, float]:
        return (self.Z / 2, 2 * self.Z)


class DyadicPartition:
    """G(x) = psi(x) / sum_k psi(x / 2^k) with psi a log-scale bump on [1/2, 2];
    by construction sum over dyadic levels Z = 2^nu of G(x/Z) is exactly 1 for x >= 1."""

    @staticmethod
    def bump(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        ok = x > 0
        u = np.zeros_like(x)
        u[ok] = np.log2(x[ok])
        inside = ok & (np.abs(u) < 1)
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        num = self.bump(x)
        den = np.zeros_like(num)
        # psi(x/2^k) is nonzero only for k within 1 of log2(x)
        base = np.where(x > 0, np.log2(np.maximum(x, 1e-300)), 0.0)
        for k_off in (-1, 0, 1):
            k = np.floor(base).astype(int) + k_off
            den += self.bump(x / np.exp2(k))
        out = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
        return out if out.ndim else float(out)

    def partition_check(self, x_grid) -> dict:
        """The deviation of sum_{nu < 64} G(x / 2^nu) from 1 over x_grid."""
        x = np.asarray(x_grid, dtype=float)
        if np.any(x < 1):
            raise ValueError("partition identity is asserted for x >= 1 only")
        total = np.zeros_like(x)
        for nu in range(64):
            total += self(x / 2.0 ** nu)
        worst = float(np.max(np.abs(total - 1.0)))
        return {"max_deviation": worst, "points": len(x)}


def distance_to_nearest_integer(alpha) -> float:
    return abs(float(alpha - round(alpha)))


# ---------------------------------------------------------------------------
# exponential-sum decay (Poisson)
# ---------------------------------------------------------------------------

_MAX_TERMS = 2 ** 22  # integers in one window sum; about 50 bytes each at peak


def lemma4_decay_check(w: SmoothWindow, alpha, j: int = 2) -> dict:
    """|sum_m e(alpha m) window(m)| against Z (T ||alpha||)^{-j}; the sum is
    finite because the window has compact support.  Raises ResourceLimitError
    when the support spans _MAX_TERMS or more, before any array is built."""
    if j < 2:
        raise ValueError(f"need j >= 2, got {j}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    norm = distance_to_nearest_integer(alpha)
    if norm == 0:
        raise ValueError("alpha must not be an integer")
    lo, hi = w.support
    if not hi - lo < _MAX_TERMS:
        raise ResourceLimitError(f"window [{lo:g}, {hi:g}] exceeds cap {_MAX_TERMS} integers")
    m = np.arange(math.ceil(lo), math.floor(hi) + 1)
    phases = 2 * math.pi * ((float(alpha) * m) % 1.0)
    vals = w(m.astype(float))
    s = complex(np.dot(vals, np.cos(phases)), np.dot(vals, np.sin(phases)))
    bound = w.Z * (w.T * norm) ** (-j)
    return {
        "sum_abs": abs(s),
        "bound": bound,
        "ratio": abs(s) / bound,
        "T_times_norm": w.T * norm,
    }


def lemma4_t_sweep(Z: float, alpha, t_values) -> dict:
    """Log-log slope of |sum| against T at fixed Z, alpha; decays like T^-j for every j."""
    sums = []
    for T in t_values:
        sums.append(max(lemma4_decay_check(SmoothWindow(Z, T), alpha)["sum_abs"], 1e-300))
    logt = np.log(np.asarray(t_values, dtype=float))
    logs = np.log(np.asarray(sums))
    slope = float(np.polyfit(logt, logs, 1)[0])
    return {"slope": slope, "sums": sums, "t_values": list(t_values)}


# ---------------------------------------------------------------------------
# kernel integrals (Lemma 6 shapes)
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _kernel_on_panels(z: float, param: ArchimedeanParameter, sign: str, alpha: float):
    """Nodes v in sqrt(xi), weights and kernel(alpha v) for a window on [z/2, 2z],
    which do not depend on its T: a sweep over T evaluates each kernel once."""
    v_lo, v_hi = math.sqrt(z / 2), math.sqrt(2 * z)
    # kernel phase is alpha*v; keep panel phase below ~2 radians
    v, weights = gauss_legendre_panels(v_lo, v_hi, min((v_hi - v_lo) / 8, 2.0 / alpha))
    return read_only(v, weights, voronoi_kernel_values(param, sign, alpha * v))


def voronoi_integral(w: SmoothWindow, param: ArchimedeanParameter, sign: str,
                     alpha: float) -> float:
    """I = int g(xi) kernel(alpha sqrt(xi)) dxi over the window's support, on
    `specfun.gauss_legendre_panels` in v = sqrt(xi) sized to the oscillation;
    the sum is numpy's own reduction, like `transforms._quadrature`."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    v, weights, kern = _kernel_on_panels(w.Z, param, sign, alpha)
    return float((weights * w(v * v) * kern * 2 * v).sum())


def lemma6_bound1(Z: float, t_star: float, alpha: float) -> float:
    return Z ** 0.75 * t_star / math.sqrt(alpha)


def lemma6_bound2(Z: float, T: float, t_star: float, alpha: float, j: int) -> float:
    """Strengthened bound valid when alpha*sqrt(Z/2) >= 2 t*."""
    if alpha * math.sqrt(Z / 2) < 2 * t_star:
        raise ValueError("hypothesis alpha*sqrt(Z/2) >= 2 t* fails")
    factor = (math.sqrt(Z) / T + t_star / math.sqrt(Z)) / alpha
    return factor ** j * lemma6_bound1(Z, t_star, alpha)
