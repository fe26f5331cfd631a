"""Diophantine counting oracles: box-constrained congruence quadruples with a
divisibility condition (with a perfect-square refinement), the admissible-residue
reduction behind the Kloosterman-sum pairing, and determinant-n matrix counts
near a point of the upper half-plane.

Everything here is exact integer enumeration plus bound-formula evaluation.
Each fast enumerator has a second one, of a different algorithm, that the
`verify` sweeps and the tests compare it with: `enumerate_A` solves for s,
repeating each (c, r1, r2) grid point once per admissible s in numpy passes,
where `enumerate_A_naive` tests every point of the 4-D box in one broadcast
pass; `enumerate_R_N_matrices` tests u with the float `point_pair_u` where
`enumerate_matrices_naive` scans a box derived from the instance
(`_oracle_box`, which provably holds every g with u(z, gz) < delta) and tests
the closed form for u with a stated rounding margin and exact `Fraction`
fallback (`_u_below`).  `count_admissible_a` walks the units in numpy blocks
and checks the ones in the box exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arithmetic import (RationalApproximation, ResourceLimitError, SquarefreeModulus,
                         batch_inverse, dirichlet_approximate, factorint, p_adic_valuation,
                         unit_blocks)


class BoxLimitError(ResourceLimitError):
    """Raised when an enumeration box exceeds the volume cap `BOX_LIMIT`."""


BOX_LIMIT = 10 ** 9
_UNIT_BLOCK = 2 ** 16   # units, or grid points, per numpy pass of a walk


# ---------------------------------------------------------------------------
# congruence quadruple boxes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingInstance:
    C: float
    S: float
    R: float
    R_tilde: float
    d1: int
    d2: int
    u: int
    N: SquarefreeModulus
    H: float | None = None     # the denominator cap of `approx`; None means N

    def __post_init__(self):
        if min(self.C, self.S, self.R, self.R_tilde) < 0 or self.C < 1:
            raise ValueError("require C >= 1 and S, R, R_tilde >= 0")
        if self.d1 < 1 or self.d2 < 1 or self.u < 1:
            raise ValueError("d1, d2, u must be positive")
        self.approx     # a bad H fails here, before any enumeration

    @functools.cached_property
    def approx(self) -> RationalApproximation:
        n = self.N.value
        return dirichlet_approximate(Fraction(self.u, n), n if self.H is None else self.H)

    def box_volume(self) -> float:
        return self.C * (2 * self.S + 1) * (2 * self.R + 1) * (2 * self.R_tilde + 1)


def enumerate_A(inst: CountingInstance) -> list[tuple]:
    """All (c, s, r1, r2) with C <= c < 2C, |s| <= S, |r1| <= R, |r2| <= R_tilde
    and N | u^2 d1 d2 c + u (d1 r2 + d2 r1) + s, in lexicographic order.

    Solves for s instead of testing it: each grid point (c, r1, r2) fixes the
    class of s mod N, so its admissible s are the least one, t - floor S with
    t = (s + floor S) mod N, and the ones N, 2N, ... above it up to floor S.
    The grid is taken in blocks of whole c values of about `_UNIT_BLOCK`
    points; each point of a block is repeated once per admissible s, and the
    block is sorted once, stably, by (c, s), which keeps the (r1, r2) order.
    Residues are int64 for N < 2^31 (every |c|, |r| < 2^31 under `BOX_LIMIT`,
    so each product stays below 2^62) and Python integers above."""
    if inst.box_volume() > BOX_LIMIT:
        raise BoxLimitError(f"box volume {inst.box_volume():.3g} exceeds cap {BOX_LIMIT:.3g}")
    n, u, sf = inst.N.value, inst.u, math.floor(inst.S)
    c_axis = np.arange(math.ceil(inst.C), math.ceil(2 * inst.C))
    r1 = np.arange(-math.floor(inst.R), math.floor(inst.R) + 1)
    r2 = np.arange(-math.floor(inst.R_tilde), math.floor(inst.R_tilde) + 1)
    exact = object if n >= 2 ** 31 else np.int64

    def times(k, v):    # k v mod N over an int64 axis
        return k % n * v.astype(exact) % n
    # t = (s + sf) mod N with s = -(u^2 d1 d2 c + u d2 r1 + u d1 r2) mod N
    t_r = (sf - times(u * inst.d2, r1)[:, None] - times(u * inst.d1, r2)) % n
    per_c = t_r.size
    step = max(1, _UNIT_BLOCK // per_c)
    out = []
    for lo in range(0, len(c_axis), step):
        c = c_axis[lo:lo + step]
        t = ((t_r - times(u * u * inst.d1 * inst.d2, c)[:, None, None]) % n).ravel()
        count = ((2 * sf - t) // n + 1).astype(np.int64)    # 0 when t > 2 sf, as t < N
        point = np.repeat(np.arange(t.size), count)
        k = np.arange(point.size) - np.repeat(np.cumsum(count) - count, count)
        s = (t[point] - sf + k.astype(exact) * n).astype(np.int64)
        order = np.argsort(point // per_c * (2 * sf + 1) + s, kind="stable")
        ic, ir = np.divmod(point[order], per_c)
        out += zip(c[ic].tolist(), s[order].tolist(), r1[ir // len(r2)].tolist(),
                   r2[ir % len(r2)].tolist())
    return out


def enumerate_A_naive(inst: CountingInstance) -> list[tuple]:
    """Independent second enumerator: tests the divisibility at every point of
    the box, with the four 1-D axes (c, s, r1, r2) broadcast against each other,
    and reads the quadruples off the flat indices of the hits (`np.flatnonzero`,
    then `np.unravel_index`), whose C order is lexicographic.
    The axes are int64 for N < 2^31, where no residue sum reaches 2^63, and
    Python integers above."""
    if inst.box_volume() > BOX_LIMIT:
        raise BoxLimitError(f"box volume {inst.box_volume():.3g} exceeds cap {BOX_LIMIT:.3g}")
    n, u = inst.N.value, inst.u
    exact = object if n >= 2 ** 31 else np.int64
    c = np.arange(math.ceil(inst.C), math.ceil(2 * inst.C)).astype(exact)
    s = np.arange(-math.floor(inst.S), math.floor(inst.S) + 1).astype(exact)
    r1 = np.arange(-math.floor(inst.R), math.floor(inst.R) + 1).astype(exact)
    r2 = np.arange(-math.floor(inst.R_tilde), math.floor(inst.R_tilde) + 1).astype(exact)
    # N | head + u d1 r2, with head the residue of every other term over (c, s, r1)
    head = (u * u * inst.d1 * inst.d2 % n * c[:, None, None] + s[:, None]
            + u * inst.d2 % n * r1) % n
    ic, i_s, i1, i2 = np.unravel_index(
        np.flatnonzero(head[..., None] == -(u * inst.d1 % n) * r2 % n),
        (len(c), len(s), len(r1), len(r2)))
    return list(zip(c[ic].tolist(), s[i_s].tolist(), r1[i1].tolist(), r2[i2].tolist()))


def enumerate_A_square(inst: CountingInstance, plain: list[tuple]) -> list[tuple]:
    """Subset of `plain` = enumerate_A(inst) (requires d1 = d2 = 1) with
    s*c - r1*r2 a perfect square, zero included."""
    if inst.d1 != 1 or inst.d2 != 1:
        raise ValueError("the square variant is defined for d1 = d2 = 1")
    out = []
    for (c, s, r1, r2) in plain:
        v = s * c - r1 * r2
        if v >= 0 and math.isqrt(v) ** 2 == v:
            out.append((c, s, r1, r2))
    return out


def lemma10_bound(inst: CountingInstance, which: str = "plain") -> float:
    """The counting bound for enumerate_A ("plain") or enumerate_A_square
    ("square"), with the epsilon powers set to 1."""
    if which not in ("plain", "square"):
        raise ValueError(f"which must be 'plain' or 'square', got {which!r}")
    q, H = inst.approx.q, inst.approx.H
    N = inst.N.value
    C, S, R, Rt = inst.C, inst.S, inst.R, inst.R_tilde
    if which == "plain":
        mix = inst.d1 * Rt + inst.d2 * R
        return C * min(R, Rt) * (S * mix / N + S * q / N + mix ** 2 / (q * H) + mix / q + 1)
    tot = R + Rt
    return (C * S * tot / N + C * S * q / N + C * tot ** 2 / (q * H)
            + C * tot / q + C + math.sqrt(S * C) * q * min(R, Rt) / N)


def lemma10_bound_check(inst: CountingInstance, which: str, plain: list[tuple]) -> dict:
    """The count in `plain` = enumerate_A(inst), or of its square subset,
    against `lemma10_bound`."""
    bound = lemma10_bound(inst, which)
    count = len(enumerate_A_square(inst, plain) if which == "square" else plain)
    return {"count": count, "bound": bound,
            "ratio": count / bound if bound > 0 else (0.0 if count == 0 else math.inf)}


# ---------------------------------------------------------------------------
# admissible residues modulo Nc
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CongruenceReductionInstance:
    l1: int
    l2: int
    d1: int
    d2: int
    c: int
    u: int
    N: SquarefreeModulus
    R1: float
    R2: float

    def __post_init__(self):
        if min(self.l1, self.l2, self.d1, self.d2, self.c) < 1:
            raise ValueError("l1, l2, d1, d2, c must be positive")
        if math.gcd(self.l1 * self.l2, self.N.value) != 1:
            raise ValueError("require gcd(l1*l2, N) = 1")
        if math.isnan(self.R1) or math.isnan(self.R2):
            raise ValueError("R1 and R2 must not be NaN")


def _centered(x, m: int):
    """The residue of x (an int or an int64 array) mod m in (-m/2, m/2]."""
    r = x % m
    return r - m * (r > m // 2)


def count_admissible_a(inst: CongruenceReductionInstance) -> dict:
    """Walks all units a mod m = N*c, forms the centered residues
    r1 = l1*abar - d1*u*c and r2 = -l2*a - d2*u*c (mod m), and for those in
    the box |r1| <= R1, |r2| <= R2 verifies the product congruence
    (d1*u*c + r1)(d2*u*c + r2) + l1*l2 = 0 (mod m), the multiplicity bound
    gcd(c, l1, l2) per (r1, r2), and the valuation inequality for
    s = (r1*r2 + l1*l2)/c at every prime dividing c.

    The walk up to the box is numpy passes over blocks of units: the sieve and
    the batch inverse of `arithmetic`, then int64 residues (l1 is reduced mod m
    first, so every product stays below m^2 <= BOX_LIMIT^2 < 2^63).  Only the
    units in the box reach the exact checks, in increasing a."""
    m = inst.N.value * inst.c
    if m > BOX_LIMIT:
        raise BoxLimitError(f"modulus {m} exceeds cap {BOX_LIMIT}")
    pairs: dict[tuple, int] = {}
    congruence_violations = []
    valuation_violations = []
    g = math.gcd(inst.c, math.gcd(inst.l1, inst.l2))
    # per prime p | c, the power p^need that must divide a non-zero s
    divisors = []
    for p in factorint(inst.c):
        vl1, vl2, vc = (p_adic_valuation(x, p) for x in (inst.l1, inst.l2, inst.c))
        need = min(vl1 + vl2 - vc, vl1, vl2, vc)
        if need > 0:
            divisors.append((p, p ** need))
    l1, l2 = inst.l1 % m, inst.l2 % m
    k1, k2 = inst.d1 * inst.u * inst.c % m, inst.d2 * inst.u * inst.c % m
    in_box = []
    for a in unit_blocks(m, factorint(m), _UNIT_BLOCK):
        r1 = _centered(l1 * batch_inverse(a, m) - k1, m)
        r2 = _centered(-l2 * a - k2, m)
        keep = (np.abs(r1) <= inst.R1) & (np.abs(r2) <= inst.R2)
        in_box += zip(a[keep].tolist(), r1[keep].tolist(), r2[keep].tolist())
    # mod m = 1 the sieve's one unit is a = 0, not 1, but no check can fail there
    for a, r1, r2 in in_box:
        pairs[(r1, r2)] = pairs.get((r1, r2), 0) + 1
        lhs = (inst.d1 * inst.u * inst.c + r1) * (inst.d2 * inst.u * inst.c + r2) + inst.l1 * inst.l2
        if lhs % m != 0:
            congruence_violations.append((a, r1, r2))
            continue
        num = r1 * r2 + inst.l1 * inst.l2
        s, rem = divmod(num, inst.c)
        if rem != 0:
            valuation_violations.append((a, r1, r2, "c does not divide r1*r2 + l1*l2"))
            continue
        if s != 0:
            for p, pk in divisors:
                if s % pk:
                    valuation_violations.append((a, r1, r2, p))
    return {
        "num_a": len(in_box),
        "num_rs_pairs": len(pairs),
        "max_multiplicity": max(pairs.values(), default=0),
        "multiplicity_bound": g,
        "congruence_violations": congruence_violations,
        "valuation_violations": valuation_violations,
    }


# ---------------------------------------------------------------------------
# determinant-n matrices near z
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatrixCountInstance:
    x: float
    y: float
    n: int
    N: SquarefreeModulus
    delta: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.delta)):
            raise ValueError("x, y and delta must be finite")
        if self.y <= 0:
            raise ValueError("y must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        if math.gcd(self.n, self.N.value) != 1:
            raise ValueError("require gcd(n, N) = 1")
        if self.delta < 0:
            raise ValueError("delta must be nonnegative")


def point_pair_u(x: float, y: float, g: tuple[int, int, int, int]) -> float:
    """u(z, gz) = |z - gz|^2 / (4 Im z Im gz) for g acting by Mobius maps."""
    a, b, c, d = g
    z = complex(x, y)
    w = (a * z + b) / (c * z + d)
    if w.imag <= 0:
        return math.inf
    return abs(z - w) ** 2 / (4 * y * w.imag)


def _point_pair_below(inst: MatrixCountInstance, g: tuple[int, int, int, int]) -> bool:
    """u(z, gz) < delta by `point_pair_u`.  A float u within 1e-9 (relative) of
    delta, where rounding could decide, is recomputed exactly from the same
    Mobius action in `Fraction` arithmetic, with real and imaginary parts."""
    u = point_pair_u(inst.x, inst.y, g)
    if abs(u - inst.delta) > 1e-9 * inst.delta:
        return u < inst.delta
    a, b, c, d = g
    x, y = Fraction(inst.x), Fraction(inst.y)
    nr, ni, dr, di = a * x + b, a * y, c * x + d, c * y    # g z = (nr + i ni)/(dr + i di)
    den = dr * dr + di * di
    wr, wi = (nr * dr + ni * di) / den, (ni * dr - nr * di) / den
    return wi > 0 and ((x - wr) ** 2 + (y - wi) ** 2) / (4 * y * wi) < Fraction(inst.delta)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def enumerate_R_N_matrices(inst: MatrixCountInstance) -> list[tuple]:
    """All integer (a, b, c, d) with ad - bc = n, c >= 0, N | c and
    u(z, gz) < delta.  The candidate boxes are exact consequences of u < delta:

        |(a+d)|            <  2 sqrt(n (1+delta))
        |(a-d) - 2 c x|    <  2 sqrt(n delta)
        0 <= c             <  (sqrt(n delta) + sqrt(n (1+delta))) / y

    (derived from the real/imaginary parts of |c z^2 + (d-a) z - b|^2 < 4 n delta y^2
    and its u+1 companion), followed by the u < delta filter of `_point_pair_below`.
    Their integer ends are exact: x, y and delta are dyadic rationals, so with D
    a power of two of at least 2^32, X = x D, Y = y D and E = delta D are
    integers, and each square root, scaled by D, is replaced by the integer
    `isqrt` + 1 above it.  Every box is widened by less than 1/D, never cut.
    The integers strictly inside (lo, hi) run from floor(lo) + 1 to ceil(hi) - 1."""
    n, N, x, y, delta = inst.n, inst.N.value, inst.x, inst.y, inst.delta
    root_nd = math.sqrt(n * delta)
    c_max = (root_nd + math.sqrt(n * (1 + delta))) / y
    p_max = 2 * math.sqrt(n * (1 + delta))
    volume = (c_max / N + 1) * (2 * p_max + 3) * (4 * root_nd + 5)
    # at c = 0: the signed divisors a, with fewer than 4 sqrt(n delta) y + 1 b each.
    # The c > 0 box alone, over 20 sqrt(n), is past the cap for every n > 2.5e15,
    # so n is factored only when it is within it
    if volume <= BOX_LIMIT:
        divisors = _signed_divisors(n)
        volume += len(divisors) * (4 * root_nd * y + 1)
    if volume > BOX_LIMIT:
        raise BoxLimitError("matrix candidate box exceeds cap")
    (xn, xd), (yn, yd), (en, ed) = (v.as_integer_ratio() for v in (x, y, delta))
    D = max(xd, yd, ed, 1 << 32)
    X, Y, E = xn * (D // xd), yn * (D // yd), en * (D // ed)
    out = []
    # c = 0: a d = n, both sign pairs; |b D - (d-a) X| < Y sqrt(gap / D) with
    # gap = D (4 n delta - (d-a)^2)
    for a in divisors:
        d = n // a if a > 0 else -(n // (-a))
        gap = 4 * n * E - (d - a) ** 2 * D
        if a * d != n or gap <= 0:
            continue
        center, half = (d - a) * X, math.isqrt(Y * Y * gap // D) + 1
        for b in range((center - half) // D + 1, _ceil_div(center + half, D)):
            if _point_pair_below(inst, (a, b, 0, d)):
                out.append((a, b, 0, d))
    # c > 0 multiples of N; m_half and p_half are above D sqrt(4 n delta) and
    # D sqrt(4 n (1 + delta))
    m_half = math.isqrt(4 * n * E * D) + 1
    p_half = math.isqrt(4 * n * (E + D) * D) + 1
    p_top = _ceil_div(p_half, D) - 1
    for c in range(N, _ceil_div(m_half + p_half, 2 * Y), N):
        for M in range((2 * c * X - m_half) // D + 1, _ceil_div(2 * c * X + m_half, D)):  # a - d
            for P in range(-p_top, p_top + 1):  # a + d
                if (P + M) % 2 != 0:
                    continue
                a = (P + M) // 2
                d = (P - M) // 2
                num = a * d - n
                if num % c != 0:
                    continue
                b = num // c
                if _point_pair_below(inst, (a, b, c, d)):
                    out.append((a, b, c, d))
    out.sort()
    return out


def _signed_divisors(n: int) -> list[int]:
    """The divisors a of n in increasing order, each followed by -a."""
    divisors = [1]
    for p, k in factorint(n).items():
        divisors = [d * p ** e for d in divisors for e in range(k + 1)]
    return [s for a in sorted(divisors) for s in (a, -a)]


def _oracle_box(inst: MatrixCountInstance, cap: int | None = None) -> tuple[int, int, int]:
    """Integer bounds (c_max, ad_max, b_max) with 0 <= c <= c_max,
    |a|, |d| <= ad_max and |b| <= b_max for every g with u(z, gz) < delta.

    With sigma = [[sqrt y, x/sqrt y], [0, 1/sqrt y]], so that sigma i = z,

        h = sigma^-1 g sigma = [[a - cx, (b + (a - d)x - cx^2)/y], [cy, cx + d]]

    has det h = n and |h|_F^2 = n (4 u(z, gz) + 2), so each entry of h is below
    rho = sqrt(n (4 delta + 2)).  Hence c < rho/y, |a|, |d| < rho (1 + |x|/y) and,
    with |a - d| < 2 rho + 2c|x|, |b| < rho (y + |x| (2 + 3|x|/y)).  Each bound
    is built from non-negative floats in at most 10 roundings, so its float
    value is within gamma_10 < 1.2e-15 (relative) of the real one, plus
    underflow terms far below 1 (Higham, Lemma 3.1); it is multiplied by
    1 + 1e-12 and rounded up, which covers both.  A bound that overflows is
    inf and fails the volume cap.  `cap`, when given, bounds every entry as well."""
    x, y = abs(inst.x), inst.y
    rho = math.sqrt(inst.n * (4 * inst.delta + 2))
    limit = math.inf if cap is None else cap
    bounds = [min(v * (1 + 1e-12), limit)
              for v in (rho / y, rho * (1 + x / y), rho * (y + x * (2 + 3 * x / y)))]
    c_max, ad_max, b_max = bounds
    side = 2 * ad_max + 1       # a product, not ** 2, overflows to inf without raising
    if (c_max / inst.N.value + 1) * side * side + 2 * b_max > BOX_LIMIT:
        raise BoxLimitError("matrix oracle box exceeds cap")
    return tuple(math.ceil(v) for v in bounds)


def enumerate_matrices_naive(inst: MatrixCountInstance,
                             entry_bound: int | None = None) -> list[tuple]:
    """Oracle for enumerate_R_N_matrices: a full scan of the box `_oracle_box`,
    which holds every solution, with N | c and an exact u-test in place of
    `point_pair_u`.  For each c the (a, d) grid is one int64 array, and
    c | ad - n fixes b; for c = 0, ad = n and b runs over the whole range.
    `entry_bound`, when given, caps every entry, so the scan returns the
    solutions with all entries at most that bound."""
    n = inst.n
    c_max, ad_max, b_max = _oracle_box(inst, entry_bound)
    axis = np.arange(-ad_max, ad_max + 1)
    b_axis = np.arange(-b_max, b_max + 1)
    a, d = np.repeat(axis, len(axis)), np.tile(axis, len(axis))
    rem = a * d - n
    cands = []
    for c in range(0, c_max + 1, inst.N.value):
        if c == 0:
            on = rem == 0
            b = np.tile(b_axis, on.sum())
            cands.append((np.repeat(a[on], len(b_axis)), b, np.zeros_like(b),
                          np.repeat(d[on], len(b_axis))))
        else:
            on = rem % c == 0
            b = rem[on] // c
            fit = np.abs(b) <= b_max
            cands.append((a[on][fit], b[fit], np.full(fit.sum(), c), d[on][fit]))
    cand = [np.concatenate(v) for v in zip(*cands)]
    below = _u_below(inst, *cand)
    return sorted(zip(*(v[below].tolist() for v in cand)))


def _u_below(inst: MatrixCountInstance, a, b, c, d) -> np.ndarray:
    """u(z, gz) < delta for integer arrays a, b, c, d with ad - bc = n, from
    u = |c z^2 + (d - a) z - b|^2 / (4 n y^2):

        (c(x^2 - y^2) + (d - a)x - b)^2 + y^2 (2cx + d - a)^2  <  4 n delta y^2.

    Both sides are evaluated in float64 first.  Let S be the same expression
    with every term replaced by its absolute value, plus 4 n delta y^2, and
    F = (1 + |c|)(2 + y)(1 + S + y + 4 n delta).  Each monomial passes through
    at most 13 roundings, and each product that underflows adds at most 2^-1075
    times the factors applied after it, so the float difference is off by at
    most gamma_13 S + 2^-1072 F < 1.5e-15 S + 2^-1072 F (Higham, Accuracy and
    Stability of Numerical Algorithms, Lemma 3.1).  The float verdict stands
    when |lhs - rhs| > 1e-12 S + 2^-1000 F; everything else (the boundary,
    overflow, NaN) is decided exactly in `Fraction` arithmetic, which is exact
    because x, y and delta are dyadic rationals."""
    x, y, n, delta = inst.x, inst.y, inst.n, inst.delta
    e = d - a
    re = c * (x * x - y * y) + e * x - b
    im = y * (2 * c * x + e)
    lhs, rhs = re * re + im * im, 4 * n * delta * (y * y)
    size = ((np.abs(c) * (x * x + y * y) + np.abs(e) * abs(x) + np.abs(b)) ** 2
            + (y * (2 * np.abs(c) * abs(x) + np.abs(e))) ** 2 + rhs)
    floor = (1 + np.abs(c)) * (2 + y) * (1 + size + y + 4 * n * delta)
    below = lhs < rhs
    unsure = ~(np.abs(lhs - rhs) > 1e-12 * size + 2.0 ** -1000 * floor)
    if unsure.any():
        fx, fy, fdelta = Fraction(x), Fraction(y), Fraction(delta)
        for i in np.flatnonzero(unsure):
            ai, bi, ci, di = int(a[i]), int(b[i]), int(c[i]), int(d[i])
            re_q = ci * (fx * fx - fy * fy) + (di - ai) * fx - bi
            im_q = fy * (2 * ci * fx + di - ai)
            below[i] = re_q * re_q + im_q * im_q < 4 * n * fdelta * fy * fy
    return below


def matrix_count_split(mats: list[tuple]) -> dict:
    """Splits the matrices `mats` of enumerate_R_N_matrices: M0 counts c = 0 < a,
    Mstar counts c > 0; matrices with c = 0, a < 0 act like their negatives and
    are reported separately, outside M = M0 + Mstar."""
    m0 = sum(1 for (a, b, c, d) in mats if c == 0 and a > 0)
    mstar = sum(1 for (a, b, c, d) in mats if c > 0)
    excluded = sum(1 for (a, b, c, d) in mats if c == 0 and a < 0)
    return {"M": m0 + mstar, "M0": m0, "Mstar": mstar, "excluded_negative": excluded}


def ubound_value(inst: MatrixCountInstance) -> float:
    """Reference shape n^eps (1 + sqrt(n delta) y), eps = 0.1, for the c = 0 count."""
    return inst.n ** 0.1 * (1 + math.sqrt(inst.n * inst.delta) * inst.y)


def geometric_kernel(u: float, T: float, n: int) -> float:
    """Majorant kernel: T on u <= n^-4, else 4 T^{1/2} u^{-1/4} (u+1)^{-5/4}."""
    if u <= n ** -4:
        return T
    return 4 * math.sqrt(T) * u ** -0.25 * (u + 1) ** -1.25


def geometric_sum(inst: MatrixCountInstance, mats: list[tuple], T: float) -> dict:
    """Sum of the majorant kernel over `mats` = enumerate_R_N_matrices(inst),
    the matrices with u(z, gz) < delta, against the shape
    T + T^{1/2} n + T^{1/2} n^{1/2} y."""
    total = sum(geometric_kernel(point_pair_u(inst.x, inst.y, g), T, inst.n) for g in mats)
    bound = T + math.sqrt(T) * inst.n + math.sqrt(T * inst.n) * inst.y
    return {"sum": total, "bound": bound, "ratio": total / bound, "matrices": len(mats)}
