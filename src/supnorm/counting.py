"""Diophantine counting oracles: box-constrained congruence quadruples with a
divisibility condition (with a perfect-square refinement), the admissible-residue
reduction behind the Kloosterman-sum pairing, and determinant-n matrix counts
near a point of the upper half-plane.

Everything here is exact integer enumeration plus bound-formula evaluation;
randomized sweeps in the test suite compare against independent second
enumerators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import sympy

from .arithmetic import SquarefreeModulus, p_adic_valuation
from .oscillatory import RationalApproximation


class BoxLimitError(Exception):
    """Raised when an enumeration box exceeds the volume cap `BOX_LIMIT`."""


BOX_LIMIT = 10 ** 9


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
    approx: RationalApproximation | None = None

    def __post_init__(self):
        if min(self.C, self.S, self.R, self.R_tilde) < 0 or self.C < 1:
            raise ValueError("require C >= 1 and S, R, R_tilde >= 0")
        if self.d1 < 1 or self.d2 < 1 or self.u < 1:
            raise ValueError("d1, d2, u must be positive")

    def box_volume(self) -> float:
        return self.C * (2 * self.S + 1) * (2 * self.R + 1) * (2 * self.R_tilde + 1)


def enumerate_A(inst: CountingInstance) -> list[tuple]:
    """All (c, s, r1, r2) with C <= c < 2C, |s| <= S, |r1| <= R, |r2| <= R_tilde
    and N | u^2 d1 d2 c + u (d1 r2 + d2 r1) + s, in lexicographic order.

    For each (c, r1, r2) the admissible s form an arithmetic progression mod N,
    enumerated directly instead of testing every s.
    """
    if inst.box_volume() > BOX_LIMIT:
        raise BoxLimitError(f"box volume {inst.box_volume():.3g} exceeds cap {BOX_LIMIT:.3g}")
    n = inst.N.value
    sf = math.floor(inst.S)
    out = []
    for c in range(math.ceil(inst.C), math.ceil(2 * inst.C)):
        if not inst.C <= c < 2 * inst.C:
            continue
        base_c = inst.u * inst.u * inst.d1 * inst.d2 * c
        for r1 in range(-math.floor(inst.R), math.floor(inst.R) + 1):
            for r2 in range(-math.floor(inst.R_tilde), math.floor(inst.R_tilde) + 1):
                residue = (-(base_c + inst.u * (inst.d1 * r2 + inst.d2 * r1))) % n
                # s = residue + k*n within [-sf, sf]
                s = residue - n * ((residue + sf) // n)
                while s <= sf:
                    out.append((c, s, r1, r2))
                    s += n
    out.sort()
    return out


def enumerate_A_naive(inst: CountingInstance) -> list[tuple]:
    """Independent second enumerator: full vectorized box scan with the loop
    nesting permuted, for dual-oracle agreement checks."""
    if inst.box_volume() > BOX_LIMIT:
        raise BoxLimitError(f"box volume {inst.box_volume():.3g} exceeds cap {BOX_LIMIT:.3g}")
    n = inst.N.value
    c = np.arange(math.ceil(inst.C), math.ceil(2 * inst.C))
    c = c[(c >= inst.C) & (c < 2 * inst.C)]
    s = np.arange(-math.floor(inst.S), math.floor(inst.S) + 1)
    r1 = np.arange(-math.floor(inst.R), math.floor(inst.R) + 1)
    r2 = np.arange(-math.floor(inst.R_tilde), math.floor(inst.R_tilde) + 1)
    r2g, r1g, sg, cg = np.meshgrid(r2, r1, s, c, indexing="ij")
    total = (inst.u * inst.u * inst.d1 * inst.d2 * cg
             + inst.u * (inst.d1 * r2g + inst.d2 * r1g) + sg)
    mask = total % n == 0
    quads = sorted(zip(cg[mask].tolist(), sg[mask].tolist(),
                       r1g[mask].tolist(), r2g[mask].tolist()))
    return [tuple(q) for q in quads]


def enumerate_A_square(inst: CountingInstance) -> list[tuple]:
    """Subset of enumerate_A (requires d1 = d2 = 1) with s*c - r1*r2 a perfect
    square, zero included."""
    if inst.d1 != 1 or inst.d2 != 1:
        raise ValueError("the square variant is defined for d1 = d2 = 1")
    out = []
    for (c, s, r1, r2) in enumerate_A(inst):
        v = s * c - r1 * r2
        if v >= 0 and math.isqrt(v) ** 2 == v:
            out.append((c, s, r1, r2))
    return out


def lemma10_bound_check(inst: CountingInstance, which: str = "plain") -> dict:
    """Enumerated count against the counting bound (epsilon powers set to 1)."""
    if inst.approx is None:
        raise ValueError("instance needs a rational approximation (a, q, H) of u/N")
    if which not in ("plain", "square"):
        raise ValueError(f"which must be 'plain' or 'square', got {which!r}")
    q, H = inst.approx.q, inst.approx.H
    N = inst.N.value
    C, S, R, Rt = inst.C, inst.S, inst.R, inst.R_tilde
    d1, d2 = inst.d1, inst.d2
    if which == "plain":
        count = len(enumerate_A(inst))
        mix = d1 * Rt + d2 * R
        bound = C * min(R, Rt) * (S * mix / N + S * q / N + mix ** 2 / (q * H) + mix / q + 1)
    else:
        count = len(enumerate_A_square(inst))
        tot = R + Rt
        bound = (C * S * tot / N + C * S * q / N + C * tot ** 2 / (q * H)
                 + C * tot / q + C + math.sqrt(S * C) * q * min(R, Rt) / N)
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


def _centered(x: int, m: int) -> int:
    r = x % m
    return r - m if r > m // 2 else r


def count_admissible_a(inst: CongruenceReductionInstance) -> dict:
    """Walks all units a mod N*c, forms the centered residues
    r1 = l1*abar - d1*u*c and r2 = -l2*a - d2*u*c (mod N*c), and for those in
    the box |r1| <= R1, |r2| <= R2 verifies the product congruence
    (d1*u*c + r1)(d2*u*c + r2) + l1*l2 = 0 (mod N*c), the multiplicity bound
    gcd(c, l1, l2) per (r1, r2), and the valuation inequality for
    s = (r1*r2 + l1*l2)/c at every prime dividing c."""
    m = inst.N.value * inst.c
    if m > BOX_LIMIT:
        raise BoxLimitError(f"modulus {m} exceeds cap {BOX_LIMIT}")
    pairs: dict[tuple, int] = {}
    num_a = 0
    congruence_violations = []
    valuation_violations = []
    g = math.gcd(inst.c, math.gcd(inst.l1, inst.l2))
    # per prime p | c, the power p^need that must divide a non-zero s
    divisors = []
    for p in sorted(sympy.factorint(inst.c)):
        vl1, vl2, vc = (p_adic_valuation(x, p) for x in (inst.l1, inst.l2, inst.c))
        need = min(vl1 + vl2 - vc, vl1, vl2, vc)
        if need > 0:
            divisors.append((p, p ** need))
    for a in range(1, m + 1):
        if math.gcd(a, m) != 1:
            continue
        abar = pow(a, -1, m)
        r1 = _centered((inst.l1 * abar - inst.d1 * inst.u * inst.c) % m, m)
        r2 = _centered((-inst.l2 * a - inst.d2 * inst.u * inst.c) % m, m)
        if abs(r1) > inst.R1 or abs(r2) > inst.R2:
            continue
        num_a += 1
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
        "num_a": num_a,
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


def enumerate_R_N_matrices(inst: MatrixCountInstance) -> list[tuple]:
    """All integer (a, b, c, d) with ad - bc = n, c >= 0, N | c and
    u(z, gz) < delta.  The candidate boxes are exact consequences of u < delta:

        |(a+d)|            <  2 sqrt(n (1+delta))
        |(a-d) - 2 c x|    <  2 sqrt(n delta)
        0 <= c             <  (sqrt(n delta) + sqrt(n (1+delta))) / y

    (derived from the real/imaginary parts of |c z^2 + (d-a) z - b|^2 < 4 n delta y^2
    and its u+1 companion), followed by the exact u < delta filter."""
    n, N, x, y, delta = inst.n, inst.N.value, inst.x, inst.y, inst.delta
    eps = 1e-9
    out = []
    root_nd = math.sqrt(n * delta)
    # c = 0: a d = n, both sign pairs; b constrained by the explicit inequality
    for a in _signed_divisors(n):
        d = n // a if a > 0 else -(n // (-a))
        if a * d != n:
            continue
        gap_sq = 4 * n * delta * y * y - (d - a) ** 2 * y * y
        if gap_sq < -eps:
            continue
        s = math.sqrt(max(gap_sq, 0.0))
        center = (d - a) * x
        for b in range(math.floor(center - s - 1), math.ceil(center + s + 1) + 1):
            if point_pair_u(x, y, (a, b, 0, d)) < delta:
                out.append((a, b, 0, d))
    # c > 0 multiples of N
    c_max = (root_nd + math.sqrt(n * (1 + delta))) / y
    p_max = 2 * math.sqrt(n * (1 + delta))
    if (c_max / N + 1) * (2 * p_max + 3) * (4 * root_nd + 5) > BOX_LIMIT:
        raise BoxLimitError("matrix candidate box exceeds cap")
    c = N
    while c <= c_max + eps:
        m_center = 2 * c * x
        m_lo = math.ceil(m_center - 2 * root_nd - eps)
        m_hi = math.floor(m_center + 2 * root_nd + eps)
        for M in range(m_lo, m_hi + 1):          # M = a - d
            for P in range(-math.floor(p_max + eps), math.floor(p_max + eps) + 1):  # P = a + d
                if (P + M) % 2 != 0:
                    continue
                a = (P + M) // 2
                d = (P - M) // 2
                num = a * d - n
                if num % c != 0:
                    continue
                b = num // c
                if point_pair_u(x, y, (a, b, c, d)) < delta:
                    out.append((a, b, c, d))
        c += N
    out.sort()
    return out


def _signed_divisors(n: int) -> list[int]:
    ds = []
    for a in range(1, n + 1):
        if n % a == 0:
            ds.extend([a, -a])
    return ds


def enumerate_matrices_naive(inst: MatrixCountInstance, entry_bound: int) -> list[tuple]:
    """Quadruple-loop oracle over |a|,|b|,|d| <= entry_bound, 0 <= c <= entry_bound."""
    n, N = inst.n, inst.N.value
    out = []
    for c in range(0, entry_bound + 1, 1):
        if c % N != 0:
            continue
        for a in range(-entry_bound, entry_bound + 1):
            for d in range(-entry_bound, entry_bound + 1):
                rem = a * d - n
                if c == 0:
                    if rem != 0:
                        continue
                    for b in range(-entry_bound, entry_bound + 1):
                        if point_pair_u(inst.x, inst.y, (a, b, 0, d)) < inst.delta:
                            out.append((a, b, 0, d))
                else:
                    if rem % c != 0:
                        continue
                    b = rem // c
                    if abs(b) > entry_bound:
                        continue
                    if point_pair_u(inst.x, inst.y, (a, b, c, d)) < inst.delta:
                        out.append((a, b, c, d))
    out.sort()
    return out


def matrix_count_split(inst: MatrixCountInstance) -> dict:
    """M0 counts c = 0 < a, Mstar counts c > 0; matrices with c = 0, a < 0 act
    like their negatives and are reported separately, outside M = M0 + Mstar."""
    mats = enumerate_R_N_matrices(inst)
    m0 = sum(1 for (a, b, c, d) in mats if c == 0 and a > 0)
    mstar = sum(1 for (a, b, c, d) in mats if c > 0)
    excluded = sum(1 for (a, b, c, d) in mats if c == 0 and a < 0)
    return {"M": m0 + mstar, "M0": m0, "Mstar": mstar, "excluded_negative": excluded}


def ubound_value(inst: MatrixCountInstance, eps: float = 0.1) -> float:
    """Reference shape n^eps (1 + sqrt(n delta) y) for the c = 0 count."""
    return inst.n ** eps * (1 + math.sqrt(inst.n * inst.delta) * inst.y)


def geometric_kernel(u: float, T: float, n: int) -> float:
    """Majorant kernel: T on u <= n^-4, else 4 T^{1/2} u^{-1/4} (u+1)^{-5/4}."""
    if u <= n ** -4:
        return T
    return 4 * math.sqrt(T) * u ** -0.25 * (u + 1) ** -1.25


def geometric_sum(inst: MatrixCountInstance, T: float) -> dict:
    """Sum of the majorant kernel over the matrices with u(z, gz) < delta,
    against the shape T + T^{1/2} n + T^{1/2} n^{1/2} y."""
    mats = enumerate_R_N_matrices(inst)
    total = sum(geometric_kernel(point_pair_u(inst.x, inst.y, g), T, inst.n) for g in mats)
    bound = T + math.sqrt(T) * inst.n + math.sqrt(T * inst.n) * inst.y
    return {"sum": total, "bound": bound, "ratio": total / bound, "matrices": len(mats)}
