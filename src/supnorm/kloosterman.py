"""Twisted Kloosterman sums S_chi(m, n; c) by direct summation over units mod c.

Direct O(c) summation is deliberate: at desk scale (c <= 10^6) it is fast enough and
serves as the oracle that the oscillatory and counting modules trust.  Each term's
phase is reduced as an exact rational before the single complex exponential, so no
precision drifts in at large arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import DirichletCharacter, e, mod_inverse


@dataclass(frozen=True)
class KloostermanQuery:
    m: int
    n: int
    c: int
    chi: DirichletCharacter

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.c % self.chi.modulus.value != 0:
            raise ValueError(
                f"character modulus {self.chi.modulus.value} does not divide c={self.c}; "
                "the sum is not well defined and such queries are rejected"
            )


def kloosterman_sum(q: KloostermanQuery) -> complex:
    m, n, c, chi = q.m, q.n, q.c, q.chi
    if c == 1:
        return 1 + 0j
    twisted = not chi.is_trivial()
    total = 0j
    for a in range(1, c):
        if math.gcd(a, c) != 1:
            continue
        abar = mod_inverse(a, c)
        phase = Fraction((m * abar + n * a) % c, c)
        if twisted:
            # a is a unit mod c, hence mod N | c; conjugate character: subtract the angle
            phase -= chi.angle(a)
        total += e(phase)
    return total


def divisor_count(c: int) -> int:
    cnt = 1
    d = 2
    n = c
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            cnt *= k + 1
        d += 1
    if n > 1:
        cnt *= 2
    return cnt


def kloosterman_weil_check(q: KloostermanQuery) -> dict:
    """|S| against the reference value tau(c) * gcd(m,n,c)^{1/2} * c^{1/2}.

    The ratio is <= 1 for the trivial character and square-free c; for other
    inputs it is reported but not asserted.
    """
    value = kloosterman_sum(q)
    g = math.gcd(math.gcd(q.m, q.n), q.c)
    bound = divisor_count(q.c) * math.sqrt(g) * math.sqrt(q.c)
    return {
        "value": value,
        "abs": abs(value),
        "bound": bound,
        "ratio": abs(value) / bound,
    }
