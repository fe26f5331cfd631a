"""Twisted Kloosterman sums S_chi(m, n; c) = sum over units a mod c of
conj(chi(a)) e((m abar + n a)/c), in one vectorised pass over the units.

The sum is O(c) on purpose: it is the exact reference that the oscillatory and
counting modules trust, and it stays fast at desk scale (c <= 10^6): about
0.03 s untwisted and 0.05 s with a Legendre twist at c ~ 10^6 (BENCH_17.json).

- Each unit a < c/2 is summed together with its negative c - a.  The partner's
  inverse is c - abar, so its additive phase is the negative of a's, and
  conj(chi(-a)) = chi(-1) conj(chi(a)) with chi(-1) = +-1.  A pair therefore
  contributes 2 cos(2 pi k/c) untwisted, conj(chi(a)) 2 cos(2 pi k/c) for even
  chi and conj(chi(a)) 2i sin(2 pi k/c) for odd chi, with
  k = (m abar + n a) mod c.  For c <= 2 the one unit is its own negative, and
  the sum is e((m + n)/c) exactly.
- Units come from a boolean sieve over the prime factors of c, below
  (c + 1)//2 (`arithmetic.unit_blocks`).
- Their inverses come from Montgomery batch inversion on a product tree
  (`arithmetic.batch_inverse`):
  pairwise products mod c up the tree, one modular inverse of the root, and
  products back down.  This needs no factorisation of the unit group, so
  square-free and other c take the same path.
- Both angles are exact rationals: k/c, and j/ord(chi) with chi(a) =
  e(j/ord(chi)), whose numerators `DirichletCharacter.angle_numerators` reads
  from cached discrete-log tables.  Each is rounded to a float once, as 2 pi
  times the quotient, before its cosine and sine; the character angle takes
  only ord(chi) values, so its cosine and sine are tables indexed by j.  The
  doubling is applied once, to the whole sum.
- Residues are processed in blocks of at most `_BLOCK`, so peak memory does not
  grow with c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import DirichletCharacter, batch_inverse, factorint, unit_blocks

_BLOCK = 2 ** 14    # residues a per block; peak memory stays near 1 MiB
_MAX_C = 2 ** 31    # below it every phase product is under c^2 < 2^62, exact in int64


@dataclass(frozen=True)
class KloostermanQuery:
    m: int
    n: int
    c: int
    chi: DirichletCharacter

    def __post_init__(self):
        if not 1 <= self.c < _MAX_C:
            raise ValueError(f"c must be in [1, 2^31), got {self.c}")
        if self.c % self.chi.modulus.value != 0:
            raise ValueError(
                f"character modulus {self.chi.modulus.value} does not divide c={self.c}; "
                "the sum is not well defined and such queries are rejected"
            )


def kloosterman_sum(q: KloostermanQuery) -> complex:
    m, n, c, chi = q.m, q.n, q.c, q.chi
    if c <= 2:
        return complex((-1) ** ((m + n) % c))
    order, odd = chi.order(), not chi.is_even()
    # conj(chi(a)) = e(-psi / 2 pi) with psi = 2 pi j / order, tabulated per j
    psi = 2 * np.pi * (np.arange(order) / order)
    cos_psi, sin_psi = np.cos(psi), np.sin(psi)
    half = 0j    # the sum over the units a < c/2 of the pair (a, c - a), halved
    for a in unit_blocks((c + 1) // 2, factorint(c), _BLOCK):
        theta = 2 * np.pi * ((m % c * batch_inverse(a, c) + n % c * a) % c / c)
        if order == 1:
            half += np.cos(theta).sum()
            continue
        j = chi.angle_numerators(a, order)   # a is a unit mod c, hence mod N | c
        if odd:     # conj(chi(a)) i sin(theta)
            s = np.sin(theta)
            half += complex((sin_psi[j] * s).sum(), (cos_psi[j] * s).sum())
        else:       # conj(chi(a)) cos(theta)
            w = np.cos(theta)
            half += complex((cos_psi[j] * w).sum(), -(sin_psi[j] * w).sum())
    return complex(2 * half)


def divisor_count(c: int) -> int:
    return math.prod(k + 1 for k in factorint(c).values())


def kloosterman_weil_check(q: KloostermanQuery) -> dict:
    """|S| against the reference value tau(c) * gcd(m,n,c)^{1/2} * c^{1/2}.

    The ratio is <= 1 for the trivial character and square-free c; for other
    inputs it is reported but not asserted.
    """
    value = kloosterman_sum(q)
    g = math.gcd(math.gcd(q.m, q.n), q.c)
    bound = divisor_count(q.c) * math.sqrt(g) * math.sqrt(q.c)
    return {"value": value, "bound": bound, "ratio": abs(value) / bound}
