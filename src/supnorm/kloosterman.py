"""Twisted Kloosterman sums S_chi(m, n; c) = sum over units a mod c of
conj(chi(a)) e((m abar + n a)/c), in one vectorised pass over the units.

The sum is O(c) on purpose: it is the exact reference that the oscillatory and
counting modules trust, and it stays fast at desk scale (c <= 10^6).

- Units come from a boolean sieve over the prime factors of c
  (`arithmetic.unit_blocks`).
- Their inverses come from Montgomery batch inversion on a product tree
  (`arithmetic.batch_inverse`):
  pairwise products mod c up the tree, one modular inverse of the root, and
  products back down.  This needs no factorisation of the unit group, so
  square-free and other c take the same path.
- Each term's phase is an exact integer k mod L = lcm(c, ord chi): the additive
  part scaled by L/c, minus the character's angle numerators, which
  `DirichletCharacter.angle_numerators` reads from cached discrete-log tables.
  Each term is then rounded to a float once, in e(k/L), taken as cos and sin
  of 2 pi (k/L) (numpy's complex exp was about 1.5 times slower).
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
    if c == 1:
        return 1 + 0j
    order = chi.order()
    L = math.lcm(c, order)
    total = 0j
    for a in unit_blocks(c, factorint(c), _BLOCK):
        k = (m % c * batch_inverse(a, c) + n % c * a) % c * (L // c)
        if order > 1:
            # a is a unit mod c, hence mod N | c; conjugate character: subtract the angle
            k = (k - chi.angle_numerators(a, L)) % L
        theta = 2 * np.pi * (k / L)
        total += complex(np.cos(theta).sum(), np.sin(theta).sum())
    return total


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
    return {
        "value": value,
        "abs": abs(value),
        "bound": bound,
        "ratio": abs(value) / bound,
    }
