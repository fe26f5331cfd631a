"""Synthetic Hecke-eigenvalue systems and the amplifier whose diagonal value
telescopes to the number of amplifying primes.

Eigenvalues at primes are arbitrary inputs (random demos use the 2*cos(theta)
distribution); every identity asserted here is algebraic in those values, so the
machinery is exercised without any actual newform data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .arithmetic import DirichletCharacter, SquarefreeModulus, factorint, primes_in_interval


class HeckeSystem:
    """chi plus a value lambda(p) per prime; extended to all n by the recursion
    lambda(p^(k+1)) = lambda(p) lambda(p^k) - chi(p) lambda(p^(k-1)) and
    multiplicativity across coprime arguments."""

    def __init__(self, chi: DirichletCharacter, prime_values: dict[int, complex]):
        self.chi = chi
        self.prime_values = dict(prime_values)

    def _power(self, p: int, k: int) -> complex:
        if k == 0:
            return 1.0
        if p not in self.prime_values:
            raise ValueError(f"no eigenvalue assigned at prime {p}")
        lam_p = self.prime_values[p]
        prev2, prev1 = 1.0, lam_p
        for _ in range(k - 1):
            prev2, prev1 = prev1, lam_p * prev1 - self.chi(p) * prev2
        return prev1

    def eigenvalue(self, n: int) -> complex:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        val = 1.0 + 0j
        for p, k in factorint(n).items():
            val *= self._power(p, k)
        return val


@dataclass(frozen=True)
class Amplifier:
    L: float
    lambda1: tuple[int, ...]
    lambda2: tuple[int, ...]
    coefficients: dict = field(hash=False)


def _amplifier_on(sys: HeckeSystem, L: float, primes: list[int]) -> Amplifier:
    chibar = sys.chi.conjugate()
    coeffs = {}
    for p in primes:
        coeffs[p] = sys.eigenvalue(p) * chibar(p)
        coeffs[p * p] = -chibar(p)
    return Amplifier(L=float(L), lambda1=tuple(primes),
                     lambda2=tuple(p * p for p in primes), coefficients=coeffs)


def build_amplifier(sys: HeckeSystem, L: float, N: SquarefreeModulus) -> Amplifier:
    """Support: primes p in [L, 2L] with p coprime to N, plus their squares.
    Coefficients lambda(p) chibar(p) at p and -chibar(p) at p^2; the square
    coefficient is chosen so the diagonal sum telescopes to #Lambda1 exactly
    for every eigenvalue system."""
    if L < 2:
        raise ValueError(f"need L >= 2, got {L}")
    return _amplifier_on(sys, L, primes_in_interval(L, 2 * L, N.value))


def build_is_amplifier(sys: HeckeSystem, L: float, N: SquarefreeModulus) -> Amplifier:
    """Short variant: primes p <= sqrt(L) (so p^2 <= L), p coprime to N."""
    if L < 4:
        raise ValueError(f"need L >= 4, got {L}")
    return _amplifier_on(sys, L, primes_in_interval(2, math.sqrt(L), N.value))


def amplifier_diagonal_value(sys: HeckeSystem, amp: Amplifier) -> complex:
    """sum_l lambda(l) alpha(l); equals #Lambda1 up to roundoff, since each
    prime contributes chibar(p)(lambda(p)^2 - lambda(p^2)) = chibar(p) chi(p) = 1."""
    return sum(sys.eigenvalue(l) * a for l, a in amp.coefficients.items())

