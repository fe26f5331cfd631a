"""Synthetic Hecke-eigenvalue systems and the amplifier whose diagonal value
telescopes to the number of amplifying primes.

Eigenvalues at primes are arbitrary inputs (random demos use the 2*cos(theta)
distribution); every identity asserted here is algebraic in those values, so the
machinery is exercised without any actual newform data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import sympy

from .arithmetic import DirichletCharacter, SquarefreeModulus, primes_in_interval


class HeckeSystem:
    """chi plus a value lambda(p) per prime; extended to all n by the recursion
    lambda(p^(k+1)) = lambda(p) lambda(p^k) - chi(p) lambda(p^(k-1)) and
    multiplicativity across coprime arguments."""

    def __init__(self, chi: DirichletCharacter, prime_values: dict[int, complex]):
        self.chi = chi
        self.prime_values = dict(prime_values)
        self._cache: dict[int, complex] = {1: 1.0}

    def _power(self, p: int, k: int) -> complex:
        if k == 0:
            return 1.0
        if p not in self.prime_values:
            raise ValueError(f"no eigenvalue assigned at prime {p}")
        key = p ** k
        if key in self._cache:
            return self._cache[key]
        lam_p = self.prime_values[p]
        prev2, prev1 = 1.0, lam_p
        for _ in range(k - 1):
            prev2, prev1 = prev1, lam_p * prev1 - self.chi(p) * prev2
        self._cache[key] = prev1
        return prev1

    def eigenvalue(self, n: int) -> complex:
        if n < 1:
            raise ValueError(f"n must be positive, got {n}")
        if n in self._cache:
            return self._cache[n]
        val = 1.0 + 0j
        for p, k in sympy.factorint(n).items():
            val *= self._power(p, k)
        self._cache[n] = val
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
    return _amplifier_on(sys, L, primes_in_interval(L, 2 * L, N))


def build_is_amplifier(sys: HeckeSystem, L: float, N: SquarefreeModulus) -> Amplifier:
    """Short variant: primes p <= sqrt(L) (so p^2 <= L), p coprime to N."""
    if L < 4:
        raise ValueError(f"need L >= 4, got {L}")
    return _amplifier_on(sys, L, primes_in_interval(2, math.sqrt(L), N))


def amplifier_diagonal_value(sys: HeckeSystem, amp: Amplifier) -> complex:
    """sum_l lambda(l) alpha(l); equals #Lambda1 up to roundoff, since each
    prime contributes chibar(p)(lambda(p)^2 - lambda(p^2)) = chibar(p) chi(p) = 1."""
    return sum(sys.eigenvalue(l) * a for l, a in amp.coefficients.items())


def amplifier_diagonal_symbolic(sys: HeckeSystem, amp: Amplifier) -> int:
    """The same sum with exact character arithmetic: per prime the lambda(p)^2
    terms cancel identically (equal exact angles) and the remainder is
    e(-angle) * e(angle) = e(0) = 1; raises if the cancellation is not exact."""
    total = 0
    for p in amp.lambda1:
        a = sys.chi.angle(p)
        if a is None:
            raise ValueError(f"prime {p} shares a factor with the modulus")
        # lambda(p)^2 coefficient: chibar(p) - chibar(p) with identical angles
        coeff_angle_1 = (-a) % 1
        coeff_angle_2 = (-a) % 1
        if coeff_angle_1 != coeff_angle_2:
            raise ValueError("lambda^2 coefficients fail to cancel exactly")
        # constant term: chibar(p) * chi(p) = e(-a + a) = e(0)
        const = (Fraction(a) - Fraction(a)) % 1
        if const != 0:
            raise ValueError("constant term is not exactly 1")
        total += 1
    return total
