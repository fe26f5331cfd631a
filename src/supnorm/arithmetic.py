"""Modular arithmetic substrate: square-free moduli, Dirichlet characters, valuations.

Characters are stored per prime component by the exponent of the image of a fixed
primitive root, so multiplication, conjugation and evaluation are exact rational-angle
arithmetic; floats appear only when a complex value is finally requested.  Evaluation
reads a discrete-log table built once per prime (`log_table`), for one unit or for a
whole numpy array of units at once.

`unit_blocks` (a sieve) and `batch_inverse` (Montgomery batch inversion) give the
units mod m and their inverses as numpy arrays; the Kloosterman sums and the
admissible-residue walk in `counting` share them.

The exact number theory that everything else rests on is here too, and only
here: `factorint` (trial division, then Pollard rho), `isprime` (deterministic
Miller-Rabin), `primes_in_interval` (a sieve of Eratosthenes), `primitive_root`
and `dirichlet_approximate` (continued fractions).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

#: Best known progress towards the Ramanujan bound for Hecke eigenvalues.
THETA = Fraction(7, 64)

#: Miller-Rabin to the 13 prime bases up to 41 is exact below this bound
#: (psi_13; Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
MILLER_RABIN_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: The largest upper end `primes_in_interval` sieves to (one byte per integer).
SIEVE_LIMIT = 10 ** 7
_TRIAL = 1024   # trial division by the primes below this


class ResourceLimitError(Exception):
    """Raised when an input would pass a named work or memory cap, before the
    work starts; the CLI exits 3."""


def _sieve(hi: int) -> np.ndarray:
    """Prime flags for 0..hi (Eratosthenes)."""
    flags = np.ones(hi + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(hi) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return flags


_SMALL_PRIMES = tuple(np.flatnonzero(_sieve(_TRIAL)).tolist())


def _miller_rabin(n: int) -> bool:
    """Primality of an n > 1 with no prime factor below `_TRIAL`."""
    if n < _TRIAL * _TRIAL:
        return True
    if n >= MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is past the exact primality range (below {MILLER_RABIN_LIMIT})")
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def isprime(n: int) -> bool:
    """Whether the integer n is prime: trial division by the primes below 1024,
    then deterministic Miller-Rabin.  Exact for every n < `MILLER_RABIN_LIMIT`
    (about 3.317e24); a larger n with no prime factor below 1024 raises
    `ValueError`."""
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return n > 1
    return _miller_rabin(n)


def _pollard_rho(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below `_TRIAL`:
    Brent's cycle search on x -> x^2 + c mod n for c = 1, 2, ..., with the
    gcds batched over 128 steps and replayed one by one when a batch overshoots."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorint(n: int) -> dict[int, int]:
    """The factorisation {p: e} of an integer n >= 1, in increasing p: trial
    division by the primes below 1024, then Pollard rho on what is left, with
    each part tested by `isprime`'s Miller-Rabin.  Exact for every n below
    `MILLER_RABIN_LIMIT` (about 3.317e24), and for a larger n whose cofactor
    after trial division is below it; otherwise a part past that range raises
    `ValueError`."""
    if n < 1:
        raise ValueError(f"can only factor a positive integer, got {n}")
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if _miller_rabin(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            parts += [d, m // d]
    return dict(sorted(factors.items()))


def primitive_root(p: int) -> int:
    """The least primitive root mod a prime p: the least g >= 1 with
    g^((p-1)/q) != 1 mod p for every prime q | p - 1."""
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    powers = [(p - 1) // q for q in factorint(p - 1)]
    return next(g for g in itertools.count(1) if all(pow(g, k, p) != 1 for k in powers))


def e(x) -> complex:
    """exp(2*pi*i*x), with exact rational reduction mod 1 when x is a Fraction."""
    return cmath.exp(2j * math.pi * float(x - math.floor(x)))


@dataclass(frozen=True)
class SquarefreeModulus:
    value: int
    prime_factors: tuple[int, ...]

    @classmethod
    def from_int(cls, n: int) -> "SquarefreeModulus":
        if n < 1:
            raise ValueError(f"modulus must be positive, got {n}")
        fac = factorint(n)
        if any(exp > 1 for exp in fac.values()):
            raise ValueError(f"{n} is not square-free")
        return cls(value=n, prime_factors=tuple(fac))

    def __post_init__(self):
        prod = math.prod(self.prime_factors) if self.prime_factors else 1
        if prod != self.value:
            raise ValueError("prime_factors do not multiply to value")


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod a square-free N, given per odd prime p by the exponent m_p
    such that chi(g_p) = e(m_p/(p-1)) for a fixed primitive root g_p mod p."""

    modulus: SquarefreeModulus
    # map p -> exponent m_p in [0, p-1); p = 2 contributes nothing (trivial group)
    component_exponents: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        for p in self.modulus.prime_factors:
            if p == 2:
                continue
            m = self.component_exponents.get(p, 0)
            if not 0 <= m < p - 1:
                raise ValueError(f"exponent for prime {p} out of range: {m}")

    @classmethod
    def trivial(cls, n: int) -> "DirichletCharacter":
        return cls(modulus=SquarefreeModulus.from_int(n), component_exponents={})

    @classmethod
    def quadratic(cls, p: int) -> "DirichletCharacter":
        """The real nontrivial (Legendre) character mod an odd prime p."""
        if p == 2 or not isprime(p):
            raise ValueError("quadratic character requires an odd prime modulus")
        return cls(modulus=SquarefreeModulus.from_int(p), component_exponents={p: (p - 1) // 2})

    # -- exact evaluation ------------------------------------------------

    def _components(self) -> list[tuple[int, int]]:
        """(p, m_p) for every odd prime p | N whose component is non-trivial."""
        return [(p, m) for p in self.modulus.prime_factors
                if p != 2 and (m := self.component_exponents.get(p, 0))]

    def order(self) -> int:
        """The order of chi: the lcm of (p-1)/gcd(m_p, p-1) over its components."""
        return math.lcm(*((p - 1) // math.gcd(m, p - 1) for p, m in self._components()))

    def angle_numerators(self, units, L: int):
        """Exact integers k in [0, L) with chi(a) = e(k/L), for a non-negative unit
        a mod N or an int64 array of them.  L must be a multiple of the order below
        2^62, so that every intermediate product stays exact in int64."""
        k = 0
        for p, m in self._components():
            g = math.gcd(m, p - 1)
            o = (p - 1) // g
            k = (k + (m // g) * log_table(p)[units % p] % o * (L // o)) % L
        return k

    def angle(self, a: int) -> Fraction | None:
        """Exact rational x in [0,1) with chi(a) = e(x), or None if gcd(a, N) > 1."""
        n = self.modulus.value
        if math.gcd(a, n) > 1:
            return None
        order = self.order()
        return Fraction(int(self.angle_numerators(a % n, order)), order)

    def __call__(self, a: int) -> complex:
        x = self.angle(a)
        if x is None:
            return 0j
        if x == 0:
            return 1 + 0j
        if 2 * x == 1:
            return -1 + 0j
        return e(x)

    def conjugate(self) -> "DirichletCharacter":
        exps = {}
        for p in self.modulus.prime_factors:
            if p == 2:
                continue
            m = self.component_exponents.get(p, 0)
            exps[p] = (-m) % (p - 1)
        return DirichletCharacter(self.modulus, exps)

    def is_even(self) -> bool:
        """chi(-1) == 1; -1 has index (p-1)/2 at every odd prime component."""
        return sum(m for _, m in self._components()) % 2 == 0


def enumerate_characters(n: int):
    """All Dirichlet characters mod square-free n."""
    mod = SquarefreeModulus.from_int(n)
    odd_primes = [p for p in mod.prime_factors if p != 2]
    for exps in itertools.product(*(range(p - 1) for p in odd_primes)):
        yield DirichletCharacter(mod, dict(zip(odd_primes, exps)))


@functools.lru_cache(maxsize=16)
def log_table(p: int) -> np.ndarray:
    """Read-only discrete logarithms mod an odd prime p to the base
    g = primitive_root(p), the generator the character exponents refer to:
    entry a (0 < a < p) is the k in [0, p-1) with g^k = a mod p.  The powers of g
    are built by doubling, each step multiplying the known block by g^k."""
    g = primitive_root(p)
    powers = np.empty(p - 1, dtype=np.int64)
    powers[0] = 1
    k, gk = 1, g
    while k < p - 1:
        step = min(k, p - 1 - k)
        powers[k:k + step] = powers[:step] * gk % p
        k += step
        gk = gk * gk % p
    table = np.zeros(p, dtype=np.int64)
    table[powers] = np.arange(p - 1)
    table.flags.writeable = False
    return table


def unit_blocks(m: int, primes, block: int):
    """The integers in [0, m) prime to every p in `primes`, in increasing order,
    as int64 arrays of at most `block` residues.  With `primes` the prime
    factors of m these are the units mod m (mod 1 the only unit is 0); with the
    prime factors of c and m = (c + 1)//2, the units a < c/2 mod c."""
    for lo in range(0, m, block):
        keep = np.ones(min(block, m - lo), dtype=bool)
        for p in primes:
            keep[-lo % p::p] = False
        units = np.flatnonzero(keep) + lo
        if len(units):
            yield units


def batch_inverse(x: np.ndarray, m: int) -> np.ndarray:
    """Inverses mod m of the non-empty int64 array of units x in [0, m), with a
    single modular inverse (Montgomery): up a product tree (odd levels padded
    with 1), invert the root, and give each node its parent's inverse times its
    sibling.  Exact while m^2 < 2^63, so every product of two residues fits."""
    tree = [x]
    while len(tree[-1]) > 1:
        if len(tree[-1]) % 2:
            tree[-1] = np.append(tree[-1], 1)
        tree.append(tree[-1][0::2] * tree[-1][1::2] % m)
    inv = np.array([pow(int(tree[-1][0]), -1, m)], dtype=np.int64)
    for level in reversed(tree[:-1]):
        parent = inv[:len(level) // 2]
        inv = np.empty_like(level)
        inv[0::2] = parent * level[1::2] % m
        inv[1::2] = parent * level[0::2] % m
    return inv[:len(x)]


def p_adic_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def primes_in_interval(lo: float, hi: float, excluded_modulus: int = 1):
    """Sorted primes p in [lo, hi] with p not dividing the excluded modulus, from
    a sieve up to hi; hi above `SIEVE_LIMIT` raises `ResourceLimitError` before
    the sieve is allocated."""
    if not 2 <= lo <= hi < math.inf:
        raise ValueError(f"need 2 <= lo <= hi < inf, got [{lo}, {hi}]")
    if hi > SIEVE_LIMIT:
        raise ResourceLimitError(f"primes up to {hi:.3g} exceed the sieve cap {SIEVE_LIMIT:.3g}")
    primes = np.flatnonzero(_sieve(math.floor(hi)))
    return [p for p in primes[primes >= math.ceil(lo)].tolist() if excluded_modulus % p != 0]


@dataclass(frozen=True)
class RationalApproximation:
    x: float
    a: int
    q: int
    H: float
    beta: float

    def __post_init__(self):
        if self.q < 1 or math.gcd(self.a, self.q) != 1:
            raise ValueError("require q >= 1 and gcd(a, q) = 1")
        if self.q > self.H:
            raise ValueError(f"q={self.q} exceeds H={self.H}")
        if abs(self.beta) > 1.0 / (self.q * self.H) + 1e-15:
            raise ValueError("|x - a/q| > 1/(qH)")


def dirichlet_approximate(x, H: float) -> RationalApproximation:
    """Best continued-fraction convergent a/q of x with q <= H; then
    |x - a/q| <= 1/(q H) automatically."""
    if not 1 <= H < math.inf:
        raise ValueError(f"need finite H >= 1, got {H}")
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    H = float(H)    # the cap the result records, so that q <= H holds there too
    xf = Fraction(x)
    # convergents of the continued fraction of x
    p_prev, q_prev, p_cur, q_cur = 1, 0, math.floor(xf), 1
    frac = xf - math.floor(xf)
    while frac != 0:
        rec = 1 / frac
        a_k = math.floor(rec)
        frac = rec - a_k
        p_nxt, q_nxt = a_k * p_cur + p_prev, a_k * q_cur + q_prev
        if q_nxt > H:
            break
        p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_nxt, q_nxt
    return RationalApproximation(
        x=float(x), a=p_cur, q=q_cur, H=H, beta=float(xf - Fraction(p_cur, q_cur))
    )
