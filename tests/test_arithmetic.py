import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, strategies as st

from supnorm.arithmetic import (
    MILLER_RABIN_LIMIT,
    SIEVE_LIMIT,
    DirichletCharacter,
    ResourceLimitError,
    SquarefreeModulus,
    THETA,
    batch_inverse,
    e,
    enumerate_characters,
    factorint,
    isprime,
    p_adic_valuation,
    primes_in_interval,
    primitive_root,
    unit_blocks,
)

SQUAREFREE = [1, 2, 3, 5, 6, 7, 10, 11, 13, 15, 21, 33, 35, 77, 105]


def test_theta_value():
    assert THETA == Fraction(7, 64)


def test_squarefree_modulus_accepts_and_rejects():
    m = SquarefreeModulus.from_int(30)
    assert m.value == 30
    assert m.prime_factors == (2, 3, 5)
    for bad in (4, 12, 18, 50, 0, -3):
        with pytest.raises(ValueError):
            SquarefreeModulus.from_int(bad)


@given(st.fractions(min_value=-10, max_value=10))
def test_e_is_periodic_and_unit_modulus(x):
    v = e(x)
    assert abs(abs(v) - 1) < 1e-12
    assert abs(v - e(x + 1)) < 1e-12


def test_e_exact_special_angles():
    assert e(Fraction(0)) == 1
    assert abs(e(Fraction(1, 2)) + 1) < 1e-15
    assert abs(e(Fraction(1, 4)) - 1j) < 1e-15


@pytest.mark.parametrize("n", SQUAREFREE)
def test_characters_are_multiplicative(n):
    for chi in enumerate_characters(n):
        for a in range(1, min(n, 12) + 1):
            for b in range(1, min(n, 12) + 1):
                lhs = chi(a) * chi(b)
                rhs = chi(a * b)
                assert abs(lhs - rhs) < 1e-12
        break  # one character per modulus keeps this quick; the sweep covers more


def test_character_count_is_group_order():
    # number of characters mod square-free n = prod (p-1) over odd primes
    for n in (3, 5, 15, 21, 35):
        expected = math.prod(p - 1 for p in SquarefreeModulus.from_int(n).prime_factors if p != 2)
        assert len(list(enumerate_characters(n))) == expected


def test_quadratic_character_is_legendre():
    chi = DirichletCharacter.quadratic(7)
    squares = {pow(a, 2, 7) for a in range(1, 7)}
    for a in range(1, 7):
        expected = 1 if a in squares else -1
        assert chi(a) == expected
    assert chi(7) == 0


def test_conjugate_inverts_angles():
    chi = next(c for c in enumerate_characters(13) if any(c.component_exponents.values()))
    bar = chi.conjugate()
    for a in range(1, 13):
        assert abs(chi(a) * bar(a) - 1) < 1e-12


def test_even_characters_fix_minus_one():
    for chi in enumerate_characters(15):
        val = chi(15 - 1)
        if chi.is_even():
            assert abs(val - 1) < 1e-12
        else:
            assert abs(val + 1) < 1e-12


def test_angle_is_exact_fraction_or_none():
    chi = DirichletCharacter.quadratic(11)
    assert chi.angle(2) in (Fraction(0), Fraction(1, 2))
    assert chi.angle(11) is None


@given(st.integers(min_value=1, max_value=10 ** 6),
       st.sampled_from([2, 3, 5, 7, 11]))
def test_p_adic_valuation(n, p):
    v = p_adic_valuation(n, p)
    assert n % p ** v == 0
    assert n % p ** (v + 1) != 0


def test_p_adic_valuation_rejects_zero_and_composite():
    with pytest.raises(ValueError):
        p_adic_valuation(0, 2)
    with pytest.raises(ValueError):
        p_adic_valuation(10, 4)


def test_primes_in_interval_excludes_modulus():
    assert primes_in_interval(2, 20) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert primes_in_interval(2, 20, 15) == [2, 7, 11, 13, 17, 19]


def _smallest_primitive_root(p):
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % r for r in range(2, q))]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 101, 409, 1009])
def test_angle_matches_power_table(p):
    # chi(g^k) = e(m k / (p - 1)) for the smallest primitive root g mod p
    g = _smallest_primitive_root(p)
    index = {pow(g, k, p): k for k in range(p - 1)}
    for m in sorted({1, (p - 1) // 2, p - 2, (7 * p) % (p - 1)}):
        chi = DirichletCharacter(SquarefreeModulus.from_int(p), {p: m})
        for a in range(1, p):
            want = Fraction(m * index[a] % (p - 1), p - 1)
            assert chi.angle(a) == want, (p, m, a)
            assert chi.angle(a - 3 * p) == want
        assert chi.angle(5 * p) is None


def test_angle_numerators_match_angle():
    mod = SquarefreeModulus.from_int(210)
    chi = DirichletCharacter(mod, {3: 1, 5: 2, 7: 5})
    assert chi.order() == 6
    units = np.array([a for a in range(210) if math.gcd(a, 210) == 1], dtype=np.int64)
    L = 7 * chi.order()
    k = chi.angle_numerators(units, L)
    assert [Fraction(int(x), L) for x in k] == [chi.angle(int(a)) for a in units]
    assert DirichletCharacter.trivial(210).order() == 1


@pytest.mark.parametrize("m", [1, 2, 12, 97, 360, 1001, 4096])
@pytest.mark.parametrize("block", [1, 7, 2 ** 16])
def test_unit_blocks_and_batch_inverse(m, block):
    blocks = list(unit_blocks(m, sympy.primefactors(m), block))
    assert all(0 < len(units) <= block for units in blocks)
    units = np.concatenate(blocks).tolist()
    assert units == [a for a in range(m) if math.gcd(a, m) == 1]
    # a bound below m gives the units under it, as the Kloosterman sums' a < m/2
    half = [int(a) for x in unit_blocks((m + 1) // 2, sympy.primefactors(m), block) for a in x]
    assert half == [a for a in units if 2 * a < m]
    for x in blocks:
        assert batch_inverse(x, m).tolist() == [pow(int(a), -1, m) for a in x]


# -- the number-theory core against sympy ------------------------------------

_BIG_N = math.prod(sympy.primerange(2, 54))    # the first 16 primes, > 2^64
_N_15 = _BIG_N // 53                            # the first 15 primes, below 2^63
_EDGES = [1, 2, 3, 4, 1021, 1031, 1021 ** 2, 1031 ** 2, 65537 ** 2, 2 ** 31 - 1,
          (2 ** 31 - 1) ** 2, 2 ** 61 - 1, 10 ** 18 + 9, _N_15, _BIG_N,
          998244353 * 1000000007, 3 * 1000003 ** 2]


@pytest.mark.parametrize("n", _EDGES)
def test_factorint_and_isprime_match_sympy_at_edges(n):
    assert factorint(n) == sympy.factorint(n)
    assert list(factorint(n)) == sorted(factorint(n))
    assert isprime(n) == sympy.isprime(n)


@given(st.one_of(st.integers(min_value=1, max_value=10 ** 6),
                 st.integers(min_value=1, max_value=2 ** 62)))
def test_factorint_and_isprime_match_sympy(n):
    assert factorint(n) == sympy.factorint(n)
    assert isprime(n) == sympy.isprime(n)


# the least strong pseudoprimes to the first k prime bases (OEIS A014233), each
# passing Miller-Rabin to those k bases; k runs up to 12 of the 13 that `isprime` uses
_STRONG_PSEUDOPRIMES = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                        341550071728321, 3825123056546413051, 318665857834031151167461]


@pytest.mark.parametrize("n", _STRONG_PSEUDOPRIMES)
def test_isprime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert isprime(n) is False
    if n < 2 ** 62:
        assert factorint(n) == sympy.factorint(n)


@given(st.integers(min_value=2, max_value=2 ** 31))
def test_isprime_of_prime_squares(n):
    p = sympy.prevprime(n + 1)
    assert isprime(p) and not isprime(p * p)
    assert factorint(p * p) == {p: 2}


@given(st.floats(min_value=2, max_value=5000), st.floats(min_value=0, max_value=5000),
       st.sampled_from([1, 15, 1001, 30030]))
def test_primes_in_interval_matches_sympy(lo, width, excluded):
    hi = lo + width
    want = [p for p in sympy.primerange(math.ceil(lo), math.floor(hi) + 1) if excluded % p]
    assert primes_in_interval(lo, hi, excluded) == want


def test_primitive_root_is_sympys_below_20000():
    # the character exponents, and so every report, refer to this generator
    for p in sympy.primerange(2, 20000):
        assert primitive_root(p) == sympy.primitive_root(p), p
    with pytest.raises(ValueError):
        primitive_root(15)


def test_core_domain():
    # past the exact Miller-Rabin range a part that trial division leaves raises
    big_prime = sympy.nextprime(MILLER_RABIN_LIMIT)
    for fn in (factorint, isprime):
        with pytest.raises(ValueError, match="past the exact primality range"):
            fn(big_prime)
    with pytest.raises(ValueError, match="past the exact primality range"):
        factorint(sympy.nextprime(10 ** 13) * sympy.nextprime(10 ** 14))
    # a larger n whose cofactor after trial division is inside the range is exact
    assert factorint(2 ** 100 * 3 * (2 ** 61 - 1)) == {2: 100, 3: 1, 2 ** 61 - 1: 1}
    assert isprime(MILLER_RABIN_LIMIT + 1) is False    # even
    with pytest.raises(ValueError):
        factorint(0)


def test_sieve_cap_raises_before_allocating():
    assert primes_in_interval(SIEVE_LIMIT - 100, SIEVE_LIMIT) == \
        list(sympy.primerange(SIEVE_LIMIT - 100, SIEVE_LIMIT + 1))
    with pytest.raises(ResourceLimitError, match="sieve cap"):
        primes_in_interval(2, SIEVE_LIMIT + 1)
    with pytest.raises(ResourceLimitError):
        primes_in_interval(10 ** 12, 2 * 10 ** 12)
