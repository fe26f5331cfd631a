import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from supnorm import kloosterman
from supnorm.arithmetic import DirichletCharacter, SquarefreeModulus, enumerate_characters
from supnorm.kloosterman import (
    KloostermanQuery,
    divisor_count,
    kloosterman_sum,
    kloosterman_weil_check,
)

TRIVIAL = DirichletCharacter.trivial(1)


def brute_force(m, n, c, chi):
    total = 0j
    if c == 1:
        return 1 + 0j
    for a in range(1, c):
        if math.gcd(a, c) != 1:
            continue
        abar = pow(a, -1, c)
        from supnorm.arithmetic import e
        total += chi.conjugate()(a) * e((m * abar + n * a) / c)
    return total


def test_c_equals_one():
    assert kloosterman_sum(KloostermanQuery(3, 5, 1, TRIVIAL)) == 1


def test_classical_value_s_1_1_2():
    # S(1,1;2) = e((1+1)/2) = e(1) = 1... only a=1 contributes: e(2/2) = 1
    assert abs(kloosterman_sum(KloostermanQuery(1, 1, 2, TRIVIAL)) - 1) < 1e-12


def test_classical_value_s_1_1_3():
    # a=1: e(2/3); a=2: abar=2, e(4/3) -> sum = 2 cos(2 pi / 3) = -1
    assert abs(kloosterman_sum(KloostermanQuery(1, 1, 3, TRIVIAL)) + 1) < 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(2, 60))
def test_matches_independent_brute_force(m, n, c):
    q = KloostermanQuery(m, n, c, TRIVIAL)
    assert abs(kloosterman_sum(q) - brute_force(m, n, c, TRIVIAL)) < 1e-9


def test_symmetry_in_m_n():
    for c in (5, 12, 35):
        a = kloosterman_sum(KloostermanQuery(2, 7, c, TRIVIAL))
        b = kloosterman_sum(KloostermanQuery(7, 2, c, TRIVIAL))
        assert abs(a - b) < 1e-10


def test_trivial_sum_is_real():
    # a and -a are summed as one cosine, so the imaginary part is exactly 0
    for c in list(range(1, 40)) + [1009, 30030, 2 ** 15]:
        v = kloosterman_sum(KloostermanQuery(1, 4, c, TRIVIAL))
        assert v.imag == 0.0


def test_twisted_matches_brute_force():
    for chi in enumerate_characters(5):
        for c in (5, 10, 15):
            q = KloostermanQuery(1, 2, c, chi)
            assert abs(kloosterman_sum(q) - brute_force(1, 2, c, chi)) < 1e-9


@pytest.mark.parametrize("c", [1, 2, 3, 4, 6])
def test_small_c_with_a_zero_coefficient(c):
    # c <= 2, where a = -a, and the least c that pair a unit with its negative
    for m, n in [(0, 5), (c, -7), (3, 2 * c), (-2 * c, 0), (0, 0)]:
        for chi in enumerate_characters(math.gcd(c, 15)):
            q = KloostermanQuery(m, n, c, chi)
            assert abs(kloosterman_sum(q) - brute_force(m, n, c, chi)) < 1e-9, (m, n, chi)


@pytest.mark.parametrize("big_n", [15, 21])
def test_every_character_of_both_parities(big_n):
    parities = set()
    for i, chi in enumerate(enumerate_characters(big_n)):
        parities.add(chi.is_even())
        m, n = 3 - 2 * i, 5 + i
        for k in (1, 2, 4):
            q = KloostermanQuery(m, n, big_n * k, chi)
            assert abs(kloosterman_sum(q) - brute_force(m, n, big_n * k, chi)) < 1e-9, \
                (chi.component_exponents, k)
    assert parities == {True, False}


def test_rejects_modulus_not_dividing_c():
    chi = DirichletCharacter.quadratic(5)
    with pytest.raises(ValueError):
        KloostermanQuery(1, 1, 7, chi)
    with pytest.raises(ValueError):
        KloostermanQuery(1, 1, 0, TRIVIAL)


def test_divisor_count():
    assert [divisor_count(c) for c in (1, 2, 6, 12, 36, 97)] == [1, 2, 4, 6, 9, 2]


def test_weil_reference_for_squarefree_trivial():
    # square-root bound: ratio <= 1 for trivial character, square-free c
    for c in (2, 3, 5, 7, 11, 13, 15, 21, 30, 105):
        rep = kloosterman_weil_check(KloostermanQuery(1, 1, c, TRIVIAL))
        assert rep["ratio"] <= 1.0 + 1e-12, (c, rep)


def test_weil_gcd_factor():
    # m = n = 0 gives Ramanujan sum phi(c) <= tau(c) sqrt(c) sqrt(c)
    rep = kloosterman_weil_check(KloostermanQuery(0, 0, 36, TRIVIAL))
    assert rep["ratio"] <= 1.0


# -- independent oracles for the vectorised engine ---------------------------

def _legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_rejects_c_beyond_int64_phases():
    with pytest.raises(ValueError):
        KloostermanQuery(1, 1, 2 ** 31, TRIVIAL)


def test_weil_bound_at_primes():
    # |S(m, n; p)| <= 2 sqrt(p) for every prime p not dividing mn
    primes = list(sympy.primerange(3, 20_000))
    for i, p in enumerate(primes[::10] + primes[-3:]):
        m, n = 1 + i % 47, -(2 + i % 31)
        assert abs(kloosterman_sum(KloostermanQuery(m, n, p, TRIVIAL))) <= 2 * math.sqrt(p) + 1e-9


def test_legendre_twist_matches_salie():
    # Salie: S_chi(m, n; p) = eps_p sqrt(p) (n/p) sum_{y^2 = 4mn mod p} e(y/p)
    primes = list(sympy.primerange(3, 10_000))
    for i, p in enumerate(primes[::10] + primes[-3:]):
        m, n = (1 + i % 41) * (-1) ** i, 3 + i % 29
        if (m * n) % p == 0:
            continue
        y = np.arange(p)
        roots = y[(y * y - 4 * m * n) % p == 0]
        eps = 1 if p % 4 == 1 else 1j
        closed = eps * math.sqrt(p) * _legendre(n, p) * np.exp(2j * np.pi * roots / p).sum()
        chi = DirichletCharacter.quadratic(p)
        assert abs(kloosterman_sum(KloostermanQuery(m, n, p, chi)) - closed) < 1e-9 * math.sqrt(p)


def _restrict(chi, divisor):
    """The component of chi on a divisor of its modulus."""
    if chi.modulus.value % divisor != 0:
        raise ValueError("not a divisor of the modulus")
    mod = SquarefreeModulus.from_int(divisor)
    return DirichletCharacter(mod, {p: chi.component_exponents.get(p, 0)
                                    for p in mod.prime_factors if p != 2})


def test_restrict_to_divisor():
    chi = next(c for c in enumerate_characters(15) if any(c.component_exponents.values()))
    part = _restrict(chi, 5)
    assert part.modulus.value == 5
    with pytest.raises(ValueError):
        _restrict(chi, 7)


@pytest.mark.parametrize("big_n, n1, k1, k2", [(105, 15, 4, 11), (105, 7, 2, 13), (231, 3, 8, 5),
                                                (231, 77, 1, 9)])
def test_twisted_multiplicativity(big_n, n1, k1, k2):
    # c = c1 c2 coprime, chi = chi1 chi2 with chi_i mod N_i | c_i:
    # S_chi(m, n; c) = conj(chi1(c2) chi2(c1)) S_chi1(m c2bar^2, n; c1) S_chi2(m c1bar^2, n; c2)
    n2 = big_n // n1
    c1, c2 = n1 * k1, n2 * k2
    chars = list(enumerate_characters(big_n))
    for i, chi in enumerate(chars[1::len(chars) // 8]):
        m, n = (-1) ** i * (5 + 7 * i), 3 * i - 11
        chi1, chi2 = _restrict(chi, n1), _restrict(chi, n2)
        c2bar, c1bar = pow(c2, -1, c1), pow(c1, -1, c2)
        whole = kloosterman_sum(KloostermanQuery(m, n, c1 * c2, chi))
        parts = ((chi1(c2) * chi2(c1)).conjugate()
                 * kloosterman_sum(KloostermanQuery(m * c2bar ** 2, n, c1, chi1))
                 * kloosterman_sum(KloostermanQuery(m * c1bar ** 2, n, c2, chi2)))
        assert abs(whole - parts) < 1e-9 * math.sqrt(c1 * c2), (chi.component_exponents, m, n)


@pytest.mark.parametrize("c", [8, 9, 25, 27, 36, 50, 72, 2 ** 10])
@pytest.mark.parametrize("m, n", [(1, 2), (-3, 5), (-7, -4), (3 * 1031, -2 * 1031 - 1)])
def test_matches_brute_force_at_non_squarefree_c(c, m, n):
    for chi in enumerate_characters(math.gcd(c, 15)):
        q = KloostermanQuery(m, n, c, chi)
        assert abs(kloosterman_sum(q) - brute_force(m, n, c, chi)) < 1e-9, chi.component_exponents


def test_sum_does_not_depend_on_block_size(monkeypatch):
    chi = next(ch for ch in enumerate_characters(105) if all(ch.component_exponents.values()))
    queries = [KloostermanQuery(2, -9, c, TRIVIAL) for c in (97, 210, 1024, 4099)]
    queries += [KloostermanQuery(-4, 13, 105 * k, chi) for k in (1, 4, 11)]
    whole = [kloosterman_sum(q) for q in queries]
    monkeypatch.setattr(kloosterman, "_BLOCK", 7)
    for q, w in zip(queries, whole):
        assert abs(kloosterman_sum(q) - w) < 1e-9, q
