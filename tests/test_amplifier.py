import math
import random

import pytest

from supnorm import amplifier
from supnorm.amplifier import HeckeSystem
from supnorm.arithmetic import DirichletCharacter, SquarefreeModulus, enumerate_characters

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _system(seed=0, modulus=1):
    rng = random.Random(seed)
    chi = DirichletCharacter.trivial(modulus)
    return HeckeSystem(chi, {p: rng.uniform(-2, 2) for p in PRIMES})


def test_eigenvalue_recursion():
    sys_ = _system()
    lam2 = sys_.eigenvalue(2)
    # lambda(4) = lambda(2)^2 - chi(2), lambda(8) = lambda(2)lambda(4) - chi(2)lambda(2)
    assert sys_.eigenvalue(4) == pytest.approx(lam2 * lam2 - 1)
    assert sys_.eigenvalue(8) == pytest.approx(lam2 * sys_.eigenvalue(4) - lam2)


def test_eigenvalue_multiplicative_on_coprime():
    sys_ = _system(1)
    assert sys_.eigenvalue(6) == pytest.approx(sys_.eigenvalue(2) * sys_.eigenvalue(3))
    assert sys_.eigenvalue(1) == 1.0


def test_eigenvalue_rejects_bad_input():
    sys_ = _system()
    with pytest.raises(ValueError):
        sys_.eigenvalue(0)
    with pytest.raises(ValueError):
        sys_.eigenvalue(53)  # no eigenvalue assigned at that prime


def test_multiplicativity_defect_vanishes():
    sys_ = _system(2)
    for m, n in ((2, 3), (4, 6), (12, 18), (8, 8)):
        assert amplifier.multiplicativity_defect(sys_, m, n) < 1e-12


def test_build_amplifier_support():
    sys_ = _system(0, modulus=5)
    amp = amplifier.build_amplifier(sys_, 10.0, SquarefreeModulus.from_int(5))
    assert amp.lambda1 == (11, 13, 17, 19)
    assert amp.lambda2 == (121, 169, 289, 361)
    assert set(amp.coefficients) == set(amp.lambda1) | set(amp.lambda2)
    with pytest.raises(ValueError):
        amplifier.build_amplifier(sys_, 1.0, SquarefreeModulus.from_int(5))


def test_amplifier_excludes_level_primes():
    sys_ = _system(0, modulus=11)
    amp = amplifier.build_amplifier(sys_, 10.0, SquarefreeModulus.from_int(11))
    assert 11 not in amp.lambda1


def test_is_variant_support():
    sys_ = _system(0)
    amp = amplifier.build_is_amplifier(sys_, 30.0, SquarefreeModulus.from_int(1))
    assert amp.lambda1 == (2, 3, 5)
    with pytest.raises(ValueError):
        amplifier.build_is_amplifier(sys_, 3.0, SquarefreeModulus.from_int(1))


@pytest.mark.parametrize("build", [amplifier.build_amplifier, amplifier.build_is_amplifier])
@pytest.mark.parametrize("length", [math.inf, math.nan])
def test_builders_reject_non_finite_length(build, length):
    with pytest.raises(ValueError, match="need 2 <= lo <= hi < inf"):
        build(_system(0), length, SquarefreeModulus.from_int(1))


def test_diagonal_telescopes_to_prime_count():
    for seed in range(10):
        sys_ = _system(seed, modulus=5)
        amp = amplifier.build_amplifier(sys_, 10.0, SquarefreeModulus.from_int(5))
        value = amplifier.amplifier_diagonal_value(sys_, amp)
        assert value == pytest.approx(len(amp.lambda1), rel=1e-12)


def test_diagonal_with_nontrivial_character():
    for chi in enumerate_characters(7):
        rng = random.Random(4)
        sys_ = HeckeSystem(chi, {p: rng.uniform(-2, 2) for p in PRIMES})
        amp = amplifier.build_amplifier(sys_, 5.0, SquarefreeModulus.from_int(7))
        value = amplifier.amplifier_diagonal_value(sys_, amp)
        assert abs(value - len(amp.lambda1)) < 1e-9
        assert amplifier.amplifier_diagonal_symbolic(sys_, amp) == len(amp.lambda1)
