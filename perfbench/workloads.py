"""The benchmark's workloads: seeded inputs and the operations run on them.

An operation is one verify property, one Kloosterman sum or one counting
instance.  ``build(name, seed)`` makes the whole operation list of one round
from the seed alone; the program receives only the generated inputs.  The
input mix is stratified (fixed sizes per stratum, seeded values inside it) so
that the cost of a round barely depends on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import sympy

import checks
from supnorm import counting, exponents, kloosterman, transforms, verify
from supnorm.arithmetic import DirichletCharacter, SquarefreeModulus


@dataclass
class Op:
    kind: str
    label: str  # the operation's inputs, for reports of a failure
    run: Callable[[], Any]
    check: Callable[[Any], list]
    # counters derived from the input and output, e.g. Kloosterman units summed
    tally: Callable[[Any], dict] = field(default=lambda out: {})


# ---------------------------------------------------------------------------
# verify-suite: the 13 properties, each as one run_verify call
# ---------------------------------------------------------------------------

# (A, B, k) and (A, B, t) at which the quadratures are compared with the exact
# closed form; t is one of the sweep's spectral values, so its Bessel ratio is
# already cached when the check runs.
QUADRATURE_DOT = ((10, 2, 4), (12, 2, 6))
QUADRATURE_TILDE = ((8, 2, Fraction(1, 2)), (10, 4, Fraction(2)))


def quadrature_points() -> list:
    points = []
    for a, b, k in QUADRATURE_DOT:
        q = transforms.dot_transform_quadrature(transforms.TestFunction(a, b), k)
        points.append((f"dot A={a} B={b} k={k}", q,
                       checks.closed_form(a, b, -Fraction(k - 1, 2) ** 2)))
    for a, b, t in QUADRATURE_TILDE:
        q = transforms.tilde_transform_quadrature(transforms.TestFunction(a, b), float(t))
        points.append((f"tilde A={a} B={b} t={t}", q, checks.closed_form(a, b, t * t)))
    return points


def _check_verify(prop_id: str, report: dict) -> list:
    problems = checks.check_property(prop_id, report)
    if prop_id == "transforms/closed-vs-quadrature":
        problems += checks.check_quadrature(quadrature_points())
    elif prop_id == "exponents/reproduction":
        problems += checks.check_exponents(exponents.theorem1_final(),
                                           exponents.theorem2_combination())
    return problems


def verify_suite(seed: int) -> list[Op]:
    cfg = verify.RunConfig(seed=seed)
    return [Op(kind=prop_id, label=f"seed={seed}",
               run=lambda p=prop_id: verify.run_verify(cfg, selector=p),
               check=lambda out, p=prop_id: _check_verify(p, out))
            for prop_id in checks.PROPERTY_LIMITS]


# ---------------------------------------------------------------------------
# kloosterman-large: untwisted, Legendre-twisted and general-character sums
# ---------------------------------------------------------------------------

def _prime_near(rng: random.Random, target: float) -> int:
    return sympy.nextprime(int(target * rng.uniform(0.98, 1.02)))


def _nonzero(rng: random.Random, bound: int = 60) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


# Character moduli: three odd primes each, so every term of a twisted sum
# evaluates the same number of components.
CHARACTER_MODULI = (105, 165, 195, 231)
CHARACTER_UNITS = 6000


def _kloosterman_op(kind: str, m: int, n: int, c: int, chi: DirichletCharacter,
                    units: int, check: Callable[[complex], list]) -> Op:
    query = kloosterman.KloostermanQuery(m, n, c, chi)
    label = f"m={m} n={n} c={c} chi={chi.modulus.value}:{chi.component_exponents}"
    return Op(kind=kind, label=label, run=lambda: kloosterman.kloosterman_sum(query), check=check,
              tally=lambda out: {"units": units})


def kloosterman_large(seed: int) -> list[Op]:
    rng = random.Random(f"kloosterman-large:{seed}")
    trivial = DirichletCharacter.trivial(1)
    ops = []
    for target in (15_000, 90_000):
        p, m, n = _prime_near(rng, target), _nonzero(rng), _nonzero(rng)
        ops.append(_kloosterman_op(
            "untwisted-prime", m, n, p, trivial, p - 1,
            lambda s, m=m, n=n, p=p: checks.check_untwisted_real(s, p)
            + checks.check_weil(s, m, n, p)))
    for _ in range(2):
        p1, p2 = _prime_near(rng, 160), _prime_near(rng, 190)
        m, n = _nonzero(rng), _nonzero(rng)
        ops.append(_kloosterman_op(
            "untwisted-composite", m, n, p1 * p2, trivial, (p1 - 1) * (p2 - 1),
            lambda s, m=m, n=n, p1=p1, p2=p2: checks.check_untwisted_real(s, p1 * p2)
            + checks.check_multiplicative(s, m, n, p1, p2)))
    for target in (2_000, 8_000):
        p, m, n = _prime_near(rng, target), _nonzero(rng), _nonzero(rng)
        ops.append(_kloosterman_op(
            "legendre", m, n, p, DirichletCharacter.quadratic(p), p - 1,
            lambda s, m=m, n=n, p=p: checks.check_salie(s, m, n, p)))
    for _ in range(2):
        big_n = rng.choice(CHARACTER_MODULI)
        mod = SquarefreeModulus.from_int(big_n)
        exps = {p: rng.randrange(1, p - 1) for p in mod.prime_factors if p != 2}
        phi = math.prod(p - 1 for p in mod.prime_factors)
        k = _prime_near(rng, CHARACTER_UNITS / phi)
        while big_n % k == 0:
            k = sympy.nextprime(k)
        m, n = _nonzero(rng), _nonzero(rng)
        ops.append(_kloosterman_op(
            "character", m, n, big_n * k, DirichletCharacter(mod, exps), phi * (k - 1),
            lambda s, m=m, n=n, big_n=big_n, k=k, exps=exps: checks.check_multiplicative(
                s, m, n, big_n, k, checks.Character(big_n, exps), None)))
    return ops


# ---------------------------------------------------------------------------
# counting-oracles: box quadruples, admissible residues, determinant-n matrices
# ---------------------------------------------------------------------------

# (C, S, R, R_tilde, N) per box stratum; d1, d2 and u are seeded
BOX_STRATA = ((12, 40, 16, 16, 31), (16, 30, 18, 18, 35), (8, 60, 14, 14, 37))
# (N, target modulus N*c) per admissible-residue stratum; c is a seeded prime
ADMISSIBLE_STRATA = ((5, 40_000), (7, 60_000), (11, 80_000), (13, 100_000))
# levels of the matrix instances; the oracle's cost grows as the level falls
MATRIX_LEVELS = (1, 2, 3, 5, 7, 10)
MATRIX_ENTRY_BOUND = 60


def _box_op(rng: random.Random, C: int, S: int, R: int, Rt: int, big_n: int) -> Op:
    d1, d2, u = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, big_n)
    inst = counting.CountingInstance(C=C, S=S, R=R, R_tilde=Rt, d1=d1, d2=d2, u=u,
                                     N=SquarefreeModulus.from_int(big_n))

    def check(out):
        fast, oracle = out
        return (checks.check_same_elements(fast, oracle)
                + checks.check_box_quadruples(fast, C, S, R, Rt, d1, d2, u, big_n))
    return Op(kind="box", label=repr(inst),
              run=lambda: (counting.enumerate_A(inst), counting.enumerate_A_naive(inst)),
              check=check)


def _admissible_op(rng: random.Random, big_n: int, target: int) -> Op:
    c = _prime_near(rng, target / big_n)
    l1, l2 = [rng.choice([v for v in range(1, 31) if math.gcd(v, big_n) == 1]) for _ in "12"]
    inst = counting.CongruenceReductionInstance(
        l1=l1, l2=l2, d1=rng.randint(1, 3), d2=rng.randint(1, 3), c=c, u=rng.randint(1, 10),
        N=SquarefreeModulus.from_int(big_n), R1=big_n * c / 8, R2=big_n * c / 8)
    return Op(kind="admissible", label=repr(inst), run=lambda: counting.count_admissible_a(inst),
              check=checks.check_admissible)


def _matrix_op(rng: random.Random, level: int) -> Op:
    n = rng.choice([v for v in range(1, 21) if math.gcd(v, level) == 1])
    x, y, delta = rng.uniform(-1, 1), rng.uniform(0.3, 2.0), rng.uniform(0.0, 1.0)
    inst = counting.MatrixCountInstance(x=x, y=y, n=n, N=SquarefreeModulus.from_int(level),
                                        delta=delta)

    def check(out):
        fast, oracle = out
        return (checks.check_same_elements(fast, oracle)
                + checks.check_matrices(fast, x, y, n, level, delta))
    return Op(kind="matrices", label=repr(inst),
              run=lambda: (counting.enumerate_R_N_matrices(inst),
                           counting.enumerate_matrices_naive(inst, MATRIX_ENTRY_BOUND)),
              check=check, tally=lambda out: {"accepted": len(out[0]) + len(out[1])})


def counting_oracles(seed: int) -> list[Op]:
    rng = random.Random(f"counting-oracles:{seed}")
    ops = [_box_op(rng, *stratum) for stratum in BOX_STRATA for _ in range(3)]
    ops += [_admissible_op(rng, *stratum) for stratum in ADMISSIBLE_STRATA for _ in range(2)]
    ops += [_matrix_op(rng, level) for level in MATRIX_LEVELS for _ in range(3)]
    return ops


WORKLOADS = {
    "verify-suite": verify_suite,
    "kloosterman-large": kloosterman_large,
    "counting-oracles": counting_oracles,
}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](seed)
