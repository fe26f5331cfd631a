"""Output checks for the benchmark workloads.

Every check is computed here, from the inputs and the program's output, with
no reference to a stored copy of an earlier output and no use of the
program's own limits.  Each function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

# The benchmark's own copy of each property's limit.  It is deliberately not
# read from ``supnorm.verify.PINNED_LIMITS``: loosening a limit in the program
# must not make the benchmark pass.
PROPERTY_LIMITS = {
    "transforms/closed-vs-quadrature": 1e-6,
    "transforms/positivity": None,
    "exponents/reproduction": None,
    "counting/box-bounds": 1e4,
    "counting/congruence-reduction": 0.0,
    "counting/matrices-ubound": 100.0,
    "counting/matrices-geometric": 1e3,
    "amplifier/diagonal": 1e-9,
    "specfun/grid": 50.0,
    "oscillatory/poisson-decay": 100.0,
    "oscillatory/kernel-integrals": 50.0,
    "oscillatory/partition": 1e-12,
    "kloosterman/weil-reference": 1.0,
}

# Instance counts of the sweeps at the commit that defined the benchmark; a
# sweep that shrinks below them checks less and counts as a failure.
MIN_INSTANCES = {
    "transforms/closed-vs-quadrature": 36,
    "counting/box-bounds": 60,
    "counting/congruence-reduction": 100,
    "counting/matrices-ubound": 50,
    "amplifier/diagonal": 50,
    "kloosterman/weil-reference": 40,
}


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------

def _property_fitted(prop_id: str, d: dict) -> tuple[float, list[str]]:
    """The fitted constant recomputed from a property's detail, plus the
    side conditions that do not reduce to one number."""
    side = []
    if prop_id == "transforms/closed-vs-quadrature":
        return max(d["max_rel_dot"], d["max_rel_tilde"]), side
    if prop_id == "transforms/positivity":
        return 0.0, [] if d["all_positive"] else ["a transform is not positive"]
    if prop_id == "exponents/reproduction":
        bad = sorted(k for k, ok in d["checks"].items() if not ok)
        return 0.0, [f"exponent checks failed: {bad}"] if bad else []
    if prop_id == "counting/box-bounds":
        if not d["dual_oracle_ok"]:
            side.append("enumerate_A disagrees with its oracle")
        return d["fitted_constant"], side
    if prop_id == "counting/congruence-reduction":
        if not d["multiplicity_ok"]:
            side.append("multiplicity bound exceeded")
        return float(d["violations"]), side
    if prop_id == "counting/matrices-ubound":
        if not d["all_equal"]:
            side.append("matrix enumerator disagrees with its oracle")
        return d["ubound_constant"], side
    if prop_id == "counting/matrices-geometric":
        return d["geometric_constant"], side
    if prop_id == "amplifier/diagonal":
        # symbolic_exact cannot fail at this commit, so it is not evidence
        return d["max_rel_error"], side
    if prop_id == "specfun/grid":
        if not d["recurrence_max_error"] < 1e-6:
            side.append(f"recurrence error {d['recurrence_max_error']:.3g} >= 1e-6")
        if not d["ibp_max_rel_error"] < 1e-7:
            side.append(f"integration-by-parts error {d['ibp_max_rel_error']:.3g} >= 1e-7")
        return max(d["bessel_j_constant"], d["bessel_k_constant"],
                   d["whittaker_constant"], d["transition_constant"]), side
    if prop_id == "oscillatory/poisson-decay":
        if not d["slopes"][2] <= -1.8:
            side.append(f"j=2 decay slope {d['slopes'][2]:.3g} > -1.8")
        if not d["slopes"][3] <= -2.8:
            side.append(f"j=3 decay slope {d['slopes'][3]:.3g} > -2.8")
        return max(d["C2"], d["C3"]), side
    if prop_id == "oscillatory/kernel-integrals":
        return max(d["bound1_constant"], d["bound2_constant"]), side
    if prop_id == "oscillatory/partition":
        return d["max_deviation"], side
    if prop_id == "kloosterman/weil-reference":
        return d["max_ratio_squarefree_trivial"], side
    raise KeyError(prop_id)


def check_property(prop_id: str, report: dict) -> list[str]:
    """One ``run_verify(selector=prop_id)`` report against the benchmark's
    own limits and instance counts."""
    records = [r for r in report.get("properties", []) if r.get("id") == prop_id]
    if len(records) != 1:
        return [f"expected one record for {prop_id}, got {len(records)}"]
    rec = records[0]
    problems = []
    if not rec["passed"]:
        problems.append("the program reports the property as failed")
    fitted, side = _property_fitted(prop_id, rec["detail"])
    problems += side
    limit = PROPERTY_LIMITS[prop_id]
    if limit is not None and not fitted <= limit:
        problems.append(f"fitted constant {fitted:.6g} exceeds the limit {limit:.6g}")
    need = MIN_INSTANCES.get(prop_id)
    if need is not None and rec["detail"]["instances"] < need:
        problems.append(f"{rec['detail']['instances']} instances, fewer than {need}")
    return problems


def closed_form(A: int, B: int, spectral_sq: Fraction) -> Fraction:
    """Coefficient of 1/pi in both transforms of J_A(x) x^{-B}:
    B!/2^(B+1) * prod_{j=0..B} (((A+B)/2 - j)^2 + spectral_sq)^(-1), where
    spectral_sq is t^2 (continuous) or -((k-1)/2)^2 (discrete, weight k)."""
    value = Fraction(math.factorial(B), 2 ** (B + 1))
    half = Fraction(A + B, 2)
    for j in range(B + 1):
        value /= (half - j) ** 2 + spectral_sq
    return value


def check_quadrature(points, rel_tol: float = 1e-6) -> list[str]:
    """points: (label, quadrature value, exact closed-form coefficient of 1/pi)."""
    problems = []
    for label, quad, coeff in points:
        exact = float(coeff) / math.pi
        if not abs(quad - exact) <= rel_tol * abs(exact):
            problems.append(f"{label}: quadrature {quad!r} vs closed form {exact!r}")
    return problems


# Exponents of the paper's final balance.
PAPER_EXPONENTS = {
    "H": (Fraction(313, 457), Fraction(-1803, 914)),
    "L": (Fraction(64, 457), Fraction(96, 457)),
    "final": (Fraction(-25, 914), Fraction(9979, 1828)),
    "hybrid": Fraction(-1, 2269),
}


def check_exponents(theorem1: dict, theorem2: dict) -> list[str]:
    """``exponents.theorem1_final()`` and ``theorem2_combination()`` against
    the paper's fractions."""
    got = {
        "H": (theorem1["H"].exponent("N"), theorem1["H"].exponent("t_star")),
        "L": (theorem1["L"].exponent("N"), theorem1["L"].exponent("t_star")),
        "final": (theorem1["exponent_N"], theorem1["exponent_t_star"]),
        "hybrid": theorem2["final_exponent"],
    }
    return [f"{key}: {got[key]} != {want}" for key, want in PAPER_EXPONENTS.items()
            if got[key] != want]


# ---------------------------------------------------------------------------
# kloosterman-large
# ---------------------------------------------------------------------------

def _e(x: Fraction) -> complex:
    x -= math.floor(x)
    return cmath.exp(2j * math.pi * float(x))


def smallest_primitive_root(p: int) -> int:
    if p == 2:
        return 1
    factors = [q for q in range(2, p) if (p - 1) % q == 0
               and all(q % r for r in range(2, math.isqrt(q) + 1))]
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


class Character:
    """A Dirichlet character mod square-free N, given per odd prime p by the
    exponent m_p with chi(g_p) = e(m_p/(p-1)) for the smallest primitive root
    g_p; evaluated from a power table, not by discrete logarithms."""

    def __init__(self, modulus: int, exponents: dict[int, int]):
        self.modulus = modulus
        self.parts = []
        for p, m in exponents.items():
            g = smallest_primitive_root(p)
            index = {}
            x = 1
            for k in range(p - 1):
                index[x] = k
                x = x * g % p
            self.parts.append((p, m, index))

    def angle(self, a: int) -> Fraction | None:
        if math.gcd(a, self.modulus) != 1:
            return None
        x = sum((Fraction(m * idx[a % p], p - 1) for p, m, idx in self.parts), Fraction(0))
        return x - math.floor(x)

    def __call__(self, a: int) -> complex:
        x = self.angle(a)
        return 0j if x is None else _e(x)


def direct_sum(m: int, n: int, c: int, chi: Character | None = None) -> complex:
    """sum over units a mod c of conj(chi(a)) e((m abar + n a)/c)."""
    total = 0j
    for a in range(1, c + 1):
        if math.gcd(a, c) != 1:
            continue
        x = Fraction((m * pow(a, -1, c) + n * a) % c, c)
        if chi is not None:
            x -= chi.angle(a)
        total += _e(x)
    return total


def _tol(c: int) -> float:
    return 1e-8 * math.sqrt(c)


def check_untwisted_real(value: complex, c: int) -> list[str]:
    if abs(value.imag) > _tol(c):
        return [f"untwisted sum mod {c} has imaginary part {value.imag:.3g}"]
    return []


def check_weil(value: complex, m: int, n: int, p: int) -> list[str]:
    """|S(m, n; p)| <= 2 sqrt(p) at a prime p not dividing mn."""
    if (m * n) % p == 0:
        return [f"Weil bound needs p = {p} not dividing mn"]
    if abs(value) > 2 * math.sqrt(p) + _tol(p):
        return [f"|S| = {abs(value):.6g} exceeds 2 sqrt({p})"]
    return []


def legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def salie(m: int, n: int, p: int) -> complex:
    """Salie's closed form eps_p sqrt(p) (n/p) sum_{y^2 = 4mn mod p} e(y/p)
    for the Legendre-twisted sum at an odd prime p not dividing mn."""
    eps = 1 if p % 4 == 1 else 1j
    roots = [y for y in range(p) if (y * y - 4 * m * n) % p == 0]
    return eps * math.sqrt(p) * legendre(n, p) * sum(_e(Fraction(y, p)) for y in roots)


def check_salie(value: complex, m: int, n: int, p: int) -> list[str]:
    if (m * n) % p == 0:
        return [f"Salie's form needs p = {p} not dividing mn"]
    ref = salie(m, n, p)
    if abs(value - ref) > _tol(p):
        return [f"S = {value:.12g} differs from Salie's form {ref:.12g}"]
    return []


def twisted_product(m: int, n: int, c1: int, c2: int,
                    chi1: Character | None, chi2: Character | None) -> complex:
    """chibar1(c2) chibar2(c1) S_chi1(m c2bar^2, n; c1) S_chi2(m c1bar^2, n; c2)
    for coprime c1, c2, with both small sums summed directly."""
    c2bar, c1bar = pow(c2, -1, c1), pow(c1, -1, c2)
    twist = 1 + 0j
    if chi1 is not None:
        twist *= chi1(c2).conjugate()
    if chi2 is not None:
        twist *= chi2(c1).conjugate()
    return (twist * direct_sum(m * c2bar * c2bar, n, c1, chi1)
            * direct_sum(m * c1bar * c1bar, n, c2, chi2))


def check_multiplicative(value: complex, m: int, n: int, c1: int, c2: int,
                         chi1: Character | None = None,
                         chi2: Character | None = None) -> list[str]:
    if math.gcd(c1, c2) != 1:
        return [f"multiplicativity needs coprime factors, got {c1} and {c2}"]
    ref = twisted_product(m, n, c1, c2, chi1, chi2)
    if abs(value - ref) > _tol(c1 * c2):
        return [f"S = {value:.12g} differs from the factorised {ref:.12g}"]
    return []


# ---------------------------------------------------------------------------
# counting-oracles
# ---------------------------------------------------------------------------

def check_same_elements(fast: list, oracle: list) -> list[str]:
    if fast != oracle:
        extra = len(set(fast) - set(oracle))
        missing = len(set(oracle) - set(fast))
        return [f"fast path and oracle differ: {len(fast)} vs {len(oracle)} elements "
                f"({extra} only in the fast path, {missing} only in the oracle)"]
    return []


def check_box_quadruples(quads: list, C: int, S: int, R: int, R_tilde: int,
                         d1: int, d2: int, u: int, N: int) -> list[str]:
    """C <= c < 2C, |s| <= S, |r1| <= R, |r2| <= R_tilde and
    N | u^2 d1 d2 c + u (d1 r2 + d2 r1) + s for every quadruple."""
    bad = [q for q in quads
           if not (C <= q[0] < 2 * C and abs(q[1]) <= S and abs(q[2]) <= R
                   and abs(q[3]) <= R_tilde)
           or (u * u * d1 * d2 * q[0] + u * (d1 * q[3] + d2 * q[2]) + q[1]) % N]
    return [f"{len(bad)} quadruples outside the box or the congruence, e.g. {bad[0]}"] if bad else []


def point_pair_u(x: float, y: float, g) -> float:
    """u(z, gz) = |c z^2 + (d - a) z - b|^2 / (4 n y^2) with n = ad - bc."""
    a, b, c, d = g
    z = complex(x, y)
    return abs(c * z * z + (d - a) * z - b) ** 2 / (4 * (a * d - b * c) * y * y)


def check_matrices(mats: list, x: float, y: float, n: int, N: int,
                   delta: float) -> list[str]:
    """ad - bc = n, c >= 0, N | c and u(z, gz) < delta for every matrix; u is
    compared with a margin of 1e-9 for the rounding of the two formulas."""
    bad = [g for g in mats
           if g[0] * g[3] - g[1] * g[2] != n or g[2] < 0 or g[2] % N
           or not point_pair_u(x, y, g) < delta + 1e-9]
    return [f"{len(bad)} matrices fail the determinant, level or u < {delta} "
            f"condition, e.g. {bad[0]}"] if bad else []


def check_admissible(report: dict) -> list[str]:
    problems = []
    if report["congruence_violations"]:
        problems.append(f"{len(report['congruence_violations'])} congruence violations")
    if report["valuation_violations"]:
        problems.append(f"{len(report['valuation_violations'])} valuation violations")
    return problems
