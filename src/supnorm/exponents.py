"""Exact-rational exponent calculus over the symbols N, t_star, Z, L, H, q,
and the linear program that chooses the amplifier length L and the Dirichlet
cap H to minimise the largest minor- and major-arc term.

No floats anywhere: monomials are maps symbol -> Fraction, and bounds are
monomial lists (sums, i.e. maxima up to constants).  With H = N^h, L = N^l and
t* = N^tau every term's N-exponent is affine in (h, l), so the program is
solved exactly, by its vertices, at the two ends of the allowed t*-range.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arithmetic import THETA

SYMBOLS = ("N", "t_star", "Z", "L", "H", "q")

F = Fraction


@dataclass(frozen=True)
class Monomial:
    """N^a (t*)^b Z^c L^d H^e q^f with exact rational exponents; zero exponents
    are not stored, so equal monomials compare equal."""

    exponents: tuple  # sorted tuple of (symbol, Fraction)

    @classmethod
    def of(cls, **exps) -> "Monomial":
        clean = []
        for sym, val in exps.items():
            if sym not in SYMBOLS:
                raise ValueError(f"unknown symbol {sym!r}")
            val = Fraction(val)
            if val != 0:
                clean.append((sym, val))
        return cls(exponents=tuple(sorted(clean)))

    @classmethod
    def one(cls) -> "Monomial":
        return cls(exponents=())

    def exponent(self, sym: str) -> Fraction:
        for s, v in self.exponents:
            if s == sym:
                return v
        return F(0)

    def __mul__(self, other: "Monomial") -> "Monomial":
        exps = dict(self.exponents)
        for s, v in other.exponents:
            exps[s] = exps.get(s, F(0)) + v
        return Monomial.of(**exps)

    def __pow__(self, r) -> "Monomial":
        r = Fraction(r)
        return Monomial.of(**{s: v * r for s, v in self.exponents})

    def substitute(self, mapping: dict) -> "Monomial":
        """Replace each symbol in `mapping` by a Monomial, multiply out."""
        out = Monomial.one()
        for s, v in self.exponents:
            if s in mapping:
                out = out * (mapping[s] ** v)
            else:
                out = out * Monomial.of(**{s: v})
        return out

    def __str__(self) -> str:
        if not self.exponents:
            return "1"
        return " * ".join(f"{s}^({v})" for s, v in self.exponents)


@dataclass(frozen=True)
class Bound:
    """A sum of monomials; under << this is the max up to constants."""

    monomials: tuple

    @classmethod
    def of(cls, *monomials) -> "Bound":
        if not monomials:
            raise ValueError("a bound needs at least one monomial")
        return cls(monomials=tuple(dict.fromkeys(monomials)))


# ---------------------------------------------------------------------------
# the composite bounds
# ---------------------------------------------------------------------------

def assemble_bound1(theta: Fraction = THETA) -> Bound:
    """(t*)^5 L^(theta/2) ( t* Z^(1/4) L^(7/8) H^(1/2) / N^(3/4)
    + (t* L Z)^(1/2) / (q N)^(1/2) + Z^(1/2) L^(-1/4) / N^(1/2) )
    + (t*)^(9/2) L^(-1/2)."""
    theta = Fraction(theta)
    pre = Monomial.of(t_star=5, L=theta / 2)
    t1 = pre * Monomial.of(t_star=1, Z=F(1, 4), L=F(7, 8), H=F(1, 2), N=F(-3, 4))
    t2 = pre * Monomial.of(t_star=F(1, 2), L=F(1, 2), Z=F(1, 2), q=F(-1, 2), N=F(-1, 2))
    t3 = pre * Monomial.of(Z=F(1, 2), L=F(-1, 4), N=F(-1, 2))
    t4 = Monomial.of(t_star=F(9, 2), L=F(-1, 2))
    return Bound.of(t1, t2, t3, t4)


def assemble_bound2() -> Bound:
    """(t*)^(3/2) ( q Z / N^(3/2) + Z / H^(3/2) + (t*)^(3/2) q / Z^(1/2) )."""
    pre = Monomial.of(t_star=F(3, 2))
    t1 = pre * Monomial.of(q=1, Z=1, N=F(-3, 2))
    t2 = pre * Monomial.of(Z=1, H=F(-3, 2))
    t3 = pre * Monomial.of(t_star=F(3, 2), q=1, Z=F(-1, 2))
    return Bound.of(t1, t2, t3)


def second_moment_bound(theta: Fraction = THETA) -> Bound:
    """Diagonal term t* L plus the off-diagonal
    (t*)^2 L^theta ( (t*)^2 Z^(1/2) L^(15/4) H / N^(3/2) + t* L^3 Z / (q N)
    + Z L^(3/2) / N )."""
    theta = Fraction(theta)
    diag = Monomial.of(t_star=1, L=1)
    pre = Monomial.of(t_star=2, L=theta)
    t1 = pre * Monomial.of(t_star=2, Z=F(1, 2), L=F(15, 4), H=1, N=F(-3, 2))
    t2 = pre * Monomial.of(t_star=1, L=3, Z=1, q=-1, N=-1)
    t3 = pre * Monomial.of(Z=1, L=F(3, 2), N=-1)
    return Bound.of(diag, t1, t2, t3)


def lemma9_lemma11_assembly(theta: Fraction = THETA) -> dict:
    """Formal square root of each second-moment monomial times L^(-1) (t*)^4
    (the amplifier normalization and the window/weight powers) must reproduce
    assemble_bound1 exactly as a monomial set."""
    sm = second_moment_bound(theta)
    multiplier = Monomial.of(L=-1, t_star=4)
    transformed = Bound.of(*(multiplier * (m ** F(1, 2)) for m in sm.monomials))
    target = assemble_bound1(theta)
    return {
        "transformed": transformed,
        "bound1": target,
        "monomial_sets_equal": set(transformed.monomials) == set(target.monomials),
    }


# ---------------------------------------------------------------------------
# the exponent linear program
# ---------------------------------------------------------------------------

Z_SUBSTITUTION = {"Z": Monomial.of(t_star=1, N=1)}
Z_LOW = Monomial.of(N=F(9, 10))  # the major arc's Z-range is [N^(9/10), t* N]
Q0 = Monomial.of(N=F(1, 3))

T_STAR_MAX = F(1, 165)  # allowed range: 1 <= t* <= N^(1/165)
_CORNERS = (F(0), T_STAR_MAX)  # the values of tau, with t* = N^tau, at its ends

# Admissibility of H = N^h and L = N^l at t* = N^tau, that is
# max(N^(1/100), (t*)^3) <= L <= N and t* L^2 <= H <= N: each row
# (name, c_h, c_l, c_tau, c_0) states c_h h + c_l l + c_tau tau + c_0 >= 0.
CONSTRAINTS = (
    ("L_lower_fixed", 0, 1, 0, F(-1, 100)),
    ("L_lower_tstar", 0, 1, -3, 0),
    ("L_upper", 0, -1, 0, 1),
    ("H_lower", 1, -2, -1, 0),
    ("H_upper", -1, 0, 0, 1),
)


def admissibility(h: Fraction, l: Fraction, tau: Fraction) -> dict:
    """Whether each CONSTRAINTS row holds at H = N^h, L = N^l, t* = N^tau."""
    return {name: c_h * h + c_l * l + c_tau * tau + c_0 >= 0
            for name, c_h, c_l, c_tau, c_0 in CONSTRAINTS}


def _n_exponent(m: Monomial, tau: Fraction) -> Fraction:
    """Exponent of N in m when t* = N^tau."""
    return m.exponent("N") + m.exponent("t_star") * tau


def _integer_row(coeffs, rhs) -> tuple:
    """The row coeffs . x <= rhs scaled to integer coefficients."""
    den = math.lcm(*(F(v).denominator for v in (*coeffs, rhs)))
    return tuple(int(v * den) for v in coeffs), int(rhs * den)


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def optimize_hl(terms, tau: Fraction) -> tuple:
    """The (h, l, z) of least z with every term at most N^z and the
    CONSTRAINTS rows holding, where H = N^h, L = N^l, t* = N^tau and each
    term is a monomial in N, t*, H and L.

    The rows bound h and l, and the terms bound z from below, so the feasible
    set has vertices and its least z is attained at one.  Every vertex is a
    triple of active rows: each triple is solved by Cramer's rule over the
    integers and kept if it satisfies every row.  Ties in z go to the first
    triple in lexicographic order, the rows numbered in the order of `terms`
    and then of CONSTRAINTS."""
    if any(s not in ("N", "t_star", "H", "L") for m in terms for s, _ in m.exponents):
        raise ValueError("terms may hold only the symbols N, t_star, H and L")
    rows = [_integer_row((m.exponent("H"), m.exponent("L"), -1), -_n_exponent(m, tau))
            for m in terms]
    rows += [_integer_row((-c_h, -c_l, 0), c_tau * tau + c_0)
             for _, c_h, c_l, c_tau, c_0 in CONSTRAINTS]
    best = None  # (numerators of h, l, z; their common positive denominator)
    for (a_i, b_i), (a_j, b_j), (a_k, b_k) in itertools.combinations(rows, 3):
        c_jk, c_ki, c_ij = _cross(a_j, a_k), _cross(a_k, a_i), _cross(a_i, a_j)
        det = a_i[0] * c_jk[0] + a_i[1] * c_jk[1] + a_i[2] * c_jk[2]
        if det == 0:
            continue
        num = [b_i * x + b_j * y + b_k * w for x, y, w in zip(c_jk, c_ki, c_ij)]
        if det < 0:
            det, num = -det, [-v for v in num]
        if best is not None and num[2] * best[1] >= best[0][2] * det:
            continue
        if all(a[0] * num[0] + a[1] * num[1] + a[2] * num[2] <= b * det for a, b in rows):
            best = (num, det)
    if best is None:
        raise ValueError(f"no admissible H and L at t* = N^{tau}")
    num, det = best
    return tuple(F(v, det) for v in num)


# ---------------------------------------------------------------------------
# the final exponent pipeline
# ---------------------------------------------------------------------------

def arc_terms(theta: Fraction = THETA) -> tuple:
    """The minor- and major-arc terms as monomials in N, t*, H and L, with Z
    and the split q0 = N^(1/3) of the denominator range substituted."""
    b1, b2 = assemble_bound1(theta), assemble_bound2()
    # minor-arc regime q >= q0: negative q-powers are worst at q = q0
    if any(m.exponent("q") > 0 for m in b1.monomials):
        raise ValueError("unexpected positive q-power on the minor-arc side")
    minor = [m.substitute({**Z_SUBSTITUTION, "q": Q0}) for m in b1.monomials]

    # major-arc regime q <= q0: positive q-powers worst at q = q0; the
    # Z-range enters through the worst corner per monomial
    if any(m.exponent("q") < 0 for m in b2.monomials):
        raise ValueError("unexpected negative q-power on the major-arc side")
    major = [m.substitute({"Z": Z_SUBSTITUTION["Z"] if m.exponent("Z") >= 0 else Z_LOW,
                           "q": Q0}) for m in b2.monomials]
    return minor, major


def theorem1_final(theta: Fraction = THETA) -> dict:
    """Chooses H and L by the linear program `optimize_hl` over the arc terms
    at both corners of the t*-range, and reports the first minor-arc term,
    which the paper balances, as the final exponent."""
    if not 0 <= theta <= F(1, 2):
        raise ValueError(f"theta must lie in [0, 1/2], got {theta}")
    minor, major = arc_terms(theta)
    (h0, l0, z0), (h1, l1, z1) = (optimize_hl(minor + major, tau) for tau in _CORNERS)
    solved = {"H": Monomial.of(N=h0, t_star=(h1 - h0) / T_STAR_MAX),
              "L": Monomial.of(N=l0, t_star=(l1 - l0) / T_STAR_MAX)}
    minor_terms = [m.substitute(solved) for m in minor]
    major_terms = [m.substitute(solved) for m in major]
    balanced = minor_terms[0]  # q-free
    corners = {str(tau): admissibility(h, l, tau)
               for tau, h, l in zip(_CORNERS, (h0, h1), (l0, l1))}

    # the secondary minor-arc term, rewritten with the same t*-power as the
    # balanced term by absorbing the excess t* into N via t* <= N^(1/165);
    # its q^(-1/2) stays symbolic
    secondary = assemble_bound1(theta).monomials[1].substitute({**Z_SUBSTITUTION, **solved})
    excess = secondary.exponent("t_star") - balanced.exponent("t_star")
    second_form_n_exp = secondary.exponent("N") + excess * T_STAR_MAX

    return {
        "H": solved["H"],
        "L": solved["L"],
        "exponent_N": balanced.exponent("N"),
        "exponent_t_star": balanced.exponent("t_star"),
        "q0": Q0,
        "balanced_term_dominates": all(
            _n_exponent(balanced, tau) == z for tau, z in zip(_CORNERS, (z0, z1))),
        "secondary_exponent_N": secondary.exponent("N"),
        "secondary_exponent_t_star": secondary.exponent("t_star"),
        "second_form_N_exponent": second_form_n_exp,
        "constraints": {"satisfied": all(all(c.values()) for c in corners.values()),
                        "corners": corners},
        "minor_terms": minor_terms,
        "major_terms": major_terms,
    }


def theorem2_combination() -> dict:
    """min(X, Y) <= X^w1 Y^w2 with w1 + w2 = 1 applied to
    X = (t*)^5 N^(-1/37) and Y = (t*)^(-1/12).  The weights solve w1 + w2 = 1
    and equal N- and t*-exponents of X^w1 Y^w2 exactly; they come out as
    (37/2269, 2232/2269), and both final exponents as -1/2269."""
    x, y = Monomial.of(t_star=5, N=F(-1, 37)), Monomial.of(t_star=F(-1, 12))
    g1, g2 = (m.exponent("N") - m.exponent("t_star") for m in (x, y))
    # w1 + w2 = 1 and g1 w1 + g2 w2 = 0
    w1, w2 = g2 / (g2 - g1), g1 / (g1 - g2)
    t_exp = x.exponent("t_star") * w1 + y.exponent("t_star") * w2
    n_exp = x.exponent("N") * w1 + y.exponent("N") * w2
    return {
        "weights": (w1, w2),
        "t_star_exponent": t_exp,
        "N_exponent": n_exp,
        "final_exponent": t_exp if t_exp == n_exp else None,
    }
