"""Exact-rational exponent calculus over the symbols N, t_star, Z, L, H, q,
and the parameter optimization that balances the minor-arc, major-arc and
amplifier-length trade-offs down to the final sup-norm exponents.

No floats anywhere: monomials are maps symbol -> Fraction, bounds are monomial
lists (sums, i.e. maxima up to constants), and all dominance comparisons are
linear inequalities in the exponent of t_star relative to N evaluated at the
corners of the allowed range.
"""

from __future__ import annotations

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
# balancing and dominance
# ---------------------------------------------------------------------------

Z_SUBSTITUTION = {"Z": Monomial.of(t_star=1, N=1)}


def _solve_exact(matrix: list[list[Fraction]], rhs: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan elimination over Q: the X with matrix @ X = rhs, for a
    square matrix; raises ValueError when the matrix is singular."""
    n = len(matrix)
    rows = [list(m) + list(r) for m, r in zip(matrix, rhs)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            raise ValueError("balance system is singular or underdetermined")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[col])]
    return [row[n:] for row in rows]


def solve_balance(terms) -> dict:
    """Equates the N- and t*-exponents of the supplied terms after Z -> t* N,
    with each unknown X of H, L = N^x1 (t*)^x2, and solves the system exactly.

    The N- and t*-exponents decouple into two systems with the same matrix,
    one row per term after the first: sum_u (c_j,u - c_0,u) x_u = e_0 - e_j,
    where c_j,u is the power of unknown u in term j and e_j its own exponent.

    Returns {unknown: Monomial in N, t*}."""
    unknowns = ("H", "L")
    terms = [t.substitute(Z_SUBSTITUTION) for t in terms]
    if len(terms) != len(unknowns) + 1:
        raise ValueError("need exactly one more term than unknowns")
    base = terms[0]
    matrix = [[t.exponent(u) - base.exponent(u) for u in unknowns] for t in terms[1:]]
    rhs = [[base.exponent(s) - t.exponent(s) for s in ("N", "t_star")] for t in terms[1:]]
    solution = _solve_exact(matrix, rhs)
    return {u: Monomial.of(N=n_v, t_star=t_v) for u, (n_v, t_v) in zip(unknowns, solution)}


T_STAR_MAX = F(1, 165)  # allowed range: 1 <= t* <= N^(1/165)
_CORNERS = (F(0), T_STAR_MAX)  # the values of tau, with t* = N^tau, at its ends


def _n_exponent_at_corner(m: Monomial, tau: Fraction) -> Fraction:
    """Exponent of N when t* = N^tau; requires m to contain only N, t*, q=resolved."""
    for s, _ in m.exponents:
        if s not in ("N", "t_star"):
            raise ValueError(f"unreduced symbol {s} in {m}")
    return m.exponent("N") + m.exponent("t_star") * tau


def dominates(candidate: Monomial, others) -> bool:
    """candidate >= every other monomial at both corners of the t*-range."""
    return all(
        _n_exponent_at_corner(candidate, tau) >= _n_exponent_at_corner(m, tau)
        for m in others for tau in _CORNERS
    )


def check_parameter_constraints(H: Monomial, L: Monomial) -> dict:
    """The solved H, L must satisfy max(N^(1/100), (t*)^3) <= L <= N and
    t* L^2 <= H <= N over the whole t*-range (checked at corners)."""
    results = {}
    for tau in _CORNERS:
        l_val = _n_exponent_at_corner(L, tau)
        h_val = _n_exponent_at_corner(H, tau)
        results[str(tau)] = {
            "L_lower_fixed": l_val >= F(1, 100),
            "L_lower_tstar": l_val >= 3 * tau,
            "L_upper": l_val <= 1,
            "H_lower": h_val >= tau + 2 * l_val,
            "H_upper": h_val <= 1,
        }
    ok = all(all(v.values()) for v in results.values())
    return {"satisfied": ok, "corners": results}


# ---------------------------------------------------------------------------
# the final exponent pipeline
# ---------------------------------------------------------------------------

Q0 = Monomial.of(N=F(1, 3))


def theorem1_final(theta: Fraction = THETA) -> dict:
    """Balances the first and third terms of the minor-arc bound against the
    H-term of the major-arc bound, substitutes the solved H and L, splits the
    denominator range at q0 = N^(1/3), and takes the worst surviving term."""
    if not 0 <= theta <= F(1, 2):
        raise ValueError(f"theta must lie in [0, 1/2], got {theta}")
    b1 = assemble_bound1(theta)
    b2 = assemble_bound2()
    critical = [b1.monomials[0], b1.monomials[2], b2.monomials[1]]
    solved = solve_balance(critical)
    sub = dict(Z_SUBSTITUTION)
    sub.update(solved)

    # minor-arc regime q >= q0: negative q-powers are worst at q = q0
    minor_terms = []
    for m in b1.monomials:
        r = m.substitute(sub)
        qe = r.exponent("q")
        if qe > 0:
            raise ValueError("unexpected positive q-power on the minor-arc side")
        minor_terms.append(r.substitute({"q": Q0}))
    balanced = b1.monomials[0].substitute(sub)  # q-free by construction

    # major-arc regime q <= q0: positive q-powers worst at q = q0; the
    # Z-range [N^(9/10), t* N] enters through the worst corner per monomial
    z_low = Monomial.of(N=F(9, 10))
    major_terms = []
    for m in b2.monomials:
        z_e = m.exponent("Z")
        z_sub = {"Z": Monomial.of(t_star=1, N=1) if z_e >= 0 else z_low}
        r = m.substitute({**solved, **z_sub})
        qe = r.exponent("q")
        if qe < 0:
            raise ValueError("unexpected negative q-power on the major-arc side")
        major_terms.append(r.substitute({"q": Q0}))

    everything = minor_terms + major_terms
    dominated = dominates(balanced, everything)

    # the secondary minor-arc term, rewritten with the same t*-power as the
    # balanced term by absorbing the excess t* into N via t* <= N^(1/165);
    # its q^(-1/2) stays symbolic
    secondary = b1.monomials[1].substitute(sub)
    excess = secondary.exponent("t_star") - balanced.exponent("t_star")
    second_form_n_exp = secondary.exponent("N") + excess * T_STAR_MAX

    return {
        "H": solved["H"],
        "L": solved["L"],
        "exponent_N": balanced.exponent("N"),
        "exponent_t_star": balanced.exponent("t_star"),
        "q0": Q0,
        "balanced_term_dominates": dominated,
        "secondary_exponent_N": secondary.exponent("N"),
        "secondary_exponent_t_star": secondary.exponent("t_star"),
        "second_form_N_exponent": second_form_n_exp,
        "constraints": check_parameter_constraints(solved["H"], solved["L"]),
        "minor_terms": minor_terms,
        "major_terms": major_terms,
    }


def theorem2_combination() -> dict:
    """min(X, Y) <= X^w1 Y^w2 with w1 + w2 = 1 applied to
    X = (t*)^5 N^(-1/37) and Y = (t*)^(-1/12).  The weights solve w1 + w2 = 1
    and equal N- and t*-exponents of X^w1 Y^w2 exactly; they come out as
    (37/2269, 2232/2269), and both final exponents as -1/2269."""
    x, y = Monomial.of(t_star=5, N=F(-1, 37)), Monomial.of(t_star=F(-1, 12))
    gap = [m.exponent("N") - m.exponent("t_star") for m in (x, y)]
    (w1,), (w2,) = _solve_exact([[F(1), F(1)], gap], [[F(1)], [F(0)]])
    t_exp = x.exponent("t_star") * w1 + y.exponent("t_star") * w2
    n_exp = x.exponent("N") * w1 + y.exponent("N") * w2
    return {
        "weights": (w1, w2),
        "weights_sum_to_one": w1 + w2 == 1,
        "t_star_exponent": t_exp,
        "N_exponent": n_exp,
        "final_exponent": t_exp if t_exp == n_exp else None,
    }
