from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from supnorm import exponents
from supnorm.exponents import Bound, Monomial


frac = st.fractions(min_value=-5, max_value=5)


def test_monomial_normal_form():
    assert Monomial.of(N=0, t_star=1) == Monomial.of(t_star=1)
    assert Monomial.of() == Monomial.one()
    with pytest.raises(ValueError):
        Monomial.of(x=1)


@given(frac, frac, frac)
def test_monomial_group_laws(a, b, c):
    m1 = Monomial.of(N=a, t_star=b)
    m2 = Monomial.of(N=c, L=b)
    assert m1 * m2 == m2 * m1
    assert (m1 * m2).exponent("N") == a + c
    assert m1 * Monomial.one() == m1
    assert (m1 ** 2).exponent("t_star") == 2 * b
    assert m1 ** F(1, 2) * m1 ** F(1, 2) == m1


def test_substitute_multiplies_out():
    m = Monomial.of(Z=F(1, 2), N=1)
    out = m.substitute({"Z": Monomial.of(t_star=1, N=1)})
    assert out == Monomial.of(N=F(3, 2), t_star=F(1, 2))


def test_bound_dedups_and_requires_monomials():
    m = Monomial.of(N=1)
    assert Bound.of(m, m).monomials == (m,)
    with pytest.raises(ValueError):
        Bound.of()


def test_assemble_bound_shapes():
    b1 = exponents.assemble_bound1()
    assert len(b1.monomials) == 4
    b2 = exponents.assemble_bound2()
    assert len(b2.monomials) == 3
    sm = exponents.second_moment_bound()
    assert len(sm.monomials) == 4
    assert Monomial.of(t_star=1, L=1) in sm.monomials


def test_lemma9_lemma11_assembly():
    rep = exponents.lemma9_lemma11_assembly()
    assert rep["monomial_sets_equal"]


CORNERS = (F(0), F(1, 165))


def _largest_term(terms, h, l, tau):
    """The largest N-exponent among `terms` at H = N^h, L = N^l, t* = N^tau."""
    point = {"H": Monomial.of(N=h), "L": Monomial.of(N=l)}
    reduced = [m.substitute(point) for m in terms]
    return max(r.exponent("N") + r.exponent("t_star") * tau for r in reduced)


def _admissible(h, l, tau):
    # max(N^(1/100), (t*)^3) <= L <= N and t* L^2 <= H <= N, written out
    return max(F(1, 100), 3 * tau) <= l <= 1 and tau + 2 * l <= h <= 1


def test_optimize_hl_reproduces_the_balance():
    terms = sum(exponents.arc_terms(), [])
    assert exponents.optimize_hl(terms, F(0)) == (F(313, 457), F(64, 457), F(-25, 914))
    assert exponents.optimize_hl(terms, F(1, 165)) == (
        F(33829, 50270), F(3552, 25135), F(1729, 301620))


def test_optimize_hl_rejects_unreduced_terms_and_empty_regions():
    terms = sum(exponents.arc_terms(), [])
    with pytest.raises(ValueError, match="only the symbols"):
        exponents.optimize_hl(terms + [Monomial.of(q=1)], F(0))
    # past t* = N^(1/3), (t*)^3 <= L <= N leaves no L
    with pytest.raises(ValueError, match="no admissible H and L"):
        exponents.optimize_hl(terms, F(1, 2))


@pytest.mark.parametrize("tau", CORNERS, ids=str)
def test_three_active_terms_are_equal_at_the_optimum(tau):
    minor, major = exponents.arc_terms()
    h, l, z = exponents.optimize_hl(minor + major, tau)
    values = [_largest_term([m], h, l, tau) for m in minor + major]
    # the first and third minor-arc terms and the H-term of the major arc
    assert [i for i, v in enumerate(values) if v == z] == [0, 2, 5]
    assert max(values) == z


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 32), st.sampled_from(CORNERS),
       st.fractions(0, 1), st.fractions(0, 1))
def test_no_admissible_point_beats_the_optimum(k, tau, u, v):
    terms = sum(exponents.arc_terms(F(k, 64)), [])
    z = exponents.optimize_hl(terms, tau)[2]
    lo, hi = max(F(1, 100), 3 * tau), (1 - tau) / 2
    l = lo + u * (hi - lo)
    h = tau + 2 * l + v * (1 - tau - 2 * l)
    assert _admissible(h, l, tau)
    assert _largest_term(terms, h, l, tau) >= z


def test_admissibility_flags_a_bad_point():
    report = exponents.admissibility(F(2), F(1, 200), F(0))
    assert report == {"L_lower_fixed": False, "L_lower_tstar": True, "L_upper": True,
                      "H_lower": True, "H_upper": False}
    assert all(exponents.admissibility(F(313, 457), F(64, 457), F(0)).values())


@pytest.mark.parametrize("k", range(33))
def test_dominance_and_constraints_hold_on_the_theta_grid(k):
    rep = exponents.theorem1_final(F(k, 64))
    assert rep["balanced_term_dominates"]
    assert rep["constraints"]["satisfied"]


def test_theta_one_half_ties_go_to_the_balanced_vertex():
    # the optimum is a face: three vertices at each corner reach z*, and the
    # tie rule keeps the one where the balanced triple of terms is active
    rep = exponents.theorem1_final(F(1, 2))
    assert rep["H"] == Monomial.of(N=F(2, 3), t_star=-2)
    assert rep["L"] == Monomial.of(N=F(4, 27), t_star=F(2, 9))
    assert (rep["exponent_N"], rep["exponent_t_star"]) == (0, F(11, 2))
    terms = sum(exponents.arc_terms(F(1, 2)), [])
    optimal = {
        F(0): (F(0), [(F(2, 3), F(4, 27)), (F(2, 3), F(1, 100)), (F(391, 400), F(1, 100))]),
        F(1, 165): (F(1, 30), [(F(36, 55), F(74, 495)), (F(36, 55), F(1, 55)),
                               (F(19, 20), F(1, 55))]),
    }
    for tau, (z, vertices) in optimal.items():
        assert exponents.optimize_hl(terms, tau) == (*vertices[0], z)
        for h, l in vertices:
            assert _admissible(h, l, tau) and _largest_term(terms, h, l, tau) == z


def test_theorem1_final_exponents_exact():
    rep = exponents.theorem1_final()
    assert rep["exponent_N"] == F(-25, 914)
    assert rep["exponent_t_star"] == F(9979, 1828)
    assert rep["secondary_exponent_N"] == F(71, 914)
    assert rep["secondary_exponent_t_star"] == F(11181, 1828)
    assert rep["second_form_N_exponent"] == F(6158, 75405)
    assert rep["q0"] == Monomial.of(N=F(1, 3))
    assert rep["balanced_term_dominates"]
    assert rep["constraints"]["satisfied"]


@pytest.mark.parametrize("theta", [F(0), F(1, 2)])
def test_theorem1_final_accepts_theta_range_ends(theta):
    assert isinstance(exponents.theorem1_final(theta)["exponent_N"], F)


@pytest.mark.parametrize("theta", [F(-1, 10 ** 9), F(1, 2) + F(1, 10 ** 9)])
def test_theorem1_final_rejects_theta_outside_range(theta):
    with pytest.raises(ValueError, match=r"theta must lie in \[0, 1/2\]"):
        exponents.theorem1_final(theta)


def test_theorem1_consistency_with_headline():
    rep = exponents.theorem1_final()
    assert rep["exponent_N"] <= F(-1, 37)
    assert rep["exponent_N"] == F(-1, 37) - F(11, 33818)
    assert rep["exponent_t_star"] <= F(11, 2)


def test_theorem2_combination_exact():
    rep = exponents.theorem2_combination()
    assert rep["weights"] == (F(37, 2269), F(2232, 2269))
    assert sum(rep["weights"]) == 1
    assert rep["final_exponent"] == F(-1, 2269)


def test_no_floats_anywhere():
    rep = exponents.theorem1_final()
    for key in ("exponent_N", "exponent_t_star", "second_form_N_exponent"):
        assert isinstance(rep[key], F)
    for m in rep["minor_terms"] + rep["major_terms"]:
        assert all(isinstance(v, F) for _, v in m.exponents)
