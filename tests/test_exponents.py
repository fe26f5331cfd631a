from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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


def test_solve_balance_reproduces_h_and_l():
    b1 = exponents.assemble_bound1()
    b2 = exponents.assemble_bound2()
    sol = exponents.solve_balance([b1.monomials[0], b1.monomials[2], b2.monomials[1]])
    assert sol["H"] == Monomial.of(N=F(313, 457), t_star=F(-1803, 914))
    assert sol["L"] == Monomial.of(N=F(64, 457), t_star=F(96, 457))


def test_solve_balance_equalizes_terms():
    b1 = exponents.assemble_bound1()
    b2 = exponents.assemble_bound2()
    terms = [b1.monomials[0], b1.monomials[2], b2.monomials[1]]
    sol = exponents.solve_balance(terms)
    sub = dict(exponents.Z_SUBSTITUTION)
    sub.update(sol)
    reduced = [t.substitute(sub) for t in terms]
    # q-free exponents must agree exactly after balancing
    base = (reduced[0].exponent("N"), reduced[0].exponent("t_star"))
    for r in reduced[1:]:
        qfree = r.substitute({"q": Monomial.one()})
        assert (qfree.exponent("N"), qfree.exponent("t_star")) == base


def test_solve_balance_validation():
    b1 = exponents.assemble_bound1()
    with pytest.raises(ValueError):
        exponents.solve_balance([b1.monomials[0], b1.monomials[1]])


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
    assert rep["weights_sum_to_one"]
    assert rep["final_exponent"] == F(-1, 2269)


def test_no_floats_anywhere():
    rep = exponents.theorem1_final()
    for key in ("exponent_N", "exponent_t_star", "second_form_N_exponent"):
        assert isinstance(rep[key], F)
    for m in rep["minor_terms"] + rep["major_terms"]:
        assert all(isinstance(v, F) for _, v in m.exponents)


def test_dominates_at_corners():
    big = Monomial.of(N=1)
    small = Monomial.of(N=F(1, 2), t_star=1)
    assert exponents.dominates(big, [small])
    assert not exponents.dominates(small, [big])


def test_check_parameter_constraints_flags_bad_choices():
    bad = exponents.check_parameter_constraints(
        Monomial.of(N=2), Monomial.of(N=F(1, 200)))
    assert not bad["satisfied"]
