"""Tests of the benchmark's own checks and tracer: every output check passes on
a correct value and reports a failure on a perturbed one (a flipped sign, an
extra matrix, a wrong exponent, a loosened limit).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads
from supnorm import counting, exponents, kloosterman, transforms
from supnorm.arithmetic import DirichletCharacter, SquarefreeModulus

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# verify-suite
# ---------------------------------------------------------------------------

# A passing detail per property, at the shape run_verify reports it.
PASSING = {
    "transforms/closed-vs-quadrature": {"max_rel_dot": 1e-12, "max_rel_tilde": 3e-9, "instances": 36},
    "transforms/positivity": {"all_positive": True, "instances": 4},
    "exponents/reproduction": {"checks": {"H": True, "final": True}, "all_exact": True},
    "counting/box-bounds": {"instances": 60, "dual_oracle_ok": True, "fitted_constant": 4.0},
    "counting/congruence-reduction": {"instances": 100, "violations": 0, "multiplicity_ok": True},
    "counting/matrices-ubound": {"instances": 50, "all_equal": True, "ubound_constant": 6.7},
    "counting/matrices-geometric": {"instances": 5, "all_equal": True, "geometric_constant": 32.0},
    "amplifier/diagonal": {"instances": 50, "max_rel_error": 1e-15, "symbolic_exact": True},
    "specfun/grid": {"recurrence_max_error": 1e-9, "ibp_max_rel_error": 1e-10,
                     "bessel_j_constant": 3.0, "bessel_k_constant": 1.0,
                     "whittaker_constant": 2.0, "transition_constant": 1.5},
    "oscillatory/poisson-decay": {"C2": 0.005, "C3": 0.001, "slopes": {2: -2.0, 3: -3.0}},
    "oscillatory/kernel-integrals": {"bound1_constant": 27.0, "bound2_constant": 3.0},
    "oscillatory/partition": {"max_deviation": 2e-16},
    "kloosterman/weil-reference": {"instances": 40, "max_ratio_squarefree_trivial": 0.67},
}

# The same detail with its fitted constant or a side condition past the limit.
LOOSENED = {
    "transforms/closed-vs-quadrature": {"max_rel_tilde": 2e-6},
    "transforms/positivity": {"all_positive": False},
    "exponents/reproduction": {"checks": {"H": True, "final": False}},
    "counting/box-bounds": {"fitted_constant": 2e4},
    "counting/congruence-reduction": {"violations": 1},
    "counting/matrices-ubound": {"ubound_constant": 150.0},
    "counting/matrices-geometric": {"geometric_constant": 2e3},
    "amplifier/diagonal": {"max_rel_error": 1e-6},
    "specfun/grid": {"whittaker_constant": 60.0},
    "oscillatory/poisson-decay": {"slopes": {2: -1.5, 3: -3.0}},
    "oscillatory/kernel-integrals": {"bound1_constant": 55.0},
    "oscillatory/partition": {"max_deviation": 1e-9},
    "kloosterman/weil-reference": {"max_ratio_squarefree_trivial": 1.2},
}


def _report(prop_id: str, detail: dict, passed: bool = True) -> dict:
    return {"properties": [{"id": prop_id, "passed": passed, "detail": detail}]}


def test_every_property_has_a_passing_and_a_loosened_case():
    assert set(PASSING) == set(LOOSENED) == set(checks.PROPERTY_LIMITS)


@pytest.mark.parametrize("prop_id", list(checks.PROPERTY_LIMITS))
def test_property_check_rejects_a_loosened_limit(prop_id):
    assert checks.check_property(prop_id, _report(prop_id, PASSING[prop_id])) == []
    # the program still says "passed", as it would with its own limit loosened
    loosened = {**PASSING[prop_id], **LOOSENED[prop_id]}
    assert checks.check_property(prop_id, _report(prop_id, loosened, passed=True))


@pytest.mark.parametrize("prop_id", sorted(checks.MIN_INSTANCES))
def test_property_check_rejects_a_smaller_sweep(prop_id):
    detail = {**PASSING[prop_id], "instances": checks.MIN_INSTANCES[prop_id] - 1}
    assert checks.check_property(prop_id, _report(prop_id, detail))


def test_property_check_rejects_a_reported_failure_and_a_missing_record():
    prop_id = "oscillatory/partition"
    assert checks.check_property(prop_id, _report(prop_id, PASSING[prop_id], passed=False))
    assert checks.check_property(prop_id, {"properties": []})


def test_closed_form_matches_the_definition_in_transforms():
    for a, b in ((8, 2), (10, 4), (12, 2)):
        tf = transforms.TestFunction(a, b)
        for k in (2, 4, 6):
            assert checks.closed_form(a, b, -Fraction(k - 1, 2) ** 2) == \
                transforms.dot_transform_closed(tf, k)


def test_quadrature_check_rejects_a_flipped_sign():
    a, b, k = workloads.QUADRATURE_DOT[0]
    quad = transforms.dot_transform_quadrature(transforms.TestFunction(a, b), k)
    coeff = checks.closed_form(a, b, -Fraction(k - 1, 2) ** 2)
    assert checks.check_quadrature([("dot", quad, coeff)]) == []
    assert checks.check_quadrature([("dot", -quad, coeff)])


def test_exponent_check_rejects_a_wrong_exponent():
    t1, t2 = exponents.theorem1_final(), exponents.theorem2_combination()
    assert checks.check_exponents(t1, t2) == []
    assert checks.check_exponents({**t1, "exponent_N": Fraction(-24, 914)}, t2)
    assert checks.check_exponents({**t1, "L": exponents.Monomial.of(N=Fraction(64, 457))}, t2)
    assert checks.check_exponents(t1, {**t2, "final_exponent": Fraction(-1, 2268)})


# ---------------------------------------------------------------------------
# kloosterman-large
# ---------------------------------------------------------------------------

def _sum(m, n, c, chi=None):
    chi = chi or DirichletCharacter.trivial(1)
    return kloosterman.kloosterman_sum(kloosterman.KloostermanQuery(m, n, c, chi))


def test_character_agrees_with_the_program_definition():
    mod = SquarefreeModulus.from_int(105)
    exps = {3: 1, 5: 3, 7: 4}
    ours, theirs = checks.Character(105, exps), DirichletCharacter(mod, exps)
    for a in range(1, 106):
        assert ours.angle(a) == theirs.angle(a)


def test_untwisted_checks_reject_a_perturbed_sum():
    m, n, p = 3, -7, 101
    s = _sum(m, n, p)
    assert checks.check_untwisted_real(s, p) == [] and checks.check_weil(s, m, n, p) == []
    assert checks.check_untwisted_real(complex(s.real, 0.5), p)
    assert checks.check_weil(3 * s / abs(s) * p ** 0.5, m, n, p)


def test_salie_check_rejects_a_flipped_sign():
    m, n, p = 5, 5, 103
    s = _sum(m, n, p, DirichletCharacter.quadratic(p))
    assert abs(s) > 1
    assert checks.check_salie(s, m, n, p) == []
    assert checks.check_salie(-s, m, n, p)


@pytest.mark.parametrize("c1, c2, exps", [(11, 13, None), (105, 11, {3: 1, 5: 2, 7: 3}),
                                          (15, 7, {3: 1, 5: 1})])
def test_multiplicativity_check_rejects_a_flipped_sign(c1, c2, exps):
    m, n = 3, 5
    chi = DirichletCharacter(SquarefreeModulus.from_int(c1), exps) if exps else None
    s = _sum(m, n, c1 * c2, chi)
    ours = checks.Character(c1, exps) if exps else None
    assert abs(s) > 1
    assert checks.check_multiplicative(s, m, n, c1, c2, ours) == []
    assert checks.check_multiplicative(-s, m, n, c1, c2, ours)


# ---------------------------------------------------------------------------
# counting-oracles
# ---------------------------------------------------------------------------

def test_box_checks_reject_an_extra_quadruple():
    box = dict(C=3, S=6, R=3, R_tilde=2, d1=2, d2=1, u=2)
    inst = counting.CountingInstance(**box, N=SquarefreeModulus.from_int(7))
    fast, oracle = counting.enumerate_A(inst), counting.enumerate_A_naive(inst)
    assert fast
    assert checks.check_same_elements(fast, oracle) == []
    assert checks.check_box_quadruples(fast, *box.values(), 7) == []
    c, s, r1, r2 = fast[0]
    extra = sorted(fast + [(c, s + 1, r1, r2)])
    assert checks.check_same_elements(extra, oracle)
    assert checks.check_box_quadruples(extra, *box.values(), 7)


def test_matrix_checks_reject_an_extra_matrix():
    x, y, n, level, delta = 0.3, 0.8, 5, 2, 0.9
    inst = counting.MatrixCountInstance(x=x, y=y, n=n, N=SquarefreeModulus.from_int(level),
                                        delta=delta)
    fast = counting.enumerate_R_N_matrices(inst)
    oracle = counting.enumerate_matrices_naive(inst, workloads.MATRIX_ENTRY_BOUND)
    assert fast
    assert checks.check_same_elements(fast, oracle) == []
    assert checks.check_matrices(fast, x, y, n, level, delta) == []
    for extra in ((1, 40, 0, n), (1, 0, 1, n), (1, 0, 0, n + 1)):
        assert checks.check_matrices(sorted(fast + [extra]), x, y, n, level, delta), extra
    assert checks.check_same_elements(sorted(fast + [(1, 40, 0, n)]), oracle)


def test_matrix_u_agrees_with_the_program():
    g = (2, 1, 3, 4)
    assert checks.point_pair_u(0.2, 0.7, g) == pytest.approx(
        counting.point_pair_u(0.2, 0.7, g), rel=1e-12)


def test_admissible_check_rejects_a_violation():
    inst = counting.CongruenceReductionInstance(l1=2, l2=3, d1=1, d2=2, c=12, u=3,
                                                N=SquarefreeModulus.from_int(5), R1=40, R2=40)
    report = counting.count_admissible_a(inst)
    assert checks.check_admissible(report) == []
    broken = copy.deepcopy(report)
    broken["valuation_violations"].append((1, 0, 0, 2))
    assert checks.check_admissible(broken)


# ---------------------------------------------------------------------------
# workloads, tracer and the metric names in BENCHMARK.json
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["kloosterman-large", "counting-oracles"])
def test_workload_inputs_depend_only_on_the_seed(name):
    def fingerprint(seed):
        return [(op.kind, op.label) for op in workloads.build(name, seed)]
    assert fingerprint(4) == fingerprint(4)
    assert fingerprint(4) != fingerprint(5)


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("counting.inner", lambda: None)
    outer = tracer.wrap("counting.outer", lambda: inner())
    tracer.run_op(0, "box", outer)
    tracer.run_op(1, "box", outer)
    dur, own = tracer.durations()
    # per operation: root [0, 5], outer [1, 4], inner [2, 3]
    assert list(dur) == [5, 3, 1] * 2
    assert list(own) == [2, 2, 1] * 2
    assert list(tracer.op) == [0, 0, 0, 1, 1, 1]
    assert list(tracer.parent) == [-1, 0, 1, -1, 3, 4]
    outer()  # outside an operation nothing is recorded
    assert len(tracer.start) == 6


def test_middle_picks_the_operations_at_the_median():
    assert run.middle([[3.0, 5.0], [1.0], [2.0]]) == [2]
    assert run.middle([[4.0], [1.0], [3.0], [2.0]]) == [3, 2]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = spans.Tracer().summarize([], [], [])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers) + ["trace.overhead_s"]
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
