"""Acceptance gate: nine criteria, one test and one printed pass/fail line each.

Each test drives the shared sweep functions at full size, asserts the pinned
tolerance or exact equality, and asserts its runtime budget.
"""

import math
import random
import time
from fractions import Fraction as F

from supnorm import counting, exponents, oscillatory, verify


def _report(name: str, passed: bool, detail: str):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_transform_closed_forms():
    start = time.monotonic()
    rep = verify.sweep_transforms()
    elapsed = time.monotonic() - start
    worst = max(rep["max_rel_dot"], rep["max_rel_tilde"])
    _report(
        "criterion-1 transform closed forms",
        worst <= 1e-6 and elapsed <= 60,
        f"max rel error {worst:.3e} (tol 1e-6), {rep['instances']} instances, {elapsed:.1f}s/60s",
    )


def test_criterion_2_positivity():
    start = time.monotonic()
    rep = verify.check_positivity()
    elapsed = time.monotonic() - start
    _report(
        "criterion-2 positivity",
        rep["all_positive"] and elapsed <= 1,
        f"exact rational positivity on {rep['instances']} pairs, {elapsed:.2f}s/1s",
    )


def test_criterion_3_exponent_reproduction():
    start = time.monotonic()
    rep = verify.check_exponents()
    elapsed = time.monotonic() - start
    failed = [k for k, v in rep["checks"].items() if not v]
    _report(
        "criterion-3 exponent reproduction",
        rep["all_exact"] and elapsed <= 1,
        f"all displayed exponents exact (failures: {failed or 'none'}), {elapsed:.2f}s/1s",
    )


def test_criterion_4_box_counting():
    start = time.monotonic()
    rep = verify.sweep_lemma10(random.Random(2024), n_instances=200)
    elapsed = time.monotonic() - start
    _report(
        "criterion-4 box counting",
        rep["dual_oracle_ok"] and rep["fitted_constant"] <= 1e4
        and rep["instances"] >= 200 and elapsed <= 120,
        f"{rep['instances']} instances, dual oracle exact, "
        f"C0 {rep['fitted_constant']:.3g} (cap 1e4), {elapsed:.1f}s/120s",
    )


def test_criterion_5_congruence_reduction():
    start = time.monotonic()
    rep = verify.sweep_congruence(random.Random(2025))
    elapsed = time.monotonic() - start
    _report(
        "criterion-5 congruence reduction",
        rep["violations"] == 0 and rep["multiplicity_ok"]
        and rep["instances"] >= 100 and elapsed <= 60,
        f"{rep['instances']} instances, {rep['violations']} violations, "
        f"multiplicity bound holds, {elapsed:.1f}s/60s",
    )


def test_criterion_6_matrix_counting():
    start = time.monotonic()
    rep = verify.sweep_matrices(random.Random(2026))
    geom = verify.sweep_geometric()["geometric_constant"]
    elapsed = time.monotonic() - start
    _report(
        "criterion-6 matrix counting",
        rep["all_equal"] and rep["ubound_constant"] <= 100
        and geom <= 1e3 and elapsed <= 120,
        f"{rep['instances']} instances naive-oracle exact, M0 constant "
        f"{rep['ubound_constant']:.3g} (cap 100), geometric constant "
        f"{geom:.3g} (cap 1e3), {elapsed:.1f}s/120s",
    )


def test_criterion_7_amplifier_identity():
    start = time.monotonic()
    rep = verify.sweep_amplifier(random.Random(2027))
    elapsed = time.monotonic() - start
    _report(
        "criterion-7 amplifier identity",
        rep["max_rel_error"] <= 1e-9 and rep["symbolic_exact"] and elapsed <= 5,
        f"{rep['instances']} systems, diagonal rel error {rep['max_rel_error']:.3e} (tol 1e-9), "
        f"symbolic identity exact, {elapsed:.1f}s/5s",
    )


def test_criterion_8_special_function_grid():
    start = time.monotonic()
    rep = verify.sweep_specfun()
    elapsed = time.monotonic() - start
    fitted = max(rep["bessel_j_constant"], rep["bessel_k_constant"],
                 rep["whittaker_constant"], rep["transition_constant"])
    ok = (fitted <= 50.0 and rep["recurrence_max_error"] < 1e-6
          and rep["ibp_max_rel_error"] < 1e-7 and elapsed <= 120)
    _report(
        "criterion-8 special-function grid",
        ok,
        f"max fitted constant {fitted:.3g} (cap 50), recurrences "
        f"{rep['recurrence_max_error']:.2e}, IBP {rep['ibp_max_rel_error']:.2e}, "
        f"{elapsed:.1f}s/120s",
    )


def test_criterion_9_poisson_decay():
    start = time.monotonic()
    rep = verify.sweep_lemma4()
    elapsed = time.monotonic() - start
    ok = (rep["C2"] <= 100 and rep["C3"] <= 100
          and rep["slopes"][2] <= -2 + 0.2 and rep["slopes"][3] <= -3 + 0.2
          and elapsed <= 30)
    _report(
        "criterion-9 Poisson decay",
        ok,
        f"C2 {rep['C2']:.3g}, C3 {rep['C3']:.3g} (cap 100), slopes "
        f"{rep['slopes'][2]:.2f}/{rep['slopes'][3]:.2f} (need <= -1.8/-2.8), "
        f"{elapsed:.1f}s/30s",
    )
