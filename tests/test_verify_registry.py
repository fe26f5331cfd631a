"""Every pass condition of every verify property can fail.

Each case feeds a property a passing detail, or the same detail with one
condition broken: the fitted constant just above its limit, or one side
condition (an oracle flag, a tolerance, a decay slope) broken alone.  The
property's `passed` must follow, and so must `bessel verify` on the
`specfun/grid` cases.  The limits are typed here, not read from the program,
so loosening one in `verify` fails this file.
"""

import pytest
from click.testing import CliRunner

from supnorm import verify
from supnorm.cli import main

SPECFUN_SHAPES = ("bessel_j_constant", "bessel_k_constant", "whittaker_constant",
                  "transition_constant")

# property id -> (passing detail, [(case name, changes to the detail, passed)])
CASES = {
    "transforms/closed-vs-quadrature": (
        {"instances": 36, "max_rel_dot": 1e-12, "max_rel_tilde": 3e-9},
        [("dot at limit", {"max_rel_dot": 1e-6}, True),
         ("dot above limit", {"max_rel_dot": 1.01e-6}, False),
         ("tilde above limit", {"max_rel_tilde": 1.01e-6}, False)]),
    "transforms/positivity": (
        {"all_positive": True, "instances": 4},
        [("not positive", {"all_positive": False}, False)]),
    "exponents/reproduction": (
        {"all_exact": True, "checks": {"H": True}},
        [("not exact", {"all_exact": False, "checks": {"H": False}}, False)]),
    "counting/box-bounds": (
        {"dual_oracle_ok": True, "fitted_constant": 4.0, "instances": 60,
         "max_ratio_plain": 4.0, "max_ratio_square": 1.0},
        [("at limit", {"fitted_constant": 1e4}, True),
         ("above limit", {"fitted_constant": 1.0001e4}, False),
         ("oracle disagrees", {"dual_oracle_ok": False}, False)]),
    "counting/congruence-reduction": (
        {"instances": 100, "multiplicity_ok": True, "violations": 0},
        [("one violation", {"violations": 1}, False),
         ("multiplicity exceeded", {"multiplicity_ok": False}, False)]),
    "counting/matrices-ubound": (
        {"all_equal": True, "geometric_constant": 32.3, "instances": 50,
         "ubound_constant": 6.7},
        [("at limit", {"ubound_constant": 100.0}, True),
         ("above limit", {"ubound_constant": 100.01}, False),
         ("oracle disagrees", {"all_equal": False}, False)]),
    "counting/matrices-geometric": (
        {"geometric_constant": 32.3},
        [("at limit", {"geometric_constant": 1e3}, True),
         ("above limit", {"geometric_constant": 1000.1}, False)]),
    "amplifier/diagonal": (
        {"instances": 50, "max_rel_error": 1e-15, "symbolic_exact": True},
        [("at limit", {"max_rel_error": 1e-9}, True),
         ("above limit", {"max_rel_error": 1.01e-9}, False),
         ("not exact", {"symbolic_exact": False}, False)]),
    "specfun/grid": (
        {"bessel_j_constant": 1.6, "bessel_k_constant": 3.5, "whittaker_constant": 0.6,
         "transition_constant": 1.2, "recurrence_max_error": 5e-7,
         "ibp_max_rel_error": 1e-9},
        [(f"{key} at limit", {key: 50.0}, True) for key in SPECFUN_SHAPES]
        + [(f"{key} above limit", {key: 50.01}, False) for key in SPECFUN_SHAPES]
        + [("recurrence below tolerance", {"recurrence_max_error": 0.99e-6}, True),
           ("recurrence at tolerance", {"recurrence_max_error": 1e-6}, False),
           ("ibp below tolerance", {"ibp_max_rel_error": 0.99e-7}, True),
           ("ibp at tolerance", {"ibp_max_rel_error": 1e-7}, False)]),
    "oscillatory/poisson-decay": (
        {"C2": 0.001, "C3": 0.005, "slopes": {2: -3.5, 3: -3.5}},
        [("C2 at limit", {"C2": 100.0}, True),
         ("C2 above limit", {"C2": 100.01}, False),
         ("C3 above limit", {"C3": 100.01}, False),
         ("slopes at tolerance", {"slopes": {2: -1.8, 3: -2.8}}, True),
         ("j=2 slope too flat", {"slopes": {2: -1.79, 3: -3.5}}, False),
         ("j=3 slope too flat", {"slopes": {2: -3.5, 3: -2.79}}, False)]),
    "oscillatory/kernel-integrals": (
        {"bound1_constant": 4.1, "bound2_constant": 27.0},
        [("bound2 at limit", {"bound2_constant": 50.0}, True),
         ("bound1 above limit", {"bound1_constant": 50.01}, False),
         ("bound2 above limit", {"bound2_constant": 50.01}, False)]),
    "oscillatory/partition": (
        {"max_deviation": 2.2e-16, "points": 401},
        [("at limit", {"max_deviation": 1e-12}, True),
         ("above limit", {"max_deviation": 1.01e-12}, False)]),
    "kloosterman/weil-reference": (
        {"instances": 40, "max_ratio_squarefree_trivial": 0.67},
        [("at limit", {"max_ratio_squarefree_trivial": 1.0}, True),
         ("above limit", {"max_ratio_squarefree_trivial": 1.01}, False)]),
}


def _passed(prop_id: str, detail: dict) -> bool:
    return verify.PROPERTIES[prop_id].record(detail)["passed"]


def test_cases_cover_every_property_in_order():
    assert list(CASES) == list(verify.PROPERTIES)


@pytest.mark.parametrize("prop_id", list(CASES))
def test_passing_detail_passes(prop_id):
    assert _passed(prop_id, CASES[prop_id][0]) is True


@pytest.mark.parametrize("prop_id,name,changes,expected", [
    (prop_id, name, changes, expected)
    for prop_id, (_, variants) in CASES.items()
    for name, changes, expected in variants])
def test_each_condition_decides(prop_id, name, changes, expected):
    detail = {**CASES[prop_id][0], **changes}
    assert _passed(prop_id, detail) is expected


@pytest.mark.parametrize("name,changes,expected", CASES["specfun/grid"][1])
def test_bessel_verify_follows_specfun_grid(monkeypatch, name, changes, expected):
    detail = {**CASES["specfun/grid"][0], **changes}
    monkeypatch.setattr(verify, "sweep_specfun", lambda: detail)
    res = CliRunner().invoke(main, ["bessel", "verify"])
    assert res.exit_code == (0 if expected else 1)
    rows = [line.split(",") for line in res.output.strip().splitlines()[1:]]
    assert [row[3] for row in rows].count("False") == (0 if expected else 1)


def test_matrices_geometric_runs_no_oracle(monkeypatch):
    def oracle(*args, **kwargs):
        raise AssertionError("matrices-geometric ran the naive matrix oracle")
    monkeypatch.setattr(verify.counting, "enumerate_matrices_naive", oracle)
    report = verify.run_verify(verify.RunConfig(seed=0), "counting/matrices-geometric")
    rec, = report["properties"]
    assert rec["passed"] and set(rec["detail"]) == {"geometric_constant"}
