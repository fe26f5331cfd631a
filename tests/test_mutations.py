"""Known faults make their verify property fail.

Each case rewrites one line of one function's source, installs the rewritten
function in its module for the test, and runs the matching property at seed
0.  A property that still passed with the fault in place could not see it.
The last case moves the transform grid's cut instead of rewriting a line.
"""

import __future__
import inspect
import textwrap

import pytest

from supnorm import counting, exponents, kloosterman, specfun, transforms, verify


def _mutate(monkeypatch, module, name, old, new):
    """Replaces `name` in `module` by its source with `old` (which must occur
    exactly once) replaced by `new`."""
    source = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert source.count(old) == 1, (name, old)
    scope = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), scope)
    monkeypatch.setattr(module, name, scope[name])


def _record(prop_id):
    rec, = verify.run_verify(verify.RunConfig(seed=0), prop_id)["properties"]
    return rec


# (property, failing flag or None, module, function, line fragment, its faulty
# version); a property without a boolean flag is judged by `passed` alone
FAULTS = {
    # the checks take d1*u*c from the instance, not from the walk, so a walk
    # that builds r1 from d2 puts units in the box that break the congruence
    "k1 built from d2 in count_admissible_a": (
        "counting/congruence-reduction", None, counting, "count_admissible_a",
        "k1, k2 = inst.d1 * inst.u", "k1, k2 = inst.d2 * inst.u"),
    "sign of r2 flipped in count_admissible_a's walk": (
        "counting/congruence-reduction", None, counting, "count_admissible_a",
        "_centered(-l2 * a - k2, m)", "_centered(l2 * a - k2, m)"),
    "residue shifted by one in enumerate_A": (
        "counting/box-bounds", "dual_oracle_ok", counting, "enumerate_A_columns",
        "s = (t[point] - sf + ", "s = (t[point] - sf + 1 + "),
    "rho halved in the matrix oracle's box": (
        "counting/matrices-ubound", "all_equal", counting, "_oracle_box",
        "rho = math.sqrt(", "rho = 0.5 * math.sqrt("),
    "exponent perturbed in assemble_bound1": (
        "exponents/reproduction", "all_exact", exponents, "assemble_bound1",
        "H=F(1, 2), N=F(-3, 4)", "H=F(1, 3), N=F(-3, 4)"),
    # with the least-z comparison flipped the program keeps its worst vertex
    "least-z comparison flipped in optimize_hl": (
        "exponents/reproduction", "all_exact", exponents, "optimize_hl",
        "num[2] * best[1] >= best[0][2] * det", "num[2] * best[1] <= best[0][2] * det"),
    "major-arc terms left out of the exponent program": (
        "exponents/reproduction", "all_exact", exponents, "theorem1_final",
        "optimize_hl(minor + major, tau)", "optimize_hl(minor, tau)"),
    "integration-by-parts sign flipped": (
        "specfun/grid", None, specfun, "check_ibp_identity",
        "rhs *= _IBP_SIGN[family]", "rhs *= -_IBP_SIGN[family]"),
    "integration-by-parts rhs order r + 1 becomes r": (
        "specfun/grid", None, specfun, "check_ibp_identity",
        "bes(r + 1, alpha * root)", "bes(r, alpha * root)"),
    # every sum halves, so the ratio to the reference bound stays under its
    # limit (0.335); only the comparison with the direct sum sees the fault
    "pair factor 2 dropped in kloosterman_sum": (
        "kloosterman/weil-reference", None, kloosterman, "kloosterman_sum",
        "return complex(2 * half)", "return complex(half)"),
    # the random moduli reach c <= 2 rarely (never at seed 0); the sweep's
    # fixed draws at c = 1 and c = 2 meet the closed form there
    "c <= 2 returns 0 in kloosterman_sum": (
        "kloosterman/weil-reference", None, kloosterman, "kloosterman_sum",
        "return complex((-1) ** ((m + n) % c))", "return 0j"),
    # the ratio's ascending series below y = 4, and the far J_n of the grid
    "ascending series summed in +y^2/4": (
        "transforms/closed-vs-quadrature", None, specfun, "_ratio_series",
        "polyval(-y * y / 4, c)", "polyval(y * y / 4, c)"),
    "J_n quarter-turn table shifted by one quarter": (
        "transforms/closed-vs-quadrature", None, transforms, "_bessel_j_on_grid",
        "turn = (cos_q, sin_q, -cos_q, -sin_q)", "turn = (sin_q, -cos_q, -sin_q, cos_q)"),
}


def _clear_transform_caches():
    # every cache in the module, so a new one cannot keep stale arrays
    for cached in vars(transforms).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_its_property(monkeypatch, fault):
    prop_id, flag, module, name, old, new = FAULTS[fault]
    rec = _record(prop_id)
    assert rec["passed"] and (flag is None or rec["detail"][flag] is True)
    # the transform kernels are cached, so the faulty run starts cold and
    # leaves nothing it computed behind
    _clear_transform_caches()
    try:
        with monkeypatch.context() as patch:
            _mutate(patch, module, name, old, new)
            rec = _record(prop_id)
    finally:
        _clear_transform_caches()
    assert not rec["passed"] and (flag is None or rec["detail"][flag] is False)


@pytest.mark.parametrize("cut", [2e3, 4e3])
def test_short_transform_cut_fails_on_its_tail_bound(monkeypatch, cut):
    # the observed discrete error stays under the limit at both cuts (2.0e-7
    # and 1.2e-8); the stated tail bound (1.4e-5 and 1.8e-6) does not.  At
    # 2e3 the continuous error (1.7e-6) fails the fitted constant as well; at
    # 4e3 (1.1e-7) the tail-bound condition alone sees the fault
    prop_id = "transforms/closed-vs-quadrature"
    assert _record(prop_id)["passed"]
    _clear_transform_caches()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(transforms, "_Y_MAX", cut)
            rec = _record(prop_id)
    finally:
        _clear_transform_caches()
    detail, limit = rec["detail"], rec["limit"]
    assert detail["max_rel_dot"] <= limit < detail["max_rel_dot"] + detail["dot_tail_bound"]
    assert (rec["fitted_constant"] <= limit) == (cut == 4e3)
    assert not rec["passed"]
