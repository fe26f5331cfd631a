"""Known faults make their verify property fail.

Each case rewrites one line of one function's source, installs the rewritten
function in its module for the test, and runs the matching property at seed
0.  A property that still passed with the fault in place could not see it.
"""

import __future__
import inspect
import textwrap

import pytest

from supnorm import counting, verify


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


# (property, failing flag, module, function, line fragment, its faulty version)
FAULTS = {
    "residue shifted by one in enumerate_A": (
        "counting/box-bounds", "dual_oracle_ok", counting, "enumerate_A",
        "t_r = (sf - times(", "t_r = (sf + 1 - times("),
    "rho halved in the matrix oracle's box": (
        "counting/matrices-ubound", "all_equal", counting, "_oracle_box",
        "rho = math.sqrt(", "rho = 0.5 * math.sqrt("),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_fails_its_property(monkeypatch, fault):
    prop_id, flag, module, name, old, new = FAULTS[fault]
    assert _record(prop_id)["detail"][flag] is True
    _mutate(monkeypatch, module, name, old, new)
    rec = _record(prop_id)
    assert rec["detail"][flag] is False and not rec["passed"]
