import gc
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, settings, strategies as st

from supnorm import cli, counting, verify
from supnorm.arithmetic import SquarefreeModulus, dirichlet_approximate, p_adic_valuation
from supnorm.counting import (
    BoxLimitError,
    CongruenceReductionInstance,
    CountingInstance,
    MatrixCountInstance,
    point_pair_u,
)


_BIG_N = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37 * 41 * 43 * 47 * 53  # > 2^64
_N_15 = _BIG_N // 53    # the first 15 primes: above 2^59, below 2^63


def _instance(C, S, R, Rt, d1=1, d2=1, u=1, n=5):
    return CountingInstance(C=C, S=S, R=R, R_tilde=Rt, d1=d1, d2=d2, u=u,
                            N=SquarefreeModulus.from_int(n))


def test_empty_box_example():
    # C=1, S=R=R_tilde=0: only candidate (1,0,0,0) needs N | u^2, false for u=1, N=5
    inst = _instance(1, 0, 0, 0)
    assert counting.enumerate_A(inst) == []


def test_singleton_example():
    # u=5 makes u^2 d1 d2 c = 25 divisible by 5 at c=1, s=0
    inst = _instance(1, 0, 0, 0, u=5)
    assert counting.enumerate_A(inst) == [(1, 0, 0, 0)]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 8),
       st.sampled_from([3, 5, 7, 11, 15]))
@example(1, 3, 20, 20, 1, 1, _N_15 - 1, _N_15)     # int64 products would wrap here
@example(2, 5, 6, 6, 2, 3, _BIG_N - 1, _BIG_N)     # and overflow past 2^63
def test_dual_oracle_agreement(C, S, R, Rt, d1, d2, u, n):
    inst = _instance(C, S, R, Rt, d1, d2, u, n)
    assert counting.enumerate_A(inst) == counting.enumerate_A_naive(inst)


def test_square_variant_subset_and_guard():
    inst = _instance(4, 10, 5, 5, u=5)
    plain = counting.enumerate_A_columns(inst)
    sq = counting.rows(counting.enumerate_A_square(inst, plain))
    assert set(sq) <= set(counting.rows(plain))
    for (c, s, r1, r2) in sq:
        v = s * c - r1 * r2
        assert v >= 0 and math.isqrt(v) ** 2 == v
    with pytest.raises(ValueError):
        counting.enumerate_A_square(_instance(1, 1, 1, 1, d1=2), [])


# -- the column cores behind the tuple wrappers -------------------------------

@pytest.mark.parametrize("C,S,R,Rt,d1,d2,u,n", [
    (1, 0, 0, 0, 1, 1, 1, 5),                  # the empty box
    (1, 0, 0, 0, 1, 1, 5, 5),                  # the singleton box
    (1, 3, 20, 20, 1, 1, _N_15 - 1, _N_15),    # the N >= 2^31 examples of the dual test
    (2, 5, 6, 6, 2, 3, _BIG_N - 1, _BIG_N),
], ids=["empty", "singleton", "N15", "big-N"])
def test_wrappers_are_their_cores_zipped(C, S, R, Rt, d1, d2, u, n):
    inst = _instance(C, S, R, Rt, d1, d2, u, n)
    fast, naive = counting.enumerate_A_columns(inst), counting.enumerate_A_naive_columns(inst)
    assert all(v.dtype == np.int64 for v in fast)
    assert all(v.dtype == (object if n >= 2 ** 31 else np.int64) for v in naive)
    for wrapper, cols in ((counting.enumerate_A, fast), (counting.enumerate_A_naive, naive)):
        assert len({len(v) for v in cols}) == 1
        assert wrapper(inst) == list(zip(*(v.tolist() for v in cols)))


_SQUARE_PROBES = [0, 1, 2, 3, 4, -1, -4, -(2 ** 62), (2 ** 31 - 1) ** 2 - 1, (2 ** 31 - 1) ** 2,
                  (2 ** 31 - 1) ** 2 + 1, 2 ** 62 - 1, 2 ** 62, 2 ** 62 + 1,
                  (2 ** 31 + 1) ** 2 - 1, (2 ** 31 + 1) ** 2]


def _isqrt_mask(values):
    return [v >= 0 and math.isqrt(v) ** 2 == v for v in values]


def test_square_mask_matches_isqrt():
    assert counting.is_square(np.array(_SQUARE_PROBES)).tolist() == _isqrt_mask(_SQUARE_PROBES)
    big = [*_SQUARE_PROBES, 10 ** 40, (10 ** 20 + 1) ** 2, (10 ** 20 + 1) ** 2 - 1, -(10 ** 40)]
    assert counting.is_square(np.array(big, dtype=object)).tolist() == _isqrt_mask(big)
    assert counting.is_square(np.array([], dtype=np.int64)).tolist() == []


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_square_mask_at_and_beside_each_square(k):
    probes = [k * k - 1, k * k, k * k + 1]
    assert counting.is_square(np.array(probes)).tolist() == _isqrt_mask(probes)


def test_square_subset_is_the_same_on_python_int_columns():
    # the oracle's columns are object arrays at N >= 2^31, the fast core's int64
    inst = _instance(1, 3, 20, 20, 1, 1, _N_15 - 1, _N_15)
    fast, naive = counting.enumerate_A_columns(inst), counting.enumerate_A_naive_columns(inst)
    square = counting.rows(counting.enumerate_A_square(inst, fast))
    assert square == counting.rows(counting.enumerate_A_square(inst, naive))
    assert square == [q for q in counting.rows(fast) if _isqrt_mask([q[1] * q[0] - q[2] * q[3]])[0]]
    assert 0 < len(square) < len(fast[0])


def test_box_limit_error():
    inst = _instance(10 ** 4, 10 ** 3, 10 ** 3, 10 ** 3)
    with pytest.raises(BoxLimitError):
        counting.enumerate_A(inst)


def test_bound_check_requires_approx():
    # the approximation of u/N is derived from (u, N, H), with H = N by default
    with pytest.raises(ValueError):
        counting.lemma10_bound_check(_instance(1, 1, 1, 1), "other", [])
    mod = SquarefreeModulus.from_int(35)
    inst = CountingInstance(C=1, S=1, R=1, R_tilde=1, d1=1, d2=1, u=12, N=mod)
    assert inst.approx == dirichlet_approximate(Fraction(12, 35), 35)
    capped = CountingInstance(C=1, S=1, R=1, R_tilde=1, d1=1, d2=1, u=12, N=mod, H=4)
    assert capped.approx == dirichlet_approximate(Fraction(12, 35), 4)
    assert (capped.approx.q, capped.approx.H) == (3, 4.0)
    assert counting.lemma10_bound(capped) != counting.lemma10_bound(inst)
    with pytest.raises(ValueError, match="need finite H >= 1"):
        CountingInstance(C=1, S=1, R=1, R_tilde=1, d1=1, d2=1, u=12, N=mod, H=0.5)


def test_bound_check_ratio_modest_on_example():
    inst = _instance(8, 10, 6, 6, u=3, n=7)
    plain = counting.enumerate_A_columns(inst)
    rep = counting.lemma10_bound_check(inst, "plain", plain)
    assert rep["count"] == len(counting.enumerate_A(inst))
    assert rep["ratio"] < 1e4


@pytest.mark.parametrize("u, count", [(1, 0), (5, 1)])
def test_bound_check_ratio_of_a_nan_bound_is_nan(monkeypatch, u, count):
    # an empty box must not turn a NaN bound into a ratio of 0
    inst = _instance(1, 0, 0, 0, u=u)
    plain = counting.enumerate_A_columns(inst)
    assert counting.lemma10_bound_check(inst, "plain", plain)["ratio"] == (0.0 if count == 0
                                                                           else math.inf)
    monkeypatch.setattr(counting, "lemma10_bound", lambda inst, which: math.nan)
    rep = counting.lemma10_bound_check(inst, "plain", plain)
    assert rep["count"] == count and math.isnan(rep["ratio"])


# -- congruence reduction ----------------------------------------------------

def test_congruence_reduction_zero_violations():
    inst = CongruenceReductionInstance(l1=6, l2=10, d1=1, d2=2, c=12, u=3,
                                       N=SquarefreeModulus.from_int(7), R1=100, R2=100)
    rep = counting.count_admissible_a(inst)
    assert rep["congruence_violations"] == []
    assert rep["valuation_violations"] == []
    assert rep["max_multiplicity"] <= rep["multiplicity_bound"]


def test_congruence_reduction_validation():
    with pytest.raises(ValueError):
        CongruenceReductionInstance(l1=5, l2=1, d1=1, d2=1, c=1, u=1,
                                    N=SquarefreeModulus.from_int(5), R1=1, R2=1)


def test_multiplicity_bound_is_gcd():
    inst = CongruenceReductionInstance(l1=4, l2=6, d1=1, d2=1, c=2, u=1,
                                       N=SquarefreeModulus.from_int(7), R1=50, R2=50)
    rep = counting.count_admissible_a(inst)
    assert rep["multiplicity_bound"] == 2


# -- matrix counting ---------------------------------------------------------

def test_point_pair_u_identity():
    assert point_pair_u(0.3, 1.2, (1, 0, 0, 1)) == 0.0
    # translation by 1: |z - (z+1)|^2 / (4 y^2)
    assert point_pair_u(0.0, 1.0, (1, 1, 0, 1)) == pytest.approx(0.25)


def test_identity_only_at_tiny_delta():
    inst = MatrixCountInstance(x=0.2, y=1.1, n=1,
                               N=SquarefreeModulus.from_int(5), delta=1e-6)
    mats = counting.enumerate_R_N_matrices(inst)
    assert mats == [(-1, 0, 0, -1), (1, 0, 0, 1)]
    split = counting.matrix_count_split(mats)
    assert split["M0"] == 1 and split["Mstar"] == 0 and split["excluded_negative"] == 1


@settings(max_examples=25, deadline=None)
@given(st.floats(-1, 1), st.floats(0.4, 1.8), st.integers(1, 12),
       st.sampled_from([1, 2, 3, 5, 7]), st.floats(0.01, 1.0))
def test_matrix_dual_oracle(x, y, n, nval, delta):
    if math.gcd(n, nval) != 1:
        n += 1
        if math.gcd(n, nval) != 1:
            return
    inst = MatrixCountInstance(x=x, y=y, n=n,
                               N=SquarefreeModulus.from_int(nval), delta=delta)
    assert counting.enumerate_R_N_matrices(inst) == counting.enumerate_matrices_naive(inst)


def test_signed_divisors_against_a_scan():
    for n in [*range(1, 1500), 2 ** 19, 3 ** 12, 720720, 999983]:
        scan = [s for a in range(1, n + 1) if n % a == 0 for s in (a, -a)]
        assert counting._signed_divisors(n) == scan, n


def test_matrix_validation():
    with pytest.raises(ValueError):
        MatrixCountInstance(x=0, y=-1, n=1, N=SquarefreeModulus.from_int(1), delta=1)
    with pytest.raises(ValueError):
        MatrixCountInstance(x=0, y=1, n=5, N=SquarefreeModulus.from_int(5), delta=1)


def test_geometric_kernel_shape():
    assert counting.geometric_kernel(0.0, 16.0, 2) == 16.0
    u = 0.5
    expected = 4 * 4.0 * u ** -0.25 * 1.5 ** -1.25
    assert counting.geometric_kernel(u, 16.0, 2) == pytest.approx(expected)


def test_geometric_sum_ratio_modest():
    inst = MatrixCountInstance(x=0.3, y=0.8, n=2,
                               N=SquarefreeModulus.from_int(3), delta=4.0)
    mats = counting.enumerate_R_N_matrices(inst)
    for T in (4.0, 16.0, 64.0):
        rep = counting.geometric_sum(inst, mats, T)
        assert rep["ratio"] <= 1e3


def test_ubound_value():
    inst = MatrixCountInstance(x=0.0, y=2.0, n=4,
                               N=SquarefreeModulus.from_int(3), delta=1.0)
    assert counting.ubound_value(inst) == pytest.approx(4 ** 0.1 * (1 + 2 * 2.0))


# -- the sweeps enumerate each instance once ---------------------------------

def test_sweep_lemma10_enumerates_each_box_once(monkeypatch):
    calls = []
    enumerate_a = counting.enumerate_A_columns
    monkeypatch.setattr(counting, "enumerate_A_columns",
                        lambda inst: calls.append(inst) or enumerate_a(inst))
    rep = verify.sweep_lemma10(random.Random(3), n_instances=12)
    assert rep["instances"] == 12 and len(calls) == 12
    assert rep["max_ratio_square"] > 0


def test_box_sweep_builds_no_tuples(monkeypatch):
    # verify's box sweep compares and counts the cores' columns; the tuple
    # wrappers serve the public API only
    def refuse(inst):
        raise AssertionError("the box sweep built tuples")
    monkeypatch.setattr(counting, "enumerate_A", refuse)
    monkeypatch.setattr(counting, "enumerate_A_naive", refuse)
    rec, = verify.run_verify(verify.RunConfig(seed=0), "counting/box-bounds")["properties"]
    saved = json.loads((Path(__file__).parent / "verify_seed0.json").read_text())
    expected, = [p for p in saved["properties"] if p["id"] == "counting/box-bounds"]
    assert json.loads(json.dumps(cli._jsonable(rec))) == expected


def test_bound_check_reuses_the_plain_list(monkeypatch):
    inst = _instance(6, 9, 4, 5, u=2, n=7)
    plain = counting.enumerate_A_columns(inst)
    monkeypatch.setattr(counting, "enumerate_A_columns", None)   # no second enumeration
    counts = {"plain": len(plain[0]),
              "square": len(counting.enumerate_A_square(inst, plain)[0])}
    assert 0 < counts["square"] < counts["plain"]
    for which, count in counts.items():
        rep = counting.lemma10_bound_check(inst, which, plain)
        assert rep["count"] == count
        assert rep["bound"] == counting.lemma10_bound(inst, which)


def test_matrix_sweeps_enumerate_each_instance_once(monkeypatch):
    # 50 instances in counting/matrices-ubound and 3 in counting/matrices-geometric
    calls = []
    enumerate_matrices = counting.enumerate_R_N_matrices
    monkeypatch.setattr(counting, "enumerate_R_N_matrices",
                        lambda inst: calls.append(inst) or enumerate_matrices(inst))
    report = verify.run_verify(verify.RunConfig(seed=0), "counting/matrices-*")
    assert report["all_passed"] and len(report["properties"]) == 2
    assert len(calls) == 53


# -- box quadruples: the numpy passes against the per-(c, r1, r2) loop --------

def _enumerate_A_loop(inst):
    """The per-(c, r1, r2) loop the numpy passes replaced, kept as their reference."""
    n, sf = inst.N.value, math.floor(inst.S)
    out = []
    for c in range(math.ceil(inst.C), math.ceil(2 * inst.C)):
        if not inst.C <= c < 2 * inst.C:
            continue
        for r1 in range(-math.floor(inst.R), math.floor(inst.R) + 1):
            for r2 in range(-math.floor(inst.R_tilde), math.floor(inst.R_tilde) + 1):
                residue = (-(inst.u ** 2 * inst.d1 * inst.d2 * c
                             + inst.u * (inst.d1 * r2 + inst.d2 * r1))) % n
                s = residue - n * ((residue + sf) // n)
                while s <= sf:
                    out.append((c, s, r1, r2))
                    s += n
    out.sort()
    return out


@pytest.mark.parametrize("C,S,R,Rt,d1,d2,u,n", [
    (1, 0, 0, 0, 1, 1, 1, 1),                  # N = 1: every s is admissible
    (3.5, 0, 2.7, 1.2, 2, 3, 4, 7),            # S = 0 and fractional C, R
    (2.25, 9.9, 0.5, 3.999, 1, 2, 5, 11),
    (4, 20, 3, 3, 3, 1, 1000, 1001),           # N > 2S + 1: at most one s per point
    (6, 2, 5, 4, 2, 2, 2 ** 40 + 3, 2147483659),   # N >= 2^31: Python-integer residues
    (3, 7, 2, 2, 1, 1, 10 ** 30 + 1, _BIG_N),
    (5, 1e6, 0, 0, 2, 3, 7, _BIG_N),
])
def test_enumerate_A_matches_the_loop(C, S, R, Rt, d1, d2, u, n):
    inst = CountingInstance(C=C, S=S, R=R, R_tilde=Rt, d1=d1, d2=d2, u=u,
                            N=SquarefreeModulus.from_int(n))
    assert counting.enumerate_A(inst) == _enumerate_A_loop(inst)


@pytest.mark.parametrize("seed", range(3))
def test_enumerate_A_matches_the_loop_on_random_boxes(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.choice([1, 2, 3, 5, 6, 7, 30, 31, 1001])
        inst = CountingInstance(
            C=rng.choice([1, rng.randint(1, 9), rng.uniform(1, 9)]),
            S=rng.choice([0, rng.randint(0, 25), rng.uniform(0, 25)]),
            R=rng.choice([0, rng.uniform(0, 5)]), R_tilde=rng.uniform(0, 5),
            d1=rng.randint(1, 4), d2=rng.randint(1, 4), u=rng.randint(1, 3 * n),
            N=SquarefreeModulus.from_int(n))
        assert counting.enumerate_A(inst) == _enumerate_A_loop(inst), inst


def test_enumerate_A_does_not_depend_on_block_size(monkeypatch):
    inst = _instance(7.5, 13, 3, 4, d1=2, d2=3, u=4, n=7)
    whole = counting.enumerate_A(inst)
    assert len(whole) > 100
    for block in (1, 2 * 63, 5 * 63):      # 63 grid points per c: 1, 2 and 5 c values a block
        monkeypatch.setattr(counting, "_UNIT_BLOCK", block)
        assert counting.enumerate_A(inst) == whole


# -- rows: columns to tuples with the cyclic collector paused ----------------

def test_rows_gives_tuples_of_python_ints():
    out = counting.rows(counting.enumerate_A_columns(_instance(4, 10, 5, 5, u=5)))
    assert out and all(type(v) is int for row in out for v in row)


@pytest.mark.parametrize("enabled", [True, False])
def test_rows_leaves_the_collector_as_it_found_it(enabled):
    cols = counting.enumerate_A_columns(_instance(4, 10, 5, 5, u=5))
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        counting.rows(cols)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_rows_starts_no_collection():
    # a box of the benchmark's first stratum: 34,144 rows, whose tuples start
    # about 45 collections when they are built with the collector on
    cols = counting.enumerate_A_columns(_instance(12, 40, 16, 16, d1=1, d2=2, u=3, n=31))
    started = []

    def watch(phase, info):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code is not counting.rows.__code__:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            started.append(info["generation"])
    gc.callbacks.append(watch)
    try:
        out = counting.rows(cols)
    finally:
        gc.callbacks.remove(watch)
    assert len(out) >= 30_000 and started == []


# -- admissible residues: the vectorised walk against the per-unit loop -------

def _admissible_loop(inst, inverse=lambda a, m: pow(a, -1, m)):
    """The per-unit loop the vectorised walk and checks replaced, kept as their
    reference; `inverse` stands in for the inverse mod m."""
    m = inst.N.value * inst.c

    def centered(v):
        r = v % m
        return r - m if r > m // 2 else r
    pairs, num_a, cong, val = {}, 0, [], []
    for a in range(1, m + 1):
        if math.gcd(a, m) != 1:
            continue
        r1 = centered(inst.l1 * inverse(a, m) - inst.d1 * inst.u * inst.c)
        r2 = centered(-inst.l2 * a - inst.d2 * inst.u * inst.c)
        if abs(r1) > inst.R1 or abs(r2) > inst.R2:
            continue
        num_a += 1
        pairs[(r1, r2)] = pairs.get((r1, r2), 0) + 1
        if ((inst.d1 * inst.u * inst.c + r1) * (inst.d2 * inst.u * inst.c + r2)
                + inst.l1 * inst.l2) % m:
            cong.append((a, r1, r2))
            continue
        s, rem = divmod(r1 * r2 + inst.l1 * inst.l2, inst.c)
        if rem:
            val.append((a, r1, r2, "c does not divide r1*r2 + l1*l2"))
            continue
        for p in sorted(sympy.factorint(inst.c)) if s else ():
            vl1, vl2, vc = (p_adic_valuation(v, p) for v in (inst.l1, inst.l2, inst.c))
            need = min(vl1 + vl2 - vc, vl1, vl2, vc)
            if need > 0 and s % p ** need:
                val.append((a, r1, r2, p))
    return {"num_a": num_a, "num_rs_pairs": len(pairs),
            "max_multiplicity": max(pairs.values(), default=0),
            "multiplicity_bound": math.gcd(inst.c, inst.l1, inst.l2),
            "congruence_violations": cong, "valuation_violations": val}


@pytest.mark.parametrize("l1,l2,d1,d2,c,u,n,R1,R2", [
    (3, 7, 1, 1, 1, 1, 1, 5, 5),              # m = 1: a single unit
    (3, 7, 2, 1, 1, 4, 1, 0, math.inf),
    (6, 10, 1, 2, 12, 3, 7, 100, 100),        # even c
    (4, 6, 1, 1, 2, 1, 7, 50, 50),
    (9, 15, 3, 1, 27, 2, 7, 40.5, 300),       # odd c, 3 | gcd(l1, l2, c)
    (25, 10, 1, 3, 25, 2, 3, 30, 60),
    (1000, 2999, 2, 3, 6, 5, 7, 8, 11),       # l1, l2 > m = 42
    (77, 30, 1, 1, 9, 7, 1, math.inf, math.inf),
    (8, 12, 1, 1, 48, 1, 35, 420, 420),
])
def test_count_admissible_a_matches_the_unit_loop(l1, l2, d1, d2, c, u, n, R1, R2):
    inst = CongruenceReductionInstance(l1=l1, l2=l2, d1=d1, d2=d2, c=c, u=u,
                                       N=SquarefreeModulus.from_int(n), R1=R1, R2=R2)
    assert counting.count_admissible_a(inst) == _admissible_loop(inst)


def test_count_admissible_a_does_not_depend_on_block_size(monkeypatch):
    inst = CongruenceReductionInstance(l1=8, l2=12, d1=1, d2=1, c=48, u=1,
                                       N=SquarefreeModulus.from_int(35), R1=420, R2=420)
    whole = counting.count_admissible_a(inst)
    assert whole["num_a"] > whole["num_rs_pairs"] > 0
    monkeypatch.setattr(counting, "_UNIT_BLOCK", 5)
    assert counting.count_admissible_a(inst) == whole


# N from the congruence sweep's levels; c = k b^2 and l_i divisible by b^(j_i),
# so a prime p | b has need = min(v(l1) + v(l2) - v(c), ...) > 0 whenever
# j1 + j2 > 2, and l1 l2 reaches past 2^63
_L_FACTOR = st.one_of(st.integers(1, 30), st.integers(10 ** 9, 10 ** 12))
_RADIUS = st.one_of(st.integers(0, 4000), st.just(math.inf))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 15, 21, 33, 35]), st.integers(1, 6), st.integers(1, 6),
       st.integers(0, 2), st.integers(0, 2), _L_FACTOR, _L_FACTOR,
       st.integers(1, 3), st.integers(1, 3), st.integers(1, 10), _RADIUS, _RADIUS)
@example(7, 3, 2, 2, 2, 10 ** 12, 10 ** 12 - 1, 1, 1, 1, math.inf, math.inf)
def test_count_admissible_a_matches_the_unit_loop_on_drawn_instances(
        n, k, b, j1, j2, x1, x2, d1, d2, u, R1, R2):
    l1, l2 = b ** j1 * x1, b ** j2 * x2
    assume(math.gcd(l1 * l2, n) == 1)
    inst = CongruenceReductionInstance(l1=l1, l2=l2, d1=d1, d2=d2, c=k * b * b, u=u,
                                       N=SquarefreeModulus.from_int(n), R1=R1, R2=R2)
    assert counting.count_admissible_a(inst) == _admissible_loop(inst)


def test_count_admissible_a_reports_violations_as_the_unit_loop(monkeypatch):
    # a walk with a wrong inverse puts units in the box that break the product
    # congruence; the checks must flag the same units, in the same order
    monkeypatch.setattr(counting, "batch_inverse", lambda a, m: a)
    inst = CongruenceReductionInstance(l1=8, l2=12, d1=1, d2=2, c=12, u=1,
                                       N=SquarefreeModulus.from_int(35), R1=100, R2=150)
    rep = counting.count_admissible_a(inst)
    assert len(rep["congruence_violations"]) > 10
    assert rep == _admissible_loop(inst, inverse=lambda a, m: a)


@pytest.mark.parametrize("radii", [(math.nan, 5), (5, math.nan)])
def test_congruence_reduction_rejects_nan_radii(radii):
    # abs(r) > nan and abs(r) <= nan are both false, so a NaN radius bounds no box
    with pytest.raises(ValueError, match="NaN"):
        CongruenceReductionInstance(l1=2, l2=3, d1=1, d2=1, c=12, u=1,
                                    N=SquarefreeModulus.from_int(5), R1=radii[0], R2=radii[1])


# -- the matrix oracle can fail ----------------------------------------------

@pytest.mark.parametrize("field", ["x", "y", "delta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_matrix_instance_rejects_non_finite(field, value):
    kwargs = {"x": 0.0, "y": 1.0, "delta": 0.5, field: value}
    with pytest.raises(ValueError, match="finite"):
        MatrixCountInstance(n=1, N=SquarefreeModulus.from_int(1), **kwargs)


def test_oracle_decides_the_exact_boundary():
    # x = 0, y = 1, n = 1: g = (1, 1, 0, 1) has u = |0 - 1|^2 / 4 = 1/4 exactly
    g = (1, 1, 0, 1)
    for delta, inside in ((0.25, False), (math.nextafter(0.25, 1), True)):
        inst = MatrixCountInstance(x=0.0, y=1.0, n=1, N=SquarefreeModulus.from_int(1),
                                   delta=delta)
        assert (g in counting.enumerate_matrices_naive(inst)) is inside
        assert (g in counting.enumerate_R_N_matrices(inst)) is inside


@pytest.mark.parametrize("x,y,n,nval,delta,on_boundary", [
    (-1.0, 1.0, 5, 7, 1.0, (1, -6, 0, 5)),
    (1.0, 1.0, 5, 6, 1.0, (1, 6, 0, 5)),
    (-1.0, 1.0, 17, 2, 0.25, (-5, -3, 4, -1)),
    (-1.0, 1.0, 10, 3, 0.25, (-5, -10, 3, 4)),
])
def test_fast_path_excludes_exact_ties(x, y, n, nval, delta, on_boundary):
    # u(z, g z) = delta exactly; the float u rounds below delta here
    inst = MatrixCountInstance(x=x, y=y, n=n, N=SquarefreeModulus.from_int(nval), delta=delta)
    assert point_pair_u(x, y, on_boundary) < delta
    fast = counting.enumerate_R_N_matrices(inst)
    assert on_boundary not in fast
    assert fast == counting.enumerate_matrices_naive(inst)


def test_oracle_never_calls_point_pair_u(monkeypatch):
    inst = MatrixCountInstance(x=0.3, y=0.8, n=6, N=SquarefreeModulus.from_int(1), delta=0.9)
    fast = counting.enumerate_R_N_matrices(inst)

    def forbidden(*args):
        raise AssertionError("the oracle called point_pair_u")
    monkeypatch.setattr(counting, "point_pair_u", forbidden)
    assert counting.enumerate_matrices_naive(inst) == fast


@pytest.mark.parametrize("scale", [2.0, 0.5])
def test_point_pair_u_fault_fails_matrices_ubound(monkeypatch, scale):
    point_pair = counting.point_pair_u
    monkeypatch.setattr(counting, "point_pair_u", lambda x, y, g: scale * point_pair(x, y, g))
    rec, = verify.run_verify(verify.RunConfig(seed=0), "counting/matrices-ubound")["properties"]
    assert not rec["detail"]["all_equal"] and not rec["passed"]


@pytest.mark.parametrize("x,nval,delta", [
    (1.0, 1, math.nextafter(1.0, 0)), (-1.0, 1, 0.999), (1.0, 2, 0.99), (-1.0, 1, 0.9999999),
])
def test_oracle_box_is_complete_at_the_corners(x, nval, delta):
    # the corner of the verify ranges: |x| = 1, y = 0.3, n = 19, delta near 1.
    # Every solution in the cube |entries| <= 120, found here by a scan of its
    # own, lies in the oracle's derived box.
    inst = MatrixCountInstance(x=x, y=0.3, n=19, N=SquarefreeModulus.from_int(nval),
                               delta=delta)
    axis = np.arange(-120, 121)
    a, d = np.repeat(axis, len(axis)), np.tile(axis, len(axis))
    hits = []
    for c in range(0, 121, nval):
        if c == 0:
            on = a * d == 19
            ga, gb = np.repeat(a[on], len(axis)), np.tile(axis, on.sum())
            gd = np.repeat(d[on], len(axis))
        else:
            on = (a * d - 19) % c == 0
            ga, gd, gb = a[on], d[on], (a[on] * d[on] - 19) // c
            keep = np.abs(gb) <= 120
            ga, gb, gd = ga[keep], gb[keep], gd[keep]
        gc = np.full(len(ga), c)
        below = counting._u_below(inst, ga, gb, gc, gd)
        hits += zip(ga[below].tolist(), gb[below].tolist(), gc[below].tolist(),
                    gd[below].tolist())
    c_max, ad_max, b_max = counting._oracle_box(inst)
    assert hits
    for a_, b_, c_, d_ in hits:
        assert c_ <= c_max and max(abs(a_), abs(d_)) <= ad_max and abs(b_) <= b_max
    assert sorted(hits) == counting.enumerate_matrices_naive(inst)
    assert sorted(hits) == counting.enumerate_R_N_matrices(inst)


def _mobius_u(x, y, g):
    """u(z, gz) from the Mobius action itself, in exact arithmetic."""
    a, b, c, d = g
    den = (c * x + d) ** 2 + (c * y) ** 2
    wr, wi = ((a * x + b) * (c * x + d) + a * c * y * y) / den, (a * d - b * c) * y / den
    return ((x - wr) ** 2 + (y - wi) ** 2) / (4 * y * wi)


def _matmul(p, q):
    return tuple(tuple(sum(p[i][k] * q[k][j] for k in range(2)) for j in range(2))
                 for i in range(2))


@pytest.mark.parametrize("seed", range(3))
def test_conjugated_frobenius_norm_is_n_times_4u_plus_2(seed):
    # y = s^2 with s rational, so sigma = [[s, x/s], [0, 1/s]] is rational too
    rng = random.Random(seed)
    for _ in range(50):
        a, b, c, d = (rng.randint(-30, 30) for _ in range(4))
        n = a * d - b * c
        if n <= 0:
            continue
        x, s = Fraction(rng.randint(-99, 99), 37), Fraction(rng.randint(1, 99), 23)
        y = s * s
        sigma, sigma_inv = ((s, x / s), (0, 1 / s)), ((1 / s, -x / s), (0, s))
        h = _matmul(_matmul(sigma_inv, ((a, b), (c, d))), sigma)
        assert h == ((a - c * x, (b + (a - d) * x - c * x * x) / y), (c * y, c * x + d))
        assert sum(v * v for row in h for v in row) == n * (4 * _mobius_u(x, y, (a, b, c, d)) + 2)


def test_entry_bound_caps_every_entry():
    inst = MatrixCountInstance(x=0.7, y=0.4, n=6, N=SquarefreeModulus.from_int(1), delta=0.9)
    full = counting.enumerate_matrices_naive(inst)
    capped = counting.enumerate_matrices_naive(inst, 4)
    assert capped == [g for g in full if max(abs(v) for v in g) <= 4]
    assert len(full) > len(capped) > 0
    assert counting.enumerate_matrices_naive(inst, 60) == full


@pytest.mark.parametrize("y,delta", [(1e-300, 0.5), (1.0, 1e308), (0.3, 1e6), (1e9, 1.0)])
def test_oracle_box_over_the_cap(y, delta):
    inst = MatrixCountInstance(x=0.5, y=y, n=3, N=SquarefreeModulus.from_int(1), delta=delta)
    with pytest.raises(BoxLimitError):
        counting.enumerate_matrices_naive(inst)
    counting.enumerate_matrices_naive(inst, 20)      # the capped scan is small
    # the fast path checks its cap before it tries any candidate; its c = 0 range
    # of b alone has about 1e154 entries at delta = 1e308 and 8e9 at y = 1e9
    with pytest.raises(BoxLimitError):
        counting.enumerate_R_N_matrices(inst)


def _exact_u(x, y, g):
    a, b, c, d = (Fraction(v) for v in g)
    x, y = Fraction(x), Fraction(y)
    re, im = c * (x * x - y * y) + (d - a) * x - b, y * (2 * c * x + d - a)
    return (re * re + im * im) / (4 * (a * d - b * c) * y * y)


def _floats_around(q):
    """The largest float below the rational q and the smallest float above it."""
    lo = hi = float(q)
    while Fraction(lo) >= q:
        lo = math.nextafter(lo, -math.inf)
    while Fraction(hi) <= q:
        hi = math.nextafter(hi, math.inf)
    return lo, hi


@pytest.mark.parametrize("seed", range(4))
def test_both_paths_decide_delta_one_ulp_from_u(seed):
    # delta one ulp either side of the exact u(z, gz): rounding alone would
    # decide some of these, so both paths must settle them exactly
    rng = random.Random(seed)
    x, y, n = rng.uniform(-1, 1), rng.uniform(0.3, 2.0), rng.choice([1, 2, 3, 4, 6])
    level = SquarefreeModulus.from_int(5)
    mats = counting.enumerate_R_N_matrices(MatrixCountInstance(x=x, y=y, n=n, N=level,
                                                               delta=1.0))
    moved = [(g, u) for g in mats if (u := _exact_u(x, y, g)) > 0]
    for g, u in rng.sample(moved, 5):
        for delta, inside in zip(_floats_around(u), (False, True)):
            inst = MatrixCountInstance(x=x, y=y, n=n, N=level, delta=delta)
            assert (g in counting.enumerate_matrices_naive(inst)) is inside, (g, delta)
            assert (g in counting.enumerate_R_N_matrices(inst)) is inside, (g, delta)
