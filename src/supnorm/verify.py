"""Property-suite driver: one record per property of the paper's constructive
steps (instances run, fitted constant, pinned limit, pass/fail).

`PROPERTIES` is the registry, an ordered table with one `Property` entry per
property.  An entry runs its sweep on an rng seeded from the run seed and its
id, reads the fitted constant and the side conditions (oracle agreement,
tolerances, decay slopes) off the sweep's detail, and passes when the fitted
constant is at most its limit and every side condition holds.  Each limit and
tolerance lives only here: `run_verify`, the CLI's `verify` and
`bessel verify` all read this table.  Adding a property means adding one
entry.  A fitted constant, like each tolerance figure, is `_worst` of the
ratios its sweep collects: their maximum, which a NaN ratio wins, so a kernel
that returns NaN fails its property.  The acceptance tests call the same
sweeps, `sweep_lemma10` at a larger size, and keep their own literal limits;
the sweep sizes here keep a full run interactive."""

from __future__ import annotations

import cmath
import fnmatch
import math
import random
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import amplifier as amp_mod
from . import counting, exponents, kloosterman, oscillatory, specfun, transforms
from .arithmetic import DirichletCharacter, SquarefreeModulus, enumerate_characters, factorint


@dataclass
class RunConfig:
    seed: int = 0


def _worst(values) -> float:
    """The largest of `values`, 0.0 when there are none, NaN when any is NaN."""
    return float(np.max(np.fromiter(values, float), initial=0.0))


# ---------------------------------------------------------------------------
# sweeps (reused by the acceptance tests)
# ---------------------------------------------------------------------------

TRANSFORM_PAIRS = ((8, 2), (10, 2), (12, 2), (10, 4))
TRANSFORM_KS = (2, 4, 6, 8)
TRANSFORM_TS = (0.1, 0.5, 1.0, 2.0, 5.0)
CONGRUENCE_INSTANCES = 100
MATRIX_INSTANCES = 50
AMPLIFIER_SYSTEMS = 50
KLOOSTERMAN_INSTANCES = 40


def sweep_transforms() -> dict:
    """Largest relative error of each quadrature against its closed form, and
    the largest stated truncation bound of the discrete one relative to it."""
    dot, tilde, tail = [], [], []
    for a, b in TRANSFORM_PAIRS:
        tf = transforms.TestFunction(a, b)
        for k in TRANSFORM_KS:
            c = transforms.dot_transform_closed_value(tf, k)
            dot.append(abs(c - transforms.dot_transform_quadrature(tf, k)) / abs(c))
            tail.append(transforms.dot_truncation_bound(tf, k) / abs(c))
        for t in TRANSFORM_TS:
            c = transforms.tilde_transform_closed(tf, t)
            tilde.append(abs(c - transforms.tilde_transform_quadrature(tf, t)) / abs(c))
    return {"max_rel_dot": _worst(dot), "max_rel_tilde": _worst(tilde),
            "dot_tail_bound": _worst(tail), "instances": len(dot) + len(tilde)}


def check_positivity() -> dict:
    ok = True
    for a, b in TRANSFORM_PAIRS:
        cert = transforms.positivity_certificate(transforms.TestFunction(a, b))
        ok = ok and cert["dot_all_positive"] and cert["tilde_positive"]
    return {"all_positive": ok, "instances": len(TRANSFORM_PAIRS)}


def check_exponents() -> dict:
    F = Fraction
    rep = exponents.theorem1_final()
    hyb = exponents.theorem2_combination()
    asm = exponents.lemma9_lemma11_assembly()
    checks = {
        "H": (rep["H"].exponent("N"), rep["H"].exponent("t_star")) == (F(313, 457), F(-1803, 914)),
        "L": (rep["L"].exponent("N"), rep["L"].exponent("t_star")) == (F(64, 457), F(96, 457)),
        "final": (rep["exponent_N"], rep["exponent_t_star"]) == (F(-25, 914), F(9979, 1828)),
        "secondary": (rep["secondary_exponent_N"], rep["secondary_exponent_t_star"])
                     == (F(71, 914), F(11181, 1828)),
        "second_form": rep["second_form_N_exponent"] == F(6158, 75405),
        "dominance": rep["balanced_term_dominates"],
        "constraints": rep["constraints"]["satisfied"],
        "theorem1_consistency": rep["exponent_N"] <= F(-1, 37)
                                and rep["exponent_t_star"] <= F(11, 2),
        "hybrid": hyb["final_exponent"] == F(-1, 2269)
                  and hyb["weights"] == (F(37, 2269), F(2232, 2269)),
        "assembly": asm["monomial_sets_equal"],
    }
    return {"checks": checks, "all_exact": all(checks.values())}


_SWEEP_MODULI = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97, 33, 35, 77, 91, 85, 87, 95, 93, 65)


def sweep_lemma10(rng: random.Random, n_instances: int = 60) -> dict:
    plain_ratios, square_ratios = [], []
    dual_ok = True
    for _ in range(n_instances):
        nval = rng.choice(_SWEEP_MODULI)
        mod = SquarefreeModulus.from_int(nval)
        u = rng.randint(1, nval)
        inst = counting.CountingInstance(
            C=rng.randint(1, 20), S=rng.randint(1, 20), R=rng.randint(1, 20),
            R_tilde=rng.randint(1, 20), d1=rng.randint(1, 3), d2=rng.randint(1, 3),
            u=u, N=mod)
        plain = counting.enumerate_A_columns(inst)
        dual_ok &= all(map(np.array_equal, plain, counting.enumerate_A_naive_columns(inst)))
        plain_ratios.append(counting.lemma10_bound_check(inst, "plain", plain)["ratio"])
        if inst.d1 == 1 and inst.d2 == 1:
            square_ratios.append(counting.lemma10_bound_check(inst, "square", plain)["ratio"])
    return {"instances": n_instances, "dual_oracle_ok": dual_ok,
            "fitted_constant": _worst(plain_ratios + square_ratios),
            "max_ratio_plain": _worst(plain_ratios), "max_ratio_square": _worst(square_ratios)}


def sweep_congruence(rng: random.Random) -> dict:
    violations = 0
    mult_ok = True
    done = 0
    while done < CONGRUENCE_INSTANCES:
        nval = rng.choice((5, 7, 11, 13, 15, 21, 33, 35))
        mod = SquarefreeModulus.from_int(nval)
        l1, l2 = rng.randint(1, 30), rng.randint(1, 30)
        if math.gcd(l1 * l2, nval) != 1:
            continue
        inst = counting.CongruenceReductionInstance(
            l1=l1, l2=l2, d1=rng.randint(1, 3), d2=rng.randint(1, 3),
            c=rng.randint(1, 24), u=rng.randint(1, 10), N=mod,
            R1=rng.randint(1, 200), R2=rng.randint(1, 200))
        rep = counting.count_admissible_a(inst)
        violations += len(rep["congruence_violations"]) + len(rep["valuation_violations"])
        if rep["max_multiplicity"] > rep["multiplicity_bound"]:
            mult_ok = False
        done += 1
    return {"instances": done, "violations": violations, "multiplicity_ok": mult_ok}


def sweep_matrices(rng: random.Random) -> dict:
    all_equal = True
    ratios = []
    while len(ratios) < MATRIX_INSTANCES:
        nval = rng.choice((1, 2, 3, 5, 6, 7, 10))
        n = rng.randint(1, 20)
        if math.gcd(n, nval) != 1:
            continue
        inst = counting.MatrixCountInstance(
            x=rng.uniform(-1, 1), y=rng.uniform(0.3, 2.0), n=n,
            N=SquarefreeModulus.from_int(nval), delta=rng.uniform(0.0, 1.0))
        ours = counting.enumerate_R_N_matrices(inst)
        all_equal &= ours == counting.enumerate_matrices_naive(inst)
        ratios.append(counting.matrix_count_split(ours)["M0"] / counting.ubound_value(inst))
    return {"instances": len(ratios), "all_equal": all_equal, "ubound_constant": _worst(ratios)}


def sweep_geometric() -> dict:
    """Geometric-sum shape on a small fixed sweep; it draws no random numbers."""
    ratios = []
    for n, nval, y in ((2, 3, 0.8), (5, 2, 1.2), (12, 5, 0.6)):
        inst = counting.MatrixCountInstance(x=0.3, y=y, n=n,
                                            N=SquarefreeModulus.from_int(nval), delta=4.0)
        mats = counting.enumerate_R_N_matrices(inst)
        ratios += (counting.geometric_sum(inst, mats, t_kernel)["ratio"]
                   for t_kernel in (4.0, 16.0, 64.0))
    return {"geometric_constant": _worst(ratios)}


_SAMPLE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                  59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


def sweep_amplifier(rng: random.Random) -> dict:
    errors = []
    for _ in range(AMPLIFIER_SYSTEMS):
        nval = rng.choice((1, 5, 7, 11, 13, 15, 21, 33))
        chars = [c for c in enumerate_characters(nval) if c.is_even()]
        chi = rng.choice(chars)
        sys_ = amp_mod.HeckeSystem(chi, {p: rng.uniform(-2, 2) for p in _SAMPLE_PRIMES})
        L = rng.choice((5, 10, 20, 50))
        amp = amp_mod.build_amplifier(sys_, L, SquarefreeModulus.from_int(nval))
        expected = len(amp.lambda1)
        # with no amplifying prime the sum is empty: exactly 0, as expected
        errors.append(abs(amp_mod.amplifier_diagonal_value(sys_, amp) - expected)
                      / max(expected, 1))
    return {"instances": AMPLIFIER_SYSTEMS, "max_rel_error": _worst(errors)}


def sweep_specfun() -> dict:
    recs = [specfun.check_derivative_recurrences(r, [0.5, 1, 2, 5, 10, 20]) for r in (1.0, 3.0)]

    def bump(y):
        v = 2 * (y - 2.5) / 3
        return math.exp(-1 / (1 - v * v)) if abs(v) < 1 else 0.0

    ibp_errors = [specfun.check_ibp_identity(bump, (1.0, 4.0), r, alpha, family)["rel_error"]
                  for family in "JYK" for r in (0.0, 1.0, 2.0) for alpha in (1.0, 2.0)]

    j_shape = specfun.fit_bessel_j_shape(
        orders=range(0, 25), y_grid=np.geomspace(0.01, 1e4, 400))
    k_shape = specfun.fit_bessel_k_shape(
        ts=(0.0, 0.5, 1.0, 2.0, 5.0, 10.0), y_grid=np.geomspace(0.05, 60, 80))
    params = [specfun.ArchimedeanParameter.holomorphic(k) for k in (2, 4, 10, 20)] + \
             [specfun.ArchimedeanParameter.maass(t) for t in (0.0, 1.0, 5.0)]
    w_shape = specfun.fit_whittaker_shape(params, y_factors=(0.1, 0.3, 1.0, 2.0, 5.0))
    transitions = [specfun.check_kbessel_transition_bound(
        t, sorted({0.3 * t, 0.8 * t, 0.95 * t, t, 1.05 * t, 1.3 * t, 3 * t}))["constant"]
        for t in (2.0, 5.0, 10.0, 20.0)]
    return {
        "recurrence_max_error": _worst(rec[key] for rec in recs
                                       for key in ("max_discrepancy_J", "max_discrepancy_K")),
        "ibp_max_rel_error": _worst(ibp_errors),
        "bessel_j_constant": j_shape["constant"],
        "bessel_k_constant": k_shape["constant"],
        "whittaker_constant": w_shape["constant"],
        "transition_constant": _worst(transitions),
    }


LEMMA4_ALPHAS = (0.5, 0.3, Fraction(1, 7), Fraction(34, 55))


def sweep_lemma4() -> dict:
    ratios = {2: [], 3: []}
    for nu in range(8, 15):
        z = float(2 ** nu)
        for alpha in LEMMA4_ALPHAS:
            t_scale = max(4.0 / oscillatory.distance_to_nearest_integer(alpha), 1.0)
            w = oscillatory.SmoothWindow(z, min(t_scale, z))
            for j in (2, 3):
                ratios[j].append(oscillatory.lemma4_decay_check(w, alpha, j)["ratio"])
    # one |sum| against T: the slope is the same figure for every j
    slope = oscillatory.lemma4_t_sweep(4096.0, 0.3, [8, 16, 32])["slope"]
    return {"C2": _worst(ratios[2]), "C3": _worst(ratios[3]), "slopes": {2: slope, 3: slope}}


def sweep_kernel_integrals() -> dict:
    ratios1, ratios2 = [], []
    params = [specfun.ArchimedeanParameter.holomorphic(2),
              specfun.ArchimedeanParameter.holomorphic(8),
              specfun.ArchimedeanParameter.maass(0.0),
              specfun.ArchimedeanParameter.maass(2.0)]
    for param in params:
        for z in (8.0, 32.0):
            for t_scale in (1.0, 4.0):
                w = oscillatory.SmoothWindow(z, z / t_scale)
                for alpha in (0.5, 1.0, 4.0):
                    for sign in "+-":
                        val = abs(oscillatory.voronoi_integral(w, param, sign, alpha))
                        b1 = oscillatory.lemma6_bound1(z, param.t_star, alpha)
                        ratios1.append(val / b1)
                        if alpha * math.sqrt(z / 2) >= 2 * param.t_star:
                            for j in (1, 2):
                                b2 = oscillatory.lemma6_bound2(z, w.T, param.t_star, alpha, j)
                                ratios2.append(val / b2)
    return {"bound1_constant": _worst(ratios1), "bound2_constant": _worst(ratios2)}


def check_partition() -> dict:
    part = oscillatory.DyadicPartition()
    grid = np.concatenate([np.linspace(1, 64, 301), np.geomspace(64, 2 ** 20, 100)])
    return part.partition_check(grid)


def _kloosterman_direct(m: int, n: int, c: int) -> complex:
    """S(m, n; c) term by term in Python integers: every unit on its own, its
    inverse by `pow`; no pairing of a with -a and no batch inversion."""
    return sum((cmath.exp(2j * math.pi * ((m * pow(a, -1, c) + n * a) % c) / c)
                for a in range(c) if math.gcd(a, c) == 1), 0j)


def sweep_kloosterman(rng: random.Random) -> dict:
    trivial, direct = [], []
    chi = DirichletCharacter.trivial(1)
    # the random instances, then one (m, n) at c = 1 and one at c = 2, where the
    # fast path takes its closed form; those two are held to the direct sum
    # only, as at c = 1 the ratio is exactly 1, the limit
    for fixed_c in [None] * KLOOSTERMAN_INSTANCES + [1, 2]:
        c = fixed_c or rng.randint(1, 200)
        q = kloosterman.KloostermanQuery(rng.randint(-20, 20) or 1, rng.randint(-20, 20) or 1, c, chi)
        rep = kloosterman.kloosterman_weil_check(q)
        direct.append(abs(rep["value"] - _kloosterman_direct(q.m, q.n, c)) / math.sqrt(c))
        # the reference bound is an upper bound for square-free c
        if fixed_c is None and all(e == 1 for e in factorint(c).values()):
            trivial.append(rep["ratio"])
    return {"instances": KLOOSTERMAN_INSTANCES, "max_direct_error": _worst(direct),
            "max_ratio_squarefree_trivial": _worst(trivial)}


# ---------------------------------------------------------------------------
# the property registry and driver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Property:
    """One verify property.  `run(rng)` returns the sweep's detail,
    `fitted(detail)` its fitted constant and `ok(detail)` whether its side
    conditions hold; it passes when fitted <= limit and ok(detail)."""
    id: str
    limit: float
    run: Callable[[random.Random], dict]
    fitted: Callable[[dict], float]
    ok: Callable[[dict], bool] = lambda rep: True

    def record(self, rep: dict) -> dict:
        fitted = self.fitted(rep)
        return {"id": self.id, "fitted_constant": fitted, "limit": self.limit,
                "passed": bool(fitted <= self.limit and self.ok(rep)), "detail": rep}


# `specfun/grid` rows of `bessel verify`: tolerances, which hold strictly, and
# shape constants, whose maximum is the property's fitted constant.
SPECFUN_TOLERANCES = (("derivative-recurrences", "recurrence_max_error", 1e-6),
                      ("integration-by-parts", "ibp_max_rel_error", 1e-7))
SPECFUN_SHAPES = (("bessel-j-shape", "bessel_j_constant"),
                  ("bessel-k-shape", "bessel_k_constant"),
                  ("whittaker-shape", "whittaker_constant"),
                  ("transition-bound", "transition_constant"))


def specfun_rows(rep: dict) -> list[tuple[str, float, float, bool]]:
    """(name, value, limit, passed) per condition of `specfun/grid`, judged
    as the property judges it."""
    limit = PROPERTIES["specfun/grid"].limit
    return ([(name, rep[key], tol, rep[key] < tol) for name, key, tol in SPECFUN_TOLERANCES]
            + [(name, rep[key], limit, rep[key] <= limit) for name, key in SPECFUN_SHAPES])


PROPERTIES = {prop.id: prop for prop in (
    Property("transforms/closed-vs-quadrature", 1e-6, lambda rng: sweep_transforms(),
             lambda rep: _worst((rep["max_rel_dot"], rep["max_rel_tilde"])),
             lambda rep: (rep["max_rel_dot"] + rep["dot_tail_bound"]
                          <= PROPERTIES["transforms/closed-vs-quadrature"].limit)),
    Property("transforms/positivity", 1.0, lambda rng: check_positivity(),
             lambda rep: 0.0 if rep["all_positive"] else math.inf,
             lambda rep: rep["all_positive"]),
    Property("exponents/reproduction", 1.0, lambda rng: check_exponents(),
             lambda rep: 0.0 if rep["all_exact"] else math.inf,
             lambda rep: rep["all_exact"]),
    Property("counting/box-bounds", 1e4, sweep_lemma10,
             lambda rep: rep["fitted_constant"],
             lambda rep: rep["dual_oracle_ok"]),
    Property("counting/congruence-reduction", 0.0, sweep_congruence,
             lambda rep: float(rep["violations"]),
             lambda rep: rep["multiplicity_ok"]),
    Property("counting/matrices-ubound", 100.0, sweep_matrices,
             lambda rep: rep["ubound_constant"],
             lambda rep: rep["all_equal"]),
    Property("counting/matrices-geometric", 1e3, lambda rng: sweep_geometric(),
             lambda rep: rep["geometric_constant"]),
    Property("amplifier/diagonal", 1e-9, sweep_amplifier,
             lambda rep: rep["max_rel_error"]),
    Property("specfun/grid", 50.0, lambda rng: sweep_specfun(),
             lambda rep: _worst(rep[key] for _, key in SPECFUN_SHAPES),
             lambda rep: all(rep[key] < tol for _, key, tol in SPECFUN_TOLERANCES)),
    Property("oscillatory/poisson-decay", 100.0, lambda rng: sweep_lemma4(),
             lambda rep: _worst((rep["C2"], rep["C3"])),
             lambda rep: rep["slopes"][3] <= -2.8),
    Property("oscillatory/kernel-integrals", 50.0, lambda rng: sweep_kernel_integrals(),
             lambda rep: _worst((rep["bound1_constant"], rep["bound2_constant"]))),
    Property("oscillatory/partition", 1e-12, lambda rng: check_partition(),
             lambda rep: rep["max_deviation"]),
    Property("kloosterman/weil-reference", 1.0, sweep_kloosterman,
             lambda rep: rep["max_ratio_squarefree_trivial"],
             lambda rep: rep["max_direct_error"] <= 1e-9),
)}


def run_verify(config: RunConfig, selector: str = "*") -> dict:
    """Run every property whose id matches `selector`; a selector that matches
    none is a `ValueError`, not an empty pass."""
    selected = [prop for prop in PROPERTIES.values() if fnmatch.fnmatch(prop.id, selector)]
    if not selected:
        raise ValueError(f"selector {selector!r} matches no property; "
                         f"property ids: {', '.join(PROPERTIES)}")
    records = []
    for prop in selected:
        rng = random.Random(config.seed ^ zlib.crc32(prop.id.encode()))
        records.append(prop.record(prop.run(rng)))
    return {
        "version": 1,
        "seed": config.seed,
        "selector": selector,
        "properties": records,
        "all_passed": all(r["passed"] for r in records),
    }
