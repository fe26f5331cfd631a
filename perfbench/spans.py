"""Tracing for the benchmark's traced run.

``Tracer.install`` wraps every public function and public method of each
``supnorm`` module, plus mpmath's module-level Bessel functions and sympy's
``discrete_log`` as the package calls them.  Each wrapper is
bound under every name that a ``supnorm`` module uses for the original, so
calls made inside a module are recorded too.  A span holds its name, start,
end, parent span and operation id; spans stay in memory, in flat arrays, until
``write`` saves them.  Nothing is recorded outside an operation, so the output
checks run untraced.

A span's self time is its duration minus the durations of its child spans;
children nest inside their parent because the run is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import mpmath
import numpy as np
from sympy.ntheory.residue_ntheory import discrete_log

import checks

LAYERS = ("arithmetic", "kloosterman", "specfun", "transforms", "oscillatory",
          "counting", "amplifier", "exponents", "verify")
BESSEL = ("besselj", "bessely", "besselk")
COUNTING_FAST = ("counting.enumerate_A", "counting.enumerate_R_N_matrices",
                 "counting.count_admissible_a")
COUNTING_ORACLE = ("counting.enumerate_A_naive", "counting.enumerate_matrices_naive")
TWISTED_KINDS = ("legendre", "character")


def _layer(name: str) -> str:
    head = name.split(".", 1)[0]
    return "mpmath.bessel" if head == "mpmath" else head


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._roots: dict = {}

    def wrap(self, name: str, fn):
        self.names.append(name)
        nid = len(self.names) - 1
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op < 0:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self._op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
        return traced

    def run_op(self, op_id: int, kind: str, fn):
        """Runs one operation under a root span ``op.<kind>``."""
        if kind not in self._roots:
            self._roots[kind] = self.wrap(f"op.{kind}", lambda f: f())
        self._op = op_id
        try:
            return self._roots[kind](fn)
        finally:
            self._op = -1

    def install(self, modules) -> None:
        """Wraps the public callables of ``modules`` (the supnorm modules)
        and rebinds every name in them that refers to a wrapped original."""
        replace: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(f"{layer}.{attr}", obj)
        replace[id(discrete_log)] = self.wrap("arithmetic.discrete_log", discrete_log)
        # supnorm calls these as ``mp.besselj`` after ``import mpmath as mp``;
        # mpmath's own code goes through context methods and stays untraced.
        for b in BESSEL:
            setattr(mpmath, b, self.wrap(f"mpmath.{b}", getattr(mpmath, b)))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replace:
                    setattr(mod, attr, replace[id(obj)])

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(f"{prefix}.{attr}", member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", member))

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 parent=np.asarray(self.parent), op=np.asarray(self.op),
                 start=np.asarray(self.start), end=np.asarray(self.end))

    def durations(self) -> tuple[np.ndarray, np.ndarray]:
        """Each span's duration and self time."""
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        return dur, dur - np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))

    def summarize(self, kinds: list[str], times: list[float], tallies: list[dict]) -> dict:
        """Per-layer metrics of one traced round.  ``kinds``, ``times`` and
        ``tallies`` give each operation's kind, duration and counters."""
        name = np.asarray(self.name, dtype=np.int64)
        dur, own = self.durations()
        size = len(self.names)
        calls = np.bincount(name, minlength=size)
        total = np.bincount(name, weights=dur, minlength=size)
        self_total = np.bincount(name, weights=own, minlength=size)

        def pick(values, match) -> float:
            return float(sum(values[i] for i, nm in enumerate(self.names) if match(nm)))

        def in_layer(layer):
            return lambda nm: _layer(nm) == layer

        out = {}
        for prop_id in checks.PROPERTY_LIMITS:
            out[f"verify.{prop_id.replace('/', '.')}.s"] = sum(
                t for k, t in zip(kinds, times) if k == prop_id)
        for layer in ("transforms", "specfun", "oscillatory"):
            out[f"{layer}.self_s"] = pick(self_total, in_layer(layer))
            out[f"{layer}.calls"] = pick(calls, in_layer(layer))
        out["mpmath.bessel.calls"] = pick(calls, in_layer("mpmath.bessel"))
        out["mpmath.bessel.s"] = pick(total, in_layer("mpmath.bessel"))

        def units(match):
            pairs = [(tl["units"], t) for k, t, tl in zip(kinds, times, tallies)
                     if "units" in tl and match(k)]
            n, secs = sum(u for u, _ in pairs), sum(t for _, t in pairs)
            return n, (n / secs if secs > 0 else 0.0), len(pairs)

        n_triv, rate_triv, sums_triv = units(lambda k: k not in TWISTED_KINDS)
        n_tw, rate_tw, sums_tw = units(lambda k: k in TWISTED_KINDS)
        out["kloosterman.self_s"] = pick(self_total, in_layer("kloosterman"))
        out["kloosterman.sums"] = sums_triv + sums_tw
        out["kloosterman.units"] = n_triv + n_tw
        out["kloosterman.trivial.units_per_s"] = rate_triv
        out["kloosterman.twisted.units_per_s"] = rate_tw
        out["arithmetic.self_s"] = pick(self_total, in_layer("arithmetic"))
        out["arithmetic.angle.calls"] = pick(
            calls, lambda nm: nm == "arithmetic.DirichletCharacter.angle")
        out["arithmetic.discrete_log.calls"] = pick(
            calls, lambda nm: nm == "arithmetic.discrete_log")
        out["counting.fast.s"] = pick(total, lambda nm: nm in COUNTING_FAST)
        out["counting.oracle.s"] = pick(total, lambda nm: nm in COUNTING_ORACLE)
        pp_calls = pick(calls, lambda nm: nm == "counting.point_pair_u")
        accepted = sum(tl.get("accepted", 0) for tl in tallies)
        out["counting.point_pair_u.calls"] = pp_calls
        out["counting.accepted"] = accepted
        out["counting.accept_ratio"] = accepted / pp_calls if pp_calls else 0.0
        out["amplifier.self_s"] = pick(self_total, in_layer("amplifier"))
        out["exponents.self_s"] = pick(self_total, in_layer("exponents"))
        return out

