"""The supnorm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload, each round in a fresh single-threaded
process (``one_round.py``), until another round would end after ``--seconds``;
at least one round, and so one 20-27 s round of ``verify-suite``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median time from
process start until every supnorm module is imported, over every process the
run starts, topped up with import-only processes to ``MIN_SETUPS``),
``wall_s`` (median time of one round's operation list), ``op_p50_ms`` (the
median over the list's operations of each operation's median time) and
``peak_rss_mib`` (largest peak resident memory of a round).

After the rounds, an untraced run of a workload in ``PROBES`` starts that
many probes of the median operation (the two middle ones if the list is
even): a probe is a fresh process that builds the same inputs and runs, times
and checks only that operation, cold, as a round does after its imports.
``attempted`` and ``failed`` count the rounds' operations only; an operation
that fails in a round is not probed, and a probe whose operation fails makes
``correct`` false.

Rounds run one after another, never side by side.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics: medians over the
traced rounds, plus ``trace.overhead_s``, the traced minus the untraced median
``wall_s``.  The spans of the last traced
round are saved to ``.bench_out/trace-<workload>-seed<seed>.npz``.

An operation that raises or whose output fails its check counts as failed;
``correct`` is false when an output fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify-suite", "kloosterman-large", "counting-oracles")
MIN_SETUPS = 6
# A verify-suite round gives one sample of its median operation, a cold sympy
# solve of about 0.1 s, and the host's speed swings by up to 25% from one
# second to the next.  Its first operation takes 12 s, so the median one is
# sampled alone.  A run makes 4-6 rounds of the other workloads, whose
# operations a probe would run without a round's warm-up.
PROBES = {"verify-suite": 7}
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
START_VAR = "PERFBENCH_START"
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "peak_rss_mib": "MiB"}


class RoundError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_round(args: list[str], deadline: float) -> dict:
    """Runs one_round.py once and returns its JSON result."""
    env = child_env()
    env[START_VAR] = repr(time.time())  # the child times its set-up from here
    try:
        proc = subprocess.run([sys.executable, str(HERE / "one_round.py"), *args],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
                              timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        raise RoundError("round ran past the time limit") from None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"round exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    begin = time.perf_counter()
    deadline = begin + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups, plain, traced = [], [], []
    passes = 0
    while True:
        res = run_round(base, deadline)
        setups.append(res["setup_s"])
        plain.append(res)
        if trace:
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"trace-{workload}-seed{seed}.npz"
            traced.append(run_round(base + ["--trace", str(path)], deadline))
        passes += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / passes > seconds:
            break
    samples = [list(times) for times in zip(*(r["op_s"] for r in plain))]
    probes = []
    if not trace:
        mid = middle(samples)
        failed_in_rounds = {int(key.split()[0]) for r in plain for key in r["problems"]}
        if not failed_in_rounds & set(mid):
            for _ in range(PROBES.get(workload, 0)):
                res = run_round(base + ["--only", ",".join(map(str, mid))], deadline)
                setups.append(res["setup_s"])
                probes.append(res)
                for i, t in zip(mid, res["op_s"]):
                    samples[i].append(t)
        while len(setups) < MIN_SETUPS:
            setups.append(run_round(["--setup-only"], deadline)["setup_s"])

    rounds = plain + traced
    for i, res in enumerate(rounds + probes):
        kind = "round" if i < len(rounds) else "probe"
        for key, found in res["problems"].items():
            print(f"{kind} {i} op {key}: {'; '.join(found)}", file=sys.stderr)
    walls = [r["wall_s"] for r in plain]
    if trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(walls))
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in layers.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1000 * statistics.median(statistics.median(t) for t in samples),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in plain),
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {
        "correct": (all(r["wrong"] == 0 for r in rounds)
                    and all(r["wrong"] + r["raised"] == 0 for r in probes)),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["raised"] + r["wrong"] for r in rounds),
        "metrics": metrics,
    }


def middle(samples: list[list[float]]) -> list[int]:
    """Indices of the operation(s) whose median time is the median of the list."""
    order = sorted(range(len(samples)), key=lambda i: statistics.median(samples[i]))
    return order[(len(order) - 1) // 2:len(order) // 2 + 1]


def layer_unit(name: str) -> str:
    if name.endswith("units_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "supnorm" / "__init__.py").is_file():
        print(f"no supnorm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
