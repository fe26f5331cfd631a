"""Steadiness check: runs each workload once per seed (1 to 10) and reports,
for every metric, the median, the quartiles and the quartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py [--workload NAME ...] [--trace 0|1]

Run lengths come from BENCHMARK.json.  The per-run results are also written
to ``.bench_out/steady-<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    for workload in args.workload or names:
        results = []
        for seed in SEEDS:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        path = ROOT / ".bench_out" / f"steady-{workload}-trace{args.trace}.json"
        path.write_text(json.dumps(results, indent=1))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {len(results)} runs, failed shares {sorted(shares)}, "
              f"correct {all(r['correct'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(metric)
            note = "" if bound is None else f"  bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}"
            unit = results[0]["metrics"][metric]["unit"]
            print(f"  {metric:42s} {unit:6s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.2%}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
