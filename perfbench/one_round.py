"""One round of a benchmark workload, in a fresh process.

Builds the workload's inputs from the seed and runs the whole operation list,
timing each operation and checking its output right after, outside the timed
section, and prints one JSON line.  ``setup_s`` in it is the time from
``PERFBENCH_START`` (the ``time.time()`` at which ``run.py`` started the
process) until every supnorm module is imported.  ``--setup-only`` stops after
the imports; ``--only I,J`` builds the same inputs but runs only operations I
and J of the list (a probe, see ``run.py``).

    PERFBENCH_START=$(date +%s.%N) PYTHONPATH=src \
        python3 perfbench/one_round.py --workload NAME --seed N [--trace PATH | --only I,J]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from supnorm import (amplifier, arithmetic, cli, counting, exponents, kloosterman,
                     oscillatory, specfun, transforms, verify)

SETUP_S = time.time() - float(os.environ["PERFBENCH_START"])

MODULES = (amplifier, arithmetic, cli, counting, exponents, kloosterman,
           oscillatory, specfun, transforms, verify)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--trace", help="trace the round and save its spans to this .npz")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--only", help="comma-separated indices of the operations to run")
    args = ap.parse_args(argv)
    if args.setup_only:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0

    import spans
    import workloads

    ops = workloads.build(args.workload, args.seed)
    picked = range(len(ops)) if args.only is None else [int(i) for i in args.only.split(",")]
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(MODULES)
    times, tallies, problems = [], [], {}
    raised = wrong = 0
    for i in picked:
        op = ops[i]
        t0 = time.perf_counter()
        try:
            out = tracer.run_op(i, op.kind, op.run) if tracer else op.run()
        except Exception as exc:  # a raising operation is a failed one
            times.append(time.perf_counter() - t0)
            tallies.append({})
            raised += 1
            problems[f"{i} {op.kind} {op.label}"] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        times.append(time.perf_counter() - t0)
        # outside the timed section; the output is dropped after its check
        tallies.append(op.tally(out))
        found = op.check(out)
        del out
        if found:
            wrong += 1
            problems[f"{i} {op.kind} {op.label}"] = found
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": SETUP_S, "wall_s": sum(times), "op_s": times, "peak_rss_mib": peak_mib,
              "attempted": len(picked), "raised": raised, "wrong": wrong, "problems": problems}
    if tracer:
        result["layers"] = tracer.summarize([ops[i].kind for i in picked], times, tallies)
        tracer.write(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
