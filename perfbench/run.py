"""ncorr benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload small_sweep --seed 1 --seconds 30 --trace 0

Workloads: small_sweep, large_dense, partition_search (see README.md).
With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run, measured after an
untraced run of the same length that gives the tracing overhead. Earlier
lines give the metrics as a table, the environment and, for small_sweep,
the known NaN-acceptance defect. The full result, spans included, is also
written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import bootstrap

RESULTS = Path(__file__).resolve().parent / "results"


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("small_sweep", "large_dense", "partition_search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument(
        "--seconds", type=float, required=True, help="run length: whole passes that take about this long at the seed commit"
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _args(argv)
    try:
        bootstrap.prepare()
    except (bootstrap.CheckoutError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    import harness

    result = harness.run(args.workload, args.seed, args.seconds, args.trace)
    env = {**bootstrap.environment(), "workload": args.workload, "seed": args.seed, "seconds": args.seconds}
    for line in result["lines"]:
        print(line)
    for msg in result["failures"][:10] + result["problems"]:
        print(f"FAILED {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"environment": env, **result}))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
