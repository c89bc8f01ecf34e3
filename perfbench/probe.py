"""Set-up probe: a fresh process that imports ncorr, serves one warm-up request
and prints `ready`. The parent times it from spawn to that line.

    python3 perfbench/probe.py WORKLOAD
"""
import sys

import bootstrap

bootstrap.prepare()

import pipeline  # noqa: E402
import workloads  # noqa: E402

pipeline.serve(workloads.warmup_input(sys.argv[1]))
print("ready", flush=True)
