"""Self-test of the benchmark itself (about half a minute):

    python3 perfbench/selftest.py

1. A tiny pass of each workload, untraced and traced, emits every named
   metric with a finite value, every span metric above zero, and no failure.
2. The traced request path writes the same report texts as the untraced one.
3. A deliberately wrong reference value makes the run report a failure, so
   success_rate drops below 1 (error_rate rises above 0).
4. A classical 12x12 state that the seed commit misclassifies at a
   near-degenerate eigenvalue pair is reported as the known defect, not as a
   failure (and passes outright once the detector is fixed).
"""
from __future__ import annotations

import copy
import math
import sys

import bootstrap

bootstrap.prepare()

import checks  # noqa: E402
import harness  # noqa: E402
import pipeline  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_TINY_DIM = {"small_sweep": 16, "large_dense": 144, "partition_search": 12}


class SelfTestFailure(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


def tiny_pass(workload: str) -> list:
    """One input of each kind and shape of the workload, small ones only."""
    chosen = {}
    for inp in workloads.make_pass(workload, seed=0):
        params = dict(inp.params)
        d = params.get("dA", 0) * params.get("dB", 0) or params.get("N", 2) ** 2
        if d <= MAX_TINY_DIM[workload]:
            chosen.setdefault((inp.family, inp.name, params.get("dA"), params.get("dB"), params.get("rank")), inp)
    return list(chosen.values())


def check_metrics(workload: str, inputs: list, refs: dict) -> None:
    for trace, expected in ((0, harness.END_TO_END), (1, harness.PER_LAYER_UNITS)):
        result = harness.run(workload, 0, 0, trace, inputs=inputs, refs=refs, probes=1)
        summary = result["summary"]
        _expect(summary["failed"] == 0 and summary["correct"], f"{workload} trace={trace}: {result['failures']}")
        metrics = summary["metrics"]
        _expect(set(metrics) == set(expected), f"{workload} trace={trace} metrics {sorted(metrics)}")
        for name, metric in metrics.items():
            _expect(math.isfinite(metric["value"]), f"{workload}: {name} = {metric['value']}")
            _expect(metric["unit"] == expected[name], f"{workload}: {name} unit {metric['unit']}")
            if name in harness.SPAN_METRICS:
                _expect(metric["value"] > 0, f"{workload}: {name} is zero")


def check_traced_reports(inputs: list) -> None:
    tracer = tracing.Tracer()
    for inp in inputs:
        if inp.text is not None:
            continue
        with tracer.installed(), tracer.request():
            traced = pipeline.serve(inp, tracer)
        _expect(traced.docs == pipeline.serve(inp).docs, f"traced reports differ for {inp.key}")


def check_wrong_reference(inputs: list, refs: dict) -> None:
    target = next(inp for inp in inputs if inp.family == "random")
    wrong = copy.deepcopy(refs)
    wrong[target.key]["M"] += 1e-6
    summary = harness.run("small_sweep", 0, 0, 0, inputs=inputs, refs=wrong, probes=1)["summary"]
    _expect(summary["failed"] == 1, f"wrong reference gave {summary['failed']} failures")
    _expect(summary["metrics"]["success_rate"]["value"] < 1, "success_rate stayed at 1")


def check_known_defect(refs: dict) -> None:
    inp = workloads.Input("random_classical", "random_classical", (("dA", 12), ("dB", 12), ("seed", 1195264631)))
    out = pipeline.serve(inp)
    _expect(checks.problems(inp, out, refs) == [], f"known-defect state failed: {checks.problems(inp, out, refs)}")
    if out.verdict.verdict != "CLASSICAL":
        _expect(checks.known_defect(inp, out) is not None, "misclassified classical state not recognised")


def main() -> int:
    refs = checks.load_references()
    try:
        for workload in workloads.WORKLOADS:
            inputs = tiny_pass(workload)
            check_metrics(workload, inputs, refs)
            check_traced_reports(inputs)
            print(f"ok  {workload}: {len(inputs)} inputs, every metric emitted, traced reports match")
        check_wrong_reference(tiny_pass("small_sweep"), refs)
        print("ok  a wrong reference value is reported as a failed request")
        check_known_defect(refs)
        print("ok  the classical tolerance-edge misclassification is reported as a known defect")
    except SelfTestFailure as e:
        print(f"FAIL {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
