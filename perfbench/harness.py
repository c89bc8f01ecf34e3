"""Closed-loop measurement of one workload, and the metrics it reports.

One client sends each request after the previous one returns. A run repeats
a fixed number of whole passes of the workload, shuffled per pass from the
seed: round((seconds - ONCE_SECONDS) / PASS_SECONDS), at least one. Every run thus does the
same work, with the same mix of request types and the same sample count, so
the percentiles of a faster commit are read at the same rank as its parent's.
Output checks run between requests, outside the timed interval.
"""
from __future__ import annotations

import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import checks
import pipeline
import tracing
import workloads

PROBES = 7
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "states_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Per-layer metrics: median self time per request for spans, totals over one
# pass for counts (identical in every pass of a run).
SPAN_METRICS = {
    "states.build_ms": "states.build",
    "io.serialize_ms": "io.serialize",
    "io.parse_ms": "io.parse",
    "io.report_ms": "io.report",
    "linalg.validate_ms": "linalg.validate",
    "spectral.cluster_ms": "spectral.cluster",
    "spectral.truncate_ms": "spectral.truncate",
    "measures.score_ms": "measures.score",
    "measures.entropy_ms": "measures.entropy",
    "measures.ppt_ms": "measures.ppt",
    "measures.partition_ms": "measures.partition",
    "detect.global_ms": "detect.global",
    "detect.local_both_ms": "detect.local_both",
    "detect.local_one_ms": "detect.local_one",
    "detect.commutator_ms": "detect.commutator",
    "detect.npt_ms": "detect.npt",
    "detect.witness_ms": "detect.witness",
}
COUNT_METRICS = {
    "io.bytes": "B",
    "linalg.eigh_calls": "count",
    "linalg.eigh_work": "count",
    "spectral.components": "count",
    "measures.groupings": "count",
    "detect.unknown": "count",
}
PER_LAYER_UNITS = {
    **{name: "ms" for name in SPAN_METRICS},
    **COUNT_METRICS,
    "spectral.alloc_peak_mb": "MB",
    "detect.decided_share": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass
class Measurement:
    """Everything one closed-loop phase observed."""

    pass_size: int
    latencies: list = field(default_factory=list)  # seconds per request
    by_input: list = field(default_factory=list)  # seconds per pass, for each input of the pass
    passes: int = 0
    failures: list = field(default_factory=list)  # (request index, problem)
    routes: Counter = field(default_factory=Counter)
    defects: Counter = field(default_factory=Counter)  # known defect -> requests showing it

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def rate(self) -> float:
        return self.attempted / self.busy

    @property
    def failed(self) -> int:
        return len({i for i, _ in self.failures})


def _route(out) -> str:
    if isinstance(out, pipeline.Served):
        return f"{out.verdict.verdict} by {out.verdict.decided_by or 'none'}"
    return type(out).__name__.lower()


def passes_for(workload: str, seconds: float) -> int:
    rest = seconds - workloads.ONCE_SECONDS.get(workload, 0.0)
    return max(1, round(rest / workloads.PASS_SECONDS[workload]))


def closed_loop(inputs: list, passes: int, seed: int, refs: dict, tracer=None) -> Measurement:
    """Send `passes` whole shuffled passes, one request at a time."""
    m = Measurement(pass_size=len(inputs), by_input=[[] for _ in inputs])
    while m.passes < passes:
        order = list(range(len(inputs)))
        random.Random(seed * 1_000_003 + m.passes).shuffle(order)
        for k in order:
            inp = inputs[k]
            index = m.attempted
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = pipeline.serve(inp)
                else:
                    with tracer.request():
                        out = pipeline.serve(inp, tracer)
            except Exception:  # a failed request is recorded and the loop goes on
                m.failures.append((index, f"{inp.key}: {traceback.format_exc(limit=-1).strip()}"))
                m.routes["exception"] += 1
                continue
            finally:
                m.latencies.append(time.perf_counter() - t0)
                m.by_input[k].append(m.latencies[-1])
            m.routes[_route(out)] += 1
            if tracer is not None and isinstance(out, pipeline.Served):
                tracer.requests[-1]["spectral.alloc_peak_bytes"] = pipeline.decomposition_peak_bytes(out.parsed)
            m.failures += [(index, f"{inp.key}: {p}") for p in checks.problems(inp, out, refs)]
            defect = checks.known_defect(inp, out)
            if defect is not None:
                m.defects[defect] += 1
        m.passes += 1
    return m


def setup_times(workload: str, count: int = PROBES) -> list[float]:
    """Seconds from spawning a fresh process to its `ready` line, `count` times."""
    probe = Path(__file__).resolve().parent / "probe.py"
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(probe), workload],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=Path(__file__).resolve().parent.parent,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}: {err.strip()}")
        times.append(elapsed)
    return times


def _nan_outcome(inp) -> str:
    try:
        return type(pipeline.serve(inp)).__name__.lower()
    except Exception as e:  # LinAlgError escapes validation for some NaN files
        return f"raised {type(e).__name__}"


def tail_latency(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest nearest-rank
    percentile with at least TAIL_BEYOND samples above it. A run with fewer
    samples than that reports its median."""
    xs = sorted(latencies)
    n = len(xs)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else (n - 1) // 2
    return xs[i], 100 * (i + 1) / n, n - 1 - i


def end_to_end(m: Measurement, setup: list) -> tuple[dict, list]:
    """End-to-end metric values and the lines that explain them."""
    tail, pct, beyond = tail_latency(m.latencies)
    values = {
        "setup_s": statistics.median(setup),
        "states_per_s": m.rate,
        "latency_p50_ms": 1000 * statistics.median(m.latencies),
        "latency_tail_ms": 1000 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - m.failed / m.attempted,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes: import ncorr + one warm-up request",
        "states_per_s": f"{m.attempted} requests in {m.busy:.3f} s of request time",
        "latency_p50_ms": f"n={m.attempted}",
        "latency_tail_ms": f"p{pct:.1f}, n={m.attempted}, {beyond} samples beyond",
        "peak_rss_mb": "ru_maxrss of this process",
        "success_rate": f"{m.attempted - m.failed} of {m.attempted} requests passed every check",
    }
    table = [f"  {k:<18} {v:14.6f} {END_TO_END[k]:<6} ({notes[k]})" for k, v in values.items()]
    table.append(f"  {'error_rate':<18} {m.failed / m.attempted:14.6f} {'ratio':<6} (1 - success_rate)")
    return values, table


def per_layer(tracer: tracing.Tracer, traced: Measurement, untraced: Measurement) -> tuple[dict, list]:
    """Per-layer metric values, and problems if counts differ between passes."""
    self_times = tracer.self_times()
    values = {name: tracing.median_self_ms(self_times, span) for name, span in SPAN_METRICS.items()}
    size = traced.pass_size
    passes = [tracer.requests[i : i + size] for i in range(0, len(tracer.requests), size)]
    totals = []
    for requests in passes:
        total = Counter()
        for counts in requests:
            total.update({k: v for k, v in counts.items() if k != "spectral.alloc_peak_bytes"})
        totals.append(total)
    problems = [] if all(t == totals[0] for t in totals) else ["per-pass counts differ between passes"]
    first = totals[0]
    for name in COUNT_METRICS:
        values[name] = int(first[name])
    values["detect.decided_share"] = first["detect.decided"] / first["detect.run"] if first["detect.run"] else 0.0
    peak = max(r.get("spectral.alloc_peak_bytes", 0) for r in tracer.requests)
    values["spectral.alloc_peak_mb"] = peak / 2**20
    values["trace.overhead_pct"] = 100 * (untraced.rate - traced.rate) / untraced.rate
    return values, problems


def run(workload: str, seed: int, seconds: float, trace: int, inputs=None, refs=None, probes=None) -> dict:
    """Measure one workload; returns the result document run.py prints and saves."""
    once = workloads.once_inputs(workload, seed) if inputs is None else []
    inputs = workloads.make_pass(workload, seed) if inputs is None else inputs
    refs = checks.load_references() if refs is None else refs
    setup = setup_times(workload, PROBES if probes is None else probes) if trace == 0 else []
    pipeline.serve(workloads.warmup_input(workload))

    passes = passes_for(workload, seconds)
    if trace == 1:  # two phases, untraced then traced, each about half the run
        passes = (passes + 1) // 2
    measured = [closed_loop(inputs, passes, seed, refs)]
    if trace == 1:
        tracer = tracing.Tracer()
        with tracer.installed():
            measured.append(closed_loop(inputs, passes, seed, refs, tracer))
    last = measured[-1]
    defects = Counter(last.defects)
    sent = closed_loop(once, 1, seed, refs) if once else None  # before peak_rss_mb is read
    if sent is not None:
        defects += sent.defects

    lines = [f"workload {workload}  seed {seed}  requests/pass {len(inputs)}  trace {trace}"]
    lines += [f"  passes {[m.passes for m in measured]}  requests {[m.attempted for m in measured]}"]
    problems = []
    spans = []
    if trace == 0:
        metrics, table = end_to_end(last, setup)
        units = END_TO_END
    else:
        metrics, problems = per_layer(tracer, last, measured[0])
        units = PER_LAYER_UNITS
        table = [f"  {k:<24} {v:16.6f} {units[k]}" for k, v in metrics.items()]
        start = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [[n, s - start, e - start, p, r] for n, s, e, p, r in tracer.spans]
    lines += table
    routes = {k: v / last.passes for k, v in sorted(last.routes.items())}
    lines.append("routes per pass: " + ", ".join(f"{k}: {v:g}" for k, v in routes.items()))
    if sent is not None:
        measured.append(sent)
        lines.append(
            "sent once after the passes, outside the timing metrics: "
            + ", ".join(f"{inp.key} {1000 * ts[0]:.0f} ms" for inp, ts in zip(once, sent.by_input))
        )

    for defect, count in sorted(defects.items()):
        lines.append(f"known defect: {defect}: {count} requests (not counted as failed)")
    if workload == "small_sweep":
        outcomes = Counter(_nan_outcome(inp) for inp in workloads.nan_probes(seed))
        lines.append(
            "known defect (ROADMAP item 5): NaN state files "
            + ", ".join(f"{k}: {v}" for k, v in sorted(outcomes.items()))
            + "; only 'rejected' is correct. Sent outside the timed passes, not counted as requests."
        )

    failures = [msg for m in measured for _, msg in m.failures]
    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    return {
        "summary": {
            "correct": failed == 0 and not problems,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "lines": lines,
        "failures": failures[:50],
        "problems": problems,
        "routes": routes,
        "known_defects": dict(defects),
        "latencies_s": [m.latencies for m in measured],
        "spans": spans,
    }
