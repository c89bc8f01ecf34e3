"""One benchmark request, end to end through the ncorr layers.

A request does in-process what `ncorr state`, `ncorr compute --which all
--json` and `ncorr detect --json` do, with the state file kept in memory:

    build -> state_file_text -> parse_state_text -> truncation_measure
          -> partition_discrepancy (A, B) -> classify -> Report.to_json (x2)

A malformed file goes straight to `parse_state_text`, which must reject it.
Untraced, the request calls `truncation_measure` and `classify`. Traced, it
calls the public functions they are made of, in the same order, inside one
span each, so every layer's self time can be read off.
"""
from __future__ import annotations

import tracemalloc
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

import ncorr
from ncorr import (
    CLASSICAL,
    DEFAULT_TOLERANCES,
    NONCLASSICAL,
    UNKNOWN,
    CapabilityError,
    DetectionVerdict,
    MalformedInputError,
    MeasureReport,
    ComponentContribution,
    StateSpec,
    TestOutcome,
    build,
    classify,
    cluster_spectrum,
    detect_commutator,
    detect_local_both_nondegenerate,
    detect_local_one_nondegenerate,
    detect_nondegenerate_global,
    detect_npt,
    partial_trace,
    partition_discrepancy,
    ppt_min_eigenvalue,
    truncated_component,
    truncation_measure,
    truncation_measure_side,
    von_neumann_entropy,
)
from ncorr.io import Report, matrix_as_pairs, parse_state_text, state_file_text

from workloads import PARTITION_MAX_DIM, Input, unordered_groupings

TOL = DEFAULT_TOLERANCES

# In classify's order; the measure witness follows them.
DETECTORS = (
    ("detect.global", detect_nondegenerate_global),
    ("detect.local_both", detect_local_both_nondegenerate),
    ("detect.local_one", detect_local_one_nondegenerate),
    ("detect.commutator", detect_commutator),
    ("detect.npt", detect_npt),
)


class Served(NamedTuple):
    """Everything a request produced, kept for the output checks."""

    rho: object  # DensityMatrix from build()
    text: str
    parsed: object  # DensityMatrix from parse_state_text()
    measure: MeasureReport
    partition: tuple[float, float] | None  # (F_A, F_B); None when the guard refused
    verdict: DetectionVerdict
    docs: tuple[str, str]  # compute --json and detect --json report texts


class Rejected(NamedTuple):
    message: str


class Accepted(NamedTuple):
    parsed: object


_OFF = nullcontext()


def _untraced(name: str):
    return _OFF


def serve(inp: Input, tracer=None):
    """Run one request; raises whatever the package raises unexpectedly."""
    span = tracer.span if tracer is not None else _untraced
    if inp.text is not None:
        try:
            with span("io.parse"):
                parsed = parse_state_text(inp.text)
        except MalformedInputError as e:
            return Rejected(str(e))
        return Accepted(parsed)
    with span("states.build"):
        rho = build(StateSpec(inp.name, dict(inp.params)))
    with span("io.serialize"):
        text = state_file_text(rho)
    with span("io.parse"):
        parsed = parse_state_text(text)
    measure = truncation_measure(parsed, TOL) if tracer is None else _traced_measure(parsed, tracer)
    with span("measures.partition"):
        partition = _partition(parsed)
    verdict = classify(parsed, TOL) if tracer is None else _traced_classify(parsed, tracer)
    with span("io.report"):
        docs = (measure_report(parsed, measure, partition).to_json(), detect_report(parsed, verdict).to_json())
    if tracer is not None:
        _count_outputs(tracer, parsed, partition, verdict, len(text) + sum(map(len, docs)))
    return Served(rho, text, parsed, measure, partition, verdict, docs)


def _partition(rho) -> tuple[float, float] | None:
    try:
        return (
            partition_discrepancy(rho, "A", PARTITION_MAX_DIM, TOL),
            partition_discrepancy(rho, "B", PARTITION_MAX_DIM, TOL),
        )
    except CapabilityError:
        return None


def _traced_measure(rho, tracer) -> MeasureReport:
    """truncation_measure, one public call per span."""
    with tracer.span("spectral.cluster"):
        clusters = cluster_spectrum(rho, TOL).clusters
    with tracer.span("spectral.truncate"):
        components = tuple(truncated_component(c, rho.dims, TOL) for c in clusters)
    tracer.count("spectral.components", len(components))
    with tracer.span("measures.score"):
        total_a, contribs_a = truncation_measure_side(components, "A", TOL)
        total_b, contribs_b = truncation_measure_side(components, "B", TOL)
    with tracer.span("measures.entropy"):
        entropy_a = von_neumann_entropy(partial_trace(rho.mat, rho.dims, "A"), TOL)
        entropy_b = von_neumann_entropy(partial_trace(rho.mat, rho.dims, "B"), TOL)
    with tracer.span("measures.ppt"):
        ppt = ppt_min_eigenvalue(rho)
    return MeasureReport(
        value=(total_a + total_b) / 2,
        side_a=total_a,
        side_b=total_b,
        per_component=tuple(
            ComponentContribution(c.eta, c.multiplicity, ca, cb)
            for c, ca, cb in zip(components, contribs_a, contribs_b)
        ),
        entropy_a=entropy_a,
        entropy_b=entropy_b,
        ppt_min_eig=ppt,
    )


def _traced_classify(rho, tracer) -> DetectionVerdict:
    """classify, one span per detector and one for the measure witness."""
    outcomes = []
    for name, detector in DETECTORS:
        with tracer.span(name):
            outcomes.append(detector(rho, TOL))
    with tracer.span("detect.witness"):
        m = truncation_measure(rho, TOL).value
    witnessed = m > TOL.measure
    outcomes.append(
        TestOutcome(
            "measure-witness",
            "nonclassical" if witnessed else "inconclusive",
            m,
            "truncation measure exceeds threshold" if witnessed else "truncation measure is zero",
        )
    )
    evidence = tuple(outcomes)
    applied = tuple(o.test for o in outcomes)
    for o in outcomes:
        if o.decisive:
            return DetectionVerdict(
                verdict=CLASSICAL if o.outcome == "classical" else NONCLASSICAL,
                decided_by=o.test,
                evidence=evidence,
                applied=applied,
                basis_a=o.basis_a,
                basis_b=o.basis_b,
                weights=o.weights,
            )
    return DetectionVerdict(verdict=UNKNOWN, decided_by=None, evidence=evidence, applied=applied)


def decomposition_peak_bytes(rho) -> int:
    """tracemalloc peak of cluster_spectrum plus truncated_component on rho.

    The traced run calls this between requests, outside the timed interval:
    tracemalloc inside the request made small_sweep about 40% slower and
    would have inflated the spectral self times.
    """
    tracemalloc.start()
    try:
        # The local holds every component until the peak is read, as decompose does.
        components = tuple(truncated_component(c, rho.dims, TOL) for c in cluster_spectrum(rho, TOL).clusters)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _count_outputs(tracer, rho, partition, verdict, n_bytes: int) -> None:
    if partition is not None:
        dA, dB = rho.dims.dA, rho.dims.dB
        tracer.count("measures.groupings", unordered_groupings(dA, dB) + unordered_groupings(dB, dA))
    tracer.count("detect.decided", sum(o.decisive for o in verdict.evidence))
    tracer.count("detect.run", len(verdict.evidence))
    tracer.count("detect.unknown", verdict.verdict == UNKNOWN)
    tracer.count("io.bytes", n_bytes)


# The two report builders produce the documents `ncorr compute --which all
# --json` and `ncorr detect --json` print. They mirror the CLI's private
# section helpers instead of importing them, so the benchmark depends only on
# the package's public names.


def measure_report(rho, m: MeasureReport, partition) -> Report:
    section = {
        "M": m.value,
        "M_A": m.side_a,
        "M_B": m.side_b,
        "per_component": [
            {"eta": c.eta, "multiplicity": c.multiplicity, "contribution_A": c.side_a, "contribution_B": c.side_b}
            for c in m.per_component
        ],
        "entropy_A": m.entropy_a,
        "entropy_B": m.entropy_b,
        "ppt_min_eigenvalue": m.ppt_min_eig,
    }
    if partition is not None:
        section.update(G=max(partition), F_A=partition[0], F_B=partition[1])
    return Report(ncorr.__version__, "measure", [rho.dims.dA, rho.dims.dB], TOL.as_dict(), measure=section)


def detect_report(rho, verdict: DetectionVerdict) -> Report:
    section = {
        "verdict": verdict.verdict,
        "decided_by": verdict.decided_by,
        "evidence": [
            {"test": e.test, "outcome": e.outcome, "witness": e.witness, "detail": e.detail}
            for e in verdict.evidence
        ],
        "applied": list(verdict.applied),
    }
    if verdict.basis_a is not None:
        section["basis_A"] = matrix_as_pairs(verdict.basis_a)
        section["basis_B"] = matrix_as_pairs(verdict.basis_b)
        section["weights"] = [[float(w) for w in row] for row in np.asarray(verdict.weights)]
    return Report(ncorr.__version__, "detect", [rho.dims.dA, rho.dims.dB], TOL.as_dict(), detection=section)
