"""Record reference.json: expected outputs the benchmark checks against.

    python3 perfbench/record_reference.py

For every input in `workloads.reference_inputs()` it stores the verdict and
deciding detector; for `random` states also M, M_A, M_B, F_A and F_B; and
where the total dimension is at most 9, F_A and F_B from the brute-force
oracle in tests/oracles.py (about 6 s per 3x3 state).

The recorded values are the seed commit's. Re-recording on a later commit
would turn the checks into a comparison of that commit with itself, so run
this only when the benchmark's inputs change, and on the commit the
benchmark was defined at.
"""
from __future__ import annotations

import json
import sys
import time

import bootstrap

bootstrap.prepare()

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import pipeline  # noqa: E402
import workloads  # noqa: E402
from checks import REFERENCE_PATH  # noqa: E402

ORACLE_MAX_DIM = 9


def _oracle_sides(mat: np.ndarray, dA: int, dB: int) -> tuple[float, float]:
    """Brute-force F_A, F_B from spectra computed here, not by the package."""
    r = mat.reshape(dA, dB, dA, dB)
    glob = np.linalg.eigvalsh(mat)
    reduced_a = np.linalg.eigvalsh(np.einsum("abcb->ac", r))
    reduced_b = np.linalg.eigvalsh(np.einsum("abad->bd", r))
    return (
        oracles.brute_force_partition_minimum(glob, reduced_a, dA, dB),
        oracles.brute_force_partition_minimum(glob, reduced_b, dB, dA),
    )


def record(inp: workloads.Input) -> dict:
    out = pipeline.serve(inp)
    entry = {"verdict": out.verdict.verdict, "decided_by": out.verdict.decided_by}
    if inp.family == "random":
        entry.update(M=out.measure.value, M_A=out.measure.side_a, M_B=out.measure.side_b)
        if out.partition is not None:
            entry.update(F_A=out.partition[0], F_B=out.partition[1])
    dims = out.parsed.dims
    if dims.total <= ORACLE_MAX_DIM:
        entry["oracle_F_A"], entry["oracle_F_B"] = _oracle_sides(out.parsed.mat, dims.dA, dims.dB)
    return entry


def main() -> int:
    inputs = workloads.reference_inputs()
    recorded = {}
    start = time.perf_counter()
    for i, inp in enumerate(inputs, 1):
        recorded[inp.key] = record(inp)
        print(f"[{i}/{len(inputs)} {time.perf_counter() - start:7.1f}s] {inp.key}", file=sys.stderr, flush=True)
    doc = {
        "about": "Expected outputs recorded from the seed commit by perfbench/record_reference.py.",
        "environment": bootstrap.environment(),
        "inputs": recorded,
    }
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
