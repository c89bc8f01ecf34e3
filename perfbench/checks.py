"""Output checks: every request's result is compared with an expected value.

- phi_p: M equals the closed form (oracles.m_pure) at 1e-9.
- kappa and the catalog: M equals the exact-arithmetic oracle tables that
  the acceptance gate uses, at 1e-9; bell(N): M = log2(N).
- random: M, its sides and F_A, F_B equal the values recorded from the seed
  commit in reference.json, at 1e-9.
- random_classical: M and G are at most tol.measure, and the verdict is
  CLASSICAL with a product basis that rebuilds the state. One wrong verdict
  is a known defect of the seed commit, reported apart from failures (see
  `known_defect`).
- Where the total dimension is at most 9, F_A and F_B equal
  oracles.brute_force_partition_minimum, recorded in reference.json because
  the oracle takes seconds per 3x3 state.
- Every recorded input keeps its seed-commit verdict and deciding detector.
- Every request: the parsed state equals the built one bit for bit, both
  report texts parse and carry the same M and verdict, and G is computed
  exactly when the total dimension is within the guard.
- Malformed files must raise MalformedInputError.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracles
from ncorr import CLASSICAL
from pipeline import TOL, Rejected, Served
from workloads import PARTITION_MAX_DIM, Input

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
EXACT = 1e-9


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())["inputs"]


def _expected_m(inp: Input, ref: dict | None) -> float | None:
    params = dict(inp.params)
    if inp.family == "phi_p":
        return oracles.m_pure(params["p"])
    if inp.family == "kappa":
        return oracles.measure_value(oracles.kappa_table(params["c_x"], params["c_y"], params["c_z"]))[0]
    if inp.family == "catalog":
        return oracles.measure_value(oracles.FIXED_TABLES[inp.name])[0]
    if inp.family == "bell":
        return math.log2(params["N"])
    if inp.family == "random":
        return ref["M"]
    return None


def _rebuilds(verdict, rho) -> float:
    u = np.kron(verdict.basis_a, verdict.basis_b)
    return float(np.linalg.norm((u * np.asarray(verdict.weights).reshape(-1)) @ u.conj().T - rho.mat, "fro"))


def _close(problems: list, what: str, got: float, want: float) -> None:
    if not abs(got - want) <= EXACT:
        problems.append(f"{what} = {got!r}, expected {want!r}")


# detect_nondegenerate_global compares the overlap of eigenvector components
# with the fixed tol.orth = 1e-10. When two eigenvalues of a classical state
# sit just above tol.deg apart (about 1e-8), eigh mixes their eigenvectors by
# about 1e-18 / gap, which exceeds tol.orth, and the detector decides
# NONCLASSICAL. At the seed commit this hits about one 20x20 random_classical
# state in eight and a 12x12 one rarely.
_EDGE_DETAIL = "eigenvector components neither orthogonal nor equal"
_EDGE_MAX_OVERLAP = 1e-6


def known_defect(inp: Input, out) -> str | None:
    """Name of the known defect this output shows, if any."""
    if inp.family != "random_classical" or not isinstance(out, Served):
        return None
    v = out.verdict
    edge = v.evidence[0]
    if (
        v.verdict != CLASSICAL
        and v.decided_by == edge.test == "global-nondegenerate"
        and edge.detail.endswith(_EDGE_DETAIL)
        and edge.witness <= _EDGE_MAX_OVERLAP
    ):
        return "classical state classified NONCLASSICAL at a near-degenerate eigenvalue pair"
    return None


def problems(inp: Input, out, refs: dict) -> list[str]:
    """Every way the output of one request differs from what is expected."""
    if inp.family == "malformed":
        if isinstance(out, Rejected):
            return []
        return [f"malformed file ({inp.name}) was accepted"]
    if not isinstance(out, Served):
        return [f"unexpected result {type(out).__name__}"]
    found: list[str] = []
    ref = refs.get(inp.key)
    if inp.family != "random_classical" and ref is None:
        return [f"no reference recorded for {inp.key}"]

    if not np.array_equal(out.parsed.mat, out.rho.mat):
        found.append("state file round trip changed the matrix")
    measure_doc = json.loads(out.docs[0])["measure"]
    detect_doc = json.loads(out.docs[1])["detection"]
    if measure_doc["M"] != out.measure.value or detect_doc["verdict"] != out.verdict.verdict:
        found.append("report text disagrees with the computed result")
    in_guard = out.parsed.dims.total <= PARTITION_MAX_DIM
    if (out.partition is not None) != in_guard or (in_guard and "G" not in measure_doc):
        found.append(f"partition measure {'refused' if in_guard else 'computed'} at total dimension {out.parsed.dims.total}")

    m = out.measure
    expected = _expected_m(inp, ref)
    if expected is not None:
        _close(found, "M", m.value, expected)
    if inp.family == "random":
        _close(found, "M_A", m.side_a, ref["M_A"])
        _close(found, "M_B", m.side_b, ref["M_B"])
        if out.partition is not None:
            _close(found, "F_A", out.partition[0], ref["F_A"])
            _close(found, "F_B", out.partition[1], ref["F_B"])
    if inp.family == "random_classical":
        if not m.value <= TOL.measure:
            found.append(f"classical state has M = {m.value!r}")
        if out.partition is not None and not max(out.partition) <= TOL.measure:
            found.append(f"classical state has G = {max(out.partition)!r}")
        if out.verdict.verdict != CLASSICAL:
            if known_defect(inp, out) is None:
                found.append(f"classical state classified {out.verdict.verdict} by {out.verdict.decided_by}")
        elif not _rebuilds(out.verdict, out.parsed) <= TOL.offdiag:
            found.append("CLASSICAL basis does not rebuild the state")
    if ref is not None:
        if "oracle_F_A" in ref:
            if out.partition is None:
                found.append("partition measure missing")
            else:
                _close(found, "F_A vs oracle", out.partition[0], ref["oracle_F_A"])
                _close(found, "F_B vs oracle", out.partition[1], ref["oracle_F_B"])
        if (out.verdict.verdict, out.verdict.decided_by) != (ref["verdict"], ref["decided_by"]):
            found.append(
                f"verdict {out.verdict.verdict} by {out.verdict.decided_by}, "
                f"recorded {ref['verdict']} by {ref['decided_by']}"
            )
    return found

