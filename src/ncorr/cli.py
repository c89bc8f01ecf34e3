"""Command-line front end.

Exit codes: 0 on success, 2 on malformed input or domain errors, 3 when a
request exceeds a guard limit.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__
from .config import DEFAULT_TOLERANCES, Tolerances
from .detect import DetectionVerdict, classify
from .errors import CapabilityError, DomainError, MalformedInputError
from .io import Report, format_float, matrix_as_pairs, read_state_file, state_file_text, write_state_file
from .linalg import DensityMatrix
from .measures import MAX_PARTITION_DIM, MeasureReport, _check_count, partition_discrepancy, truncation_measure
from .states import StateSpec, build, random_density


def _build_parser() -> argparse.ArgumentParser:
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--eps-deg", type=float, default=None, help="eigenvalue clustering gap")
    tolerant.add_argument("--eps-tie", type=float, default=None, help="rounding tie tolerance")
    reporting = argparse.ArgumentParser(add_help=False, parents=[tolerant])
    reporting.add_argument("--json", action="store_true", help="emit a machine-readable report")

    parser = argparse.ArgumentParser(prog="ncorr", description="Nonclassical-correlation measures for bipartite states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="write a catalog state to a state file")
    p_state.add_argument("--name", required=True, help="catalog state name")
    p_state.add_argument("--param", action="append", default=[], metavar="KEY=VALUE", help="state parameter")
    p_state.add_argument("--seed", type=int, default=None, help="seed of a random state (same as --param seed=)")
    p_state.add_argument("--out", default=None, help="output path (stdout when omitted)")
    p_state.set_defaults(func=cmd_state)

    p_compute = sub.add_parser("compute", parents=[reporting], help="compute measures for a state file")
    p_compute.add_argument("--in", dest="infile", required=True, help="state file path")
    p_compute.add_argument("--which", choices=["M", "G", "all"], default="M")
    p_compute.add_argument(
        "--max-partition-dim", type=int, default=MAX_PARTITION_DIM, help="guard limit for the partition measure"
    )
    p_compute.set_defaults(func=cmd_compute)

    p_detect = sub.add_parser("detect", parents=[reporting], help="classify a state file")
    p_detect.add_argument("--in", dest="infile", required=True, help="state file path")
    p_detect.set_defaults(func=cmd_detect)

    p_sweep = sub.add_parser("sweep", parents=[tolerant], help="sweep a state family parameter, writing CSV")
    p_sweep.add_argument("--family", required=True, choices=["phi_p", "kappa"])
    p_sweep.add_argument("--sweep-param", default=None, help="parameter to sweep (defaults per family)")
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--param", action="append", default=[], metavar="KEY=VALUE", help="fixed parameter")
    p_sweep.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_bench = sub.add_parser("bench", parents=[tolerant], help="time the truncation measure on growing dimensions")
    p_bench.add_argument("--max-dim", type=int, default=16, help="largest per-side dimension (doubling from 2)")
    p_bench.add_argument("--trials", type=int, default=3)
    p_bench.add_argument("--seed", type=int, default=0, help="seed of the timed random states")
    p_bench.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def _tolerances(args) -> Tolerances:
    given = {"deg": args.eps_deg, "tie": args.eps_tie}
    return replace(DEFAULT_TOLERANCES, **{k: v for k, v in given.items() if v is not None})


def _parse_params(pairs: Sequence[str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise MalformedInputError(f"--param expects KEY=VALUE, got {pair!r}")
        if key in params:
            raise MalformedInputError(f"--param {key} is given twice")
        try:
            params[key] = float(value)
        except ValueError:
            raise MalformedInputError(f"--param {key}: {value!r} is not a number") from None
    return params


def cmd_state(args) -> int:
    params = _parse_params(args.param)
    if args.seed is not None:
        if "seed" in params:
            raise MalformedInputError("give the seed once, as --seed or as --param seed=")
        params["seed"] = args.seed
    state = build(StateSpec(args.name, params))
    if args.out:
        write_state_file(args.out, state)
    else:
        sys.stdout.write(state_file_text(state))
    return 0


def _measure_section(report: MeasureReport) -> dict:
    return {
        "M": report.value,
        "M_A": report.side_a,
        "M_B": report.side_b,
        "per_component": [
            {
                "eta": c.eta,
                "multiplicity": c.multiplicity,
                "contribution_A": c.side_a,
                "contribution_B": c.side_b,
            }
            for c in report.per_component
        ],
        "entropy_A": report.entropy_a,
        "entropy_B": report.entropy_b,
        "ppt_min_eigenvalue": report.ppt_min_eig,
    }


def _emit(args, state: DensityMatrix, tol: Tolerances, lines: list[str], kind: str, **section: dict) -> int:
    """Write the JSON report with the section under its field, or the text lines between header and tolerances."""
    if args.json:
        sys.stdout.write(Report(__version__, kind, [state.dims.dA, state.dims.dB], tol.as_dict(), **section).to_json())
        return 0
    print(f"state: {args.infile} (dims {state.dims.dA}x{state.dims.dB})")
    for line in lines:
        print(line)
    print("tolerances: " + " ".join(f"{k}={v:g}" for k, v in tol.as_dict().items()))
    return 0


def cmd_compute(args) -> int:
    tol = _tolerances(args)
    state = read_state_file(args.infile)
    section = _measure_section(truncation_measure(state, tol)) if args.which in ("M", "all") else {}
    if args.which in ("G", "all"):
        f_a = partition_discrepancy(state, "A", args.max_partition_dim)
        f_b = partition_discrepancy(state, "B", args.max_partition_dim)
        section.update(G=max(f_a, f_b), F_A=f_a, F_B=f_b)
    lines = []
    for key, value in section.items():
        if key == "per_component":
            lines += ["per-eigenspace contributions:", "  eta            mult  side A          side B"]
            lines += ["  {eta:<14.9g} {multiplicity:<5d} {contribution_A:<15.9g} {contribution_B:.9g}".format(**c) for c in value]
        else:
            lines.append(f"{key:<3} = {value:.12g}")
    return _emit(args, state, tol, lines, "measure", measure=section)


def _detection_section(verdict: DetectionVerdict) -> dict:
    section: dict = {
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
        section["weights"] = [[float(w) for w in row] for row in verdict.weights]
    return section


def cmd_detect(args) -> int:
    tol = _tolerances(args)
    state = read_state_file(args.infile)
    section = _detection_section(classify(state, tol))
    lines = [f"verdict: {section['verdict']} (decided by: {section['decided_by'] or 'none'})", "evidence:"]
    lines += ["  {test}: {outcome} (witness={witness:.6g}) {detail}".format(**e) for e in section["evidence"]]
    if "basis_A" in section:
        lines.append("witnessing product eigenbasis emitted (use --json for the matrices)")
    return _emit(args, state, tol, lines, "detect", detection=section)


_SWEEP_DEFAULT_PARAM = {"phi_p": "p", "kappa": "c_x"}


def run_sweep(
    family: str,
    start: float,
    stop: float,
    steps: int,
    sweep_param: str | None = None,
    fixed: dict[str, float] | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[tuple[float, float, float]]:
    """Rows (parameter value, measure, reduced-state entropy) over a linear grid."""
    _check_count(steps, "steps")
    if family not in _SWEEP_DEFAULT_PARAM:
        raise MalformedInputError(f"unknown sweep family {family!r}")
    param = sweep_param or _SWEEP_DEFAULT_PARAM[family]
    if param in (fixed or {}):
        raise MalformedInputError(f"--param {param} is the swept parameter")
    values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    rows = []
    for value in values:
        params = dict(fixed or {})
        params[param] = float(value)
        state = build(StateSpec(family, params))
        report = truncation_measure(state, tol)
        rows.append((float(value), report.value, report.entropy_a))
    return rows


def _write_csv(path: str | None, header: str, rows: list[tuple]) -> None:
    lines = [header]
    for row in rows:
        lines.append(",".join(format_float(v) if isinstance(v, float) else str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", newline="\n") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def cmd_sweep(args) -> int:
    tol = _tolerances(args)
    rows = run_sweep(
        args.family,
        args.start,
        args.stop,
        args.steps,
        sweep_param=args.sweep_param,
        fixed=_parse_params(args.param),
        tol=tol,
    )
    _write_csv(args.out, "param,M,S_vN_trB", rows)
    return 0


class BenchResult(NamedTuple):
    rows: list[tuple[int, int, float]]  # (per-side dim, total dim, mean seconds)
    slope: float | None


def run_bench(max_dim: int = 16, trials: int = 3, seed: int = 0, tol: Tolerances = DEFAULT_TOLERANCES) -> BenchResult:
    """Time the truncation measure on seeded random full-rank states.

    Per-side dimensions double from 2 up to max_dim; the slope is the
    least-squares gradient of log mean time against log dimension.
    """
    _check_count(max_dim, "max-dim", 2)
    _check_count(trials, "trials", 0)
    sizes = []
    n = 2
    while n <= max_dim:
        sizes.append(n)
        n *= 2
    rows = []
    if trials > 0:
        for n in sizes:
            states = [random_density((n, n), seed=[seed, n, t]) for t in range(trials)]
            truncation_measure(random_density((n, n), seed=[seed, n, trials]), tol)  # warm-up on a state never timed
            elapsed = []
            for state in states:
                t0 = time.perf_counter()
                truncation_measure(state, tol)
                elapsed.append(time.perf_counter() - t0)
            rows.append((n, n * n, sum(elapsed) / trials))
    slope = None
    if len(rows) >= 2:
        xs = np.log([r[0] for r in rows])
        ys = np.log([r[2] for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    return BenchResult(rows, slope)


def cmd_bench(args) -> int:
    result = run_bench(args.max_dim, args.trials, args.seed, _tolerances(args))
    _write_csv(args.out, "N,dim,mean_seconds", result.rows)
    if result.slope is not None:
        print(f"log-log slope of runtime vs per-side dimension: {result.slope:.3f}")
    elif args.trials == 0:
        print("no timings collected (trials = 0)")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except CapabilityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (MalformedInputError, DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
