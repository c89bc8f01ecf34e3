#!/usr/bin/env python3
"""Print the regression table for the fixed state catalog.

For every named state: M and its two sides, the partition measure G where
the combinatorial search is affordable, and the detection verdict. G on the
4x4 states searches 2,627,625 groupings a side and takes several seconds in
all; pass --full to include them.
"""

import argparse

from ncorr import CapabilityError, StateSpec, build, classify, partition_measure, truncation_measure

FIXED = ("varsigma", "sigma", "sigma_prime", "sigma_dprime", "tau", "zeta", "zeta_prime", "xi", "xi_prime")
CATALOG = [StateSpec(name) for name in FIXED] + [
    StateSpec("bell", {"N": 2}),
    StateSpec("bell", {"N": 4}),
    StateSpec("phi_p", {"p": 0.25}),
]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--full", action="store_true", help="also compute G on the 4x4 states (several seconds)")
    args = ap.parse_args()

    g_budget = 16 if args.full else 9
    header = f"{'state':<14} {'dims':<6} {'M':>10} {'M_A':>10} {'M_B':>10} {'G':>10}  verdict (decided by)"
    print(header)
    print("-" * len(header))
    for spec in CATALOG:
        state = build(spec)
        params = ", ".join(map(str, spec.params.values()))
        label = f"{spec.name}({params})" if params else spec.name
        report = truncation_measure(state)
        dims = f"{state.dims.dA}x{state.dims.dB}"
        try:
            g_text = f"{partition_measure(state, g_budget):10.6f}"
        except CapabilityError:
            g_text = f"{'-':>10}"
        verdict = classify(state)
        decided = verdict.decided_by or "none"
        print(
            f"{label:<14} {dims:<6} {report.value:10.6f} {report.side_a:10.6f} "
            f"{report.side_b:10.6f} {g_text}  {verdict.verdict} ({decided})"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
