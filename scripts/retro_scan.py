#!/usr/bin/env python3
"""Scan the counterfactual right-setting shift and report beable sensitivity.

For each model, sweeps sigma_r_alt = sigma_r + shift and prints the total
variation between the two pre-measurement beable distributions.  The photon
model keys its return-leg beable by direction, so a quarter-turn shift
relabels the same pair and registers nothing; the bit models track match
statistics instead and stay sensitive there.  Collapse, no-collapse and the
classical field never move at any shift.

Example:
    python scripts/retro_scan.py --sigma-l 0.0 --sigma-r 0.2 --steps 12
"""

import argparse
import math

from retrolab.hvmodels import REGISTRY, settings_dependence


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma-l", type=float, default=0.0)
    ap.add_argument("--sigma-r", type=float, default=0.2)
    ap.add_argument("--steps", type=int, default=12, help="shift steps across (0, pi)")
    args = ap.parse_args()
    if args.steps < 2:
        ap.error(f"--steps must be at least 2, got {args.steps}")
    for flag, value in (("--sigma-l", args.sigma_l), ("--sigma-r", args.sigma_r)):
        if not math.isfinite(value):
            ap.error(f"{flag} must be finite, got {value}")

    shifts = [k * math.pi / args.steps for k in range(1, args.steps)]
    header = "shift/pi " + " ".join(f"{m:>13s}" for m in REGISTRY)
    print(f"beable sensitivity at sigma_l={args.sigma_l}, sigma_r={args.sigma_r}")
    print(header)
    for shift in shifts:
        cells = []
        for model in REGISTRY:
            rep = settings_dependence(
                model, args.sigma_l, args.sigma_r, args.sigma_r + shift
            )
            flag = "*" if rep.retro else " "
            cells.append(f"{rep.tv_distance:12.4f}{flag}")
        print(f"{shift / math.pi:8.3f} " + " ".join(cells))
    print("\n* = settings-dependent at this shift")


if __name__ == "__main__":
    main()
