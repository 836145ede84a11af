#!/usr/bin/env python3
"""Reversal-audit verdict table over a settings grid, one row per model.

Example:
    python scripts/symmetry_grid.py --points 5 --n 200000 --seed 7
"""

import argparse
import math

from retrolab.audit import audit_symmetry
from retrolab.hvmodels import REGISTRY
from retrolab.stats import RandomStream

VERDICT_MARK = {"symmetric": ".", "asymmetric": "X", "inconclusive": "?"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=5, help="grid points per axis over [0, pi/2]")
    ap.add_argument("--n", type=int, default=200_000, help="records per ensemble")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    grid = [k * (math.pi / 2) / (args.points - 1) for k in range(args.points)]
    stream = RandomStream(args.seed)

    print(f"audit verdicts over a {args.points}x{args.points} grid, n={args.n}")
    print("marks: . symmetric   X asymmetric   ? inconclusive\n")
    child = 0
    for model, spec in REGISTRY.items():
        if spec.sampler is None:
            continue  # no record ensembles to audit
        rows = []
        worst_tv = 0.0
        for a in grid:
            marks = ""
            for b in grid:
                rep = audit_symmetry(model, a, b, args.n, stream.child(child))
                child += 1
                marks += VERDICT_MARK[rep.verdict]
                worst_tv = max(worst_tv, rep.tv_alignment)
            rows.append(marks)
        print(f"{model:14s} worst observable tv={worst_tv:.4f}")
        for a, marks in zip(grid, rows):
            print(f"  {a:5.3f} | {marks}")
        print()


if __name__ == "__main__":
    main()
