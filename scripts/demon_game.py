#!/usr/bin/env python3
"""Play the input-side control game under each class of opposition.

Shows what polarizations the opposition can hand back for a sweep of cube
settings: single-channel play is pinned to the setting's axis pair, while
field or superposed play hits any requested target.

Example:
    python scripts/demon_game.py --targets 0.3 1.0 2.2
"""

import argparse
import math

from retrolab.core import angle_diff
from retrolab.games import (
    classical_target_demon,
    constant_channel_demon,
    play_lena_round,
    superposition_target_demon,
    verify_lena_control,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--settings", type=float, nargs="+",
                    default=[k * math.pi / 6 for k in range(6)])
    ap.add_argument("--targets", type=float, nargs="+", default=[0.3, 1.0, 2.2])
    args = ap.parse_args()

    print("single-channel play (channel -> emerging polarization):")
    for sigma in args.settings:
        taus = [play_lena_round(sigma, constant_channel_demon(c)) for c in (0, 1)]
        report = verify_lena_control(sigma, "discrete")
        print(
            f"  setting {sigma:5.3f}: ch0 -> {taus[0]:5.3f}, ch1 -> {taus[1]:5.3f}"
            f"   achievable pair {tuple(report.achievable)}"
        )

    for label, make in (
        ("classical fields", classical_target_demon),
        ("superposed photon", superposition_target_demon),
    ):
        print(f"\n{label}: worst miss across settings x targets")
        worst = 0.0
        for sigma in args.settings:
            for target in args.targets:
                tau = play_lena_round(sigma, make(target))
                worst = max(worst, abs(angle_diff(tau, target)))
        print(f"  {worst:.2e} rad -> every target reachable")


if __name__ == "__main__":
    main()
