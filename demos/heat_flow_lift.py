#!/usr/bin/env python3
"""Lift the deterministic heat flow and watch the energy identity.

The curve t -> N(0, t) is sampled on a dyadic grid, lifted to a measure
on path space by coupling consecutive marginals monotonically, and the
besov energy of the lift is compared with the energy computed from the
marginals alone. The quantile lift attains it exactly; a shuffled
coupling of the same marginals pays a strictly positive premium.
Refinement levels n = 0..6 then show the monotone approach from below,
capped by the geometric-tail bound.
"""

import numpy as np

from pathlift import (
    NormSpec,
    bound_factor,
    build_dyadic_lift,
    build_shuffled_lift,
    curve_besov_energy,
    heat_flow_path,
    lift_energy,
    marginal_wasserstein,
    refine_and_track,
    tightness_diagnostic,
)

DEPTH = 8
ATOMS = 256
ALPHA = 0.6
P = 2.0


def main():
    spec = NormSpec(kind="besov", p=P, alpha=ALPHA)
    mp = heat_flow_path(DEPTH, ATOMS)

    quantile = build_dyadic_lift(mp, DEPTH)
    shuffled = build_shuffled_lift(mp, seed=7)
    curve = curve_besov_energy(mp, ALPHA, P)

    print(f"heat flow on the level-{DEPTH} grid, {ATOMS} atoms per marginal")
    print(f"  marginal-curve besov energy   {curve:.9f}")
    print(f"  quantile lift energy          {lift_energy(quantile, spec):.9f}")
    print(f"  shuffled lift energy          {lift_energy(shuffled, spec):.9f}")
    print(f"  W_2(mu_0.25, mu_1)            "
          f"{marginal_wasserstein(quantile, 0.25, 1.0, P):.9f}")
    print(f"  |sqrt(1)-sqrt(0.25)|*sqrt(m2) "
          f"{0.5 * np.sqrt(np.mean(mp.atoms[-1] ** 2)):.9f}")

    print()
    print(f"refinement track (bound factor {bound_factor(ALPHA, P):.6f}):")
    print("   n    energy       bound     ok")
    for row in refine_and_track(lambda n: heat_flow_path(n, ATOMS), spec, 6):
        print(f"  {row.n:2d}  {row.energy:9.6f}  {row.bound:9.6f}  {row.ok}")

    family = [
        build_dyadic_lift(heat_flow_path(n, ATOMS), n)
        for n in range(6)
    ]
    report = tightness_diagnostic(family, p=P, gamma=ALPHA)
    print()
    print(f"tightness: sup_n ratio = {report.sup_ratio:.6f} "
          f"(start moment {report.start_moment:.3e})")
    ratios = "  ".join(f"{r:.4f}" for r in report.level_ratios)
    print(f"  per level m = 0..5: {ratios}")


if __name__ == "__main__":
    main()
