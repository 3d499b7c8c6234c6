#!/usr/bin/env python3
"""Randomly forced heat flow: quantile lift vs independent particles.

Each scenario draws a common Brownian path W and carries the marginal
family N(W_t, t). Three lifts of the same family are compared in besov
energy (p = 4, alpha = 0.3): the quantile lift (attains the marginal
curve energy, samplewise), a shuffled coupling, and the independent
construction W + B whose energy has the closed form printed alongside.
The lag regression at the end recovers the 1/2-Holder exponent of the
marginal flow in averaged W_4.
"""

import argparse

import numpy as np

from pathlift import (
    BrownianPath,
    McConfig,
    NormSpec,
    QuantileMeasure,
    build_shuffled_lift,
    compare_lifts,
    curve_besov_energy,
    expected_lift_energy,
    expected_wp,
    gaussian_quantile,
    independent_particle_paths,
    lift_energy,
    midpoint_grid,
    stochastic_heat_scenario,
)
from pathlift import _rng

ALPHA = 0.3
P = 4.0
DEPTH = 8
ATOMS = 256


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-mc", type=int, default=200)
    args = ap.parse_args(argv)

    spec = NormSpec(kind="besov", p=P, alpha=ALPHA)
    cfg = McConfig(n_mc=args.n_mc, base_seed=args.seed)

    scn = stochastic_heat_scenario(args.seed, DEPTH, ATOMS, with_lift=True)
    print(f"one scenario (seed {args.seed}):")
    print(f"  curve energy     {curve_besov_energy(scn.measure_path, ALPHA, P):.9f}")
    print(f"  quantile lift    {lift_energy(scn.lift, spec):.9f}")

    def quantile_sampler(seed):
        return stochastic_heat_scenario(seed, DEPTH, ATOMS, with_lift=True).lift

    def shuffled_sampler(seed):
        mp = stochastic_heat_scenario(seed, DEPTH, ATOMS).measure_path
        return build_shuffled_lift(mp, seed=_rng.derive_seed(seed, 9))

    def marginal_sampler(seed):
        return stochastic_heat_scenario(seed, DEPTH, ATOMS).measure_path

    comp = compare_lifts(
        quantile_sampler, shuffled_sampler, marginal_sampler, spec, cfg
    )
    print()
    print(f"quantile  {comp.energy_a.mean:9.4f} +- {comp.energy_a.std_error:.4f}")
    print(f"shuffled  {comp.energy_b.mean:9.4f} +- {comp.energy_b.std_error:.4f}")
    winner = "quantile" if comp.smaller == "a" else "shuffled"
    print(f"marginal  {comp.marginal_energy.mean:9.4f} "
          f"(lower bound holds: {comp.lower_bound_ok}, "
          f"attained by {winner}: {comp.attains_marginal})")

    def independent_sampler(seed):
        s = stochastic_heat_scenario(seed, DEPTH, ATOMS)
        return independent_particle_paths(s, _rng.derive_seed(seed, 1), count=8)

    ind = expected_lift_energy(independent_sampler, spec, cfg)
    closed = sum(
        2.0 ** (m * (ALPHA * P - 1.0)) * 2 ** m * 3.0 * (2.0 * 2.0 ** -m) ** 2
        for m in range(DEPTH + 1)
    )
    print(f"indep     {ind.mean:9.4f} +- {ind.std_error:.4f} "
          f"(closed form {closed:.4f})")

    cgrid = gaussian_quantile(midpoint_grid(ATOMS))
    s = 0.25

    def pair_sampler(h):
        i0 = int(round(s * 2 ** DEPTH))
        i1 = int(round((s + h) * 2 ** DEPTH))

        def sampler(seed):
            wv = BrownianPath(seed=seed, depth=DEPTH).values[:, 0]
            return (
                QuantileMeasure(wv[i0] + np.sqrt(s) * cgrid),
                QuantileMeasure(wv[i1] + np.sqrt(s + h) * cgrid),
            )

        return sampler

    lags = [2.0 ** -k for k in range(2, DEPTH + 1)]
    dists = [expected_wp(pair_sampler(h), P, cfg).mean for h in lags]
    slope = float(np.polyfit(np.log(lags), np.log(dists), 1)[0])
    print()
    print("lag regression of averaged W_4 at s = 0.25:")
    for h, d in zip(lags, dists):
        print(f"  h = 2^{int(np.log2(h)):3d}   {d:.6f}")
    print(f"  slope {slope:.4f} (1/2-Holder regime)")


if __name__ == "__main__":
    main()
