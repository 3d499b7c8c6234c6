"""Array-first fixture curves against the per-slice build they replaced.

The SHE and heat curves are built in one broadcast; their atoms must be
bit-identical to the slice-by-slice ``QuantileMeasure`` build of
``curve_oracles``, and their curve and quantile-lift energies must agree
with the energies of that build's lift (the quantile multi-coupling of
the slices) to 1e-12 relative.
"""

import numpy as np
import pytest

from curve_oracles import from_measures, heat_slices, she_slices
from kernel_oracles import besov_walk, curve_energy_pairs, marginal_distances
from pathlift import (
    NormSpec,
    PathMeasure,
    build_dyadic_lift,
    curve_energy,
    heat_flow_path,
    lift_energy,
    monotone_multicoupling,
    stochastic_heat_scenario,
)

REL = 1e-12
P = 4.0
SPECS = (
    NormSpec(kind="besov", p=P, alpha=0.3),
    NormSpec(kind="holder", p=P, gamma=0.3),
    NormSpec(kind="pvar", p=P),
)


def build(fixture, depth, n):
    if fixture == "she":
        return (
            stochastic_heat_scenario(17, depth, n).measure_path,
            she_slices(17, depth, n),
        )
    return heat_flow_path(depth, n), heat_slices(depth, n)


@pytest.mark.parametrize("n", [1, 8, 1024])
@pytest.mark.parametrize("depth", [0, 3, 8])
@pytest.mark.parametrize("fixture", ["she", "heat"])
def test_array_curve_matches_the_per_slice_build(fixture, depth, n):
    mp, slices = build(fixture, depth, n)
    stacked = np.stack([m.quantiles for m in slices])
    assert mp.atoms.shape == (2 ** depth + 1, n, 1)
    assert mp.atoms.tobytes() == stacked.tobytes()
    assert from_measures(slices).atoms.tobytes() == (
        stacked.tobytes()
    )

    old_paths = monotone_multicoupling(slices)[:, :, None]
    weights = np.full(n, 1.0 / n)
    old_lift = PathMeasure(depth=depth, paths=old_paths, weights=weights)
    lift = build_dyadic_lift(mp, depth)
    assert np.array_equal(lift.paths, old_paths)

    dmat = marginal_distances(old_paths, weights, P)
    for spec in SPECS:
        expected = curve_energy_pairs(
            dmat, spec.kind, spec.p, spec.alpha, spec.gamma
        )
        assert curve_energy(mp, spec) == pytest.approx(
            expected, rel=REL, abs=1e-300
        )
        # per-path Holder and p-variation lift energies cost one seminorm
        # per path; the small atom counts cover them
        if spec.kind == "besov" or n <= 8:
            assert lift_energy(lift, spec) == pytest.approx(
                lift_energy(old_lift, spec), rel=REL, abs=1e-300
            )
    assert lift_energy(lift, SPECS[0]) == pytest.approx(
        besov_walk(old_paths, weights, 0.3, P), rel=REL, abs=1e-300
    )
