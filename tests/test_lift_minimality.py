"""The quantile lift against every lift of a small curve (the LP oracle).

The paper minimizes the energy over every process whose time marginals
are the curve's. At depth <= 2 and N <= 5 atoms a slice that minimum is
the linear program of ``lift_lp_oracle``. For the besov energy, a sum of
pairwise costs, the quantile lift attains it and it equals the curve
energy. For the Holder and p-variation energies, suprema, comonotone
optimality is no theorem here: the tests hold the minimum between the
curve energy and the constructed lifts, and do not assert the quantile
lift attains it.
"""

import functools
import itertools

import numpy as np
import pytest

from lift_lp_oracle import min_lift_energy, path_columns
from pathlift import (
    MeasurePathSample,
    NormSpec,
    build_dyadic_lift,
    build_shuffled_lift,
    curve_energy,
    lift_energy,
    marginal_curve_energy,
)

# (seed, depth, atoms a slice, whether slices hold tied atoms)
CASES = [(seed, *case) for seed, case in enumerate(
    itertools.product((1, 2), (2, 3, 4, 5), (False, True)))]
SPECS = {
    f"{kind}-p{p:g}": NormSpec(kind=kind, p=p, alpha=0.6, gamma=0.4)
    for kind in ("besov", "holder", "pvar") for p in (2.0, 4.0)
}
# the LP is solved to HiGHS' default tolerances
REL = 1e-7


def curve(seed, depth, n, ties):
    """Sorted standard normal slices; with ties, rounded to halves."""
    atoms = np.random.default_rng(seed).standard_normal((2 ** depth + 1, n))
    if ties:
        atoms = np.round(2.0 * atoms) / 2.0
    return MeasurePathSample(np.sort(atoms, axis=1))


def case_id(case):
    seed, depth, n, ties = case
    return f"s{seed}-d{depth}-n{n}" + ("-ties" if ties else "")


@functools.cache
def lp_min(case, name):
    return min_lift_energy(curve(*case).atoms[:, :, 0], SPECS[name])[0]


def leq(a, b):
    return a <= b + REL * max(abs(a), abs(b))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_besov_quantile_lift_attains_the_lp_minimum(case):
    mp = curve(*case)
    for name in ("besov-p2", "besov-p4"):
        spec, least = SPECS[name], lp_min(case, name)
        quantile = lift_energy(build_dyadic_lift(mp, mp.level), spec)
        assert quantile == pytest.approx(least, rel=REL, abs=1e-12)
        assert curve_energy(mp, spec) == pytest.approx(least, rel=REL,
                                                       abs=1e-12)


@pytest.mark.parametrize("name", SPECS)
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_the_lp_minimum_sits_between_curve_and_lifts(case, name):
    spec, mp, least = SPECS[name], curve(*case), lp_min(case, name)
    quantile = build_dyadic_lift(mp, mp.level)
    shuffled = build_shuffled_lift(mp, case[0])
    assert leq(marginal_curve_energy(quantile, spec), least)
    assert leq(least, min(lift_energy(quantile, spec),
                          lift_energy(shuffled, spec)))


@pytest.mark.parametrize("case", [CASES[5], CASES[15]], ids=case_id)
def test_the_lp_optimum_is_a_lift_of_the_curve(case):
    mp = curve(*case)
    atoms = mp.atoms[:, :, 0]
    _, pi = min_lift_energy(atoms, SPECS["holder-p2"])
    index, _ = path_columns(atoms)
    n = atoms.shape[1]
    assert np.all(pi >= 0)
    for k in range(atoms.shape[0]):
        mass = np.bincount(index[:, k], weights=pi, minlength=n)
        np.testing.assert_allclose(mass, np.full(n, 1.0 / n), atol=1e-9)


def test_the_holder_quantile_lift_can_exceed_the_lp_minimum():
    # one of the seeded cases where a non-comonotone lift is cheaper in
    # the Holder energy: quantile 7.359994, LP minimum 6.508555
    case = CASES[12]
    mp = curve(*case)
    quantile = lift_energy(build_dyadic_lift(mp, mp.level), SPECS["holder-p2"])
    assert lp_min(case, "holder-p2") < 0.9 * quantile
