"""The blocked energy kernels against the loop forms they replaced.

Sizes run from a single cell to a depth-12 path (K = 4097), so the pair
kernels cross many row-block boundaries; the loops live in
``kernel_oracles``.
"""

import numpy as np
import pytest

from kernel_oracles import (
    CloudCostLoop,
    besov_walk,
    curve_energy_pairs,
    holder_rows,
    level_walk,
    lift_energy_loop,
    marginal_distances,
    pvar_pull,
    sobolev_rows,
)
from pathlift import (
    DyadicPath,
    NormSpec,
    PathMeasure,
    besov_seminorm,
    build_dyadic_lift,
    curve_besov_energy,
    curve_energy,
    embedding_report,
    frac_sobolev_seminorm,
    holder_seminorm,
    lift_energy,
    marginal_curve_energy,
    p_variation,
    stochastic_heat_scenario,
    tightness_diagnostic,
)
from pathlift import path_norms
from pathlift.lift_builder import _CloudCost, _energy

REL = 1e-12


def gaussian_path(seed, depth, dim=1, horizon=1.0):
    gen = np.random.default_rng(seed)
    k = 2 ** depth
    steps = gen.standard_normal((k, dim)) * np.sqrt(horizon / k)
    values = np.concatenate([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return DyadicPath(depth, values, horizon)


SIZES = [(0, 1), (1, 1), (3, 2), (6, 3), (10, 1), (10, 2), (12, 1)]


def test_largest_sizes_span_many_blocks():
    # a block holds at most _BLOCK_CELLS cells, so these grids need several
    assert (2 ** 10 + 1) ** 2 > 8 * path_norms._BLOCK_CELLS
    assert (2 ** 12 + 1) ** 2 > 64 * path_norms._BLOCK_CELLS


@pytest.mark.parametrize("depth,dim", SIZES)
def test_holder_matches_row_loop(depth, dim):
    path = gaussian_path(depth, depth, dim, horizon=2.0)
    h = path.horizon / 2 ** depth
    for gamma in (0.3, 0.5, 1.0):
        assert holder_seminorm(path, gamma) == pytest.approx(
            holder_rows(path.values, h, gamma), rel=REL
        )


def test_holder_window_matches_row_loop():
    path = gaussian_path(1, 12)
    lo, hi = 1000, 3500
    window = (lo / 2 ** 12, hi / 2 ** 12)
    assert holder_seminorm(path, 0.4, window) == pytest.approx(
        holder_rows(path.values[lo : hi + 1], 2.0 ** -12, 0.4), rel=REL
    )


@pytest.mark.parametrize("depth,dim", SIZES)
def test_sobolev_matches_row_loop(depth, dim):
    path = gaussian_path(10 + depth, depth, dim, horizon=0.5)
    h = path.horizon / 2 ** depth
    for alpha, p in ((0.3, 4.0), (0.6, 2.0), (0.45, 2.5)):
        energy = frac_sobolev_seminorm(path, alpha, p) ** p
        assert energy == pytest.approx(
            sobolev_rows(path.values, h, alpha, p), rel=REL, abs=1e-300
        )


@pytest.mark.parametrize("depth,dim", SIZES)
def test_pvar_matches_row_dp(depth, dim):
    path = gaussian_path(20 + depth, depth, dim)
    p = 1.0 / 0.3
    assert p_variation(path, p) ** p == pytest.approx(
        pvar_pull(path.values, p), rel=REL
    )


@pytest.mark.parametrize("depth,dim", SIZES)
def test_besov_matches_level_walk(depth, dim):
    path = gaussian_path(30 + depth, depth, dim)
    assert besov_seminorm(path, 0.6, 3.0) ** 3.0 == pytest.approx(
        besov_walk(path.values[None], np.ones(1), 0.6, 3.0), rel=REL
    )


def test_embedding_report_at_depth_12_matches_loops():
    path = gaussian_path(40, 12)
    alpha, p, gamma = 0.6, 2.0, 0.8
    rep = embedding_report(path, alpha, p, gamma, include_pvar=False)
    h = 2.0 ** -12
    assert rep.holder_lhs == pytest.approx(
        holder_rows(path.values, h, alpha - 1.0 / p), rel=REL
    )
    assert rep.w_energy == pytest.approx(
        sobolev_rows(path.values, h, alpha, p), rel=REL
    )
    bound_holder = (rep.holder_to_ws_bound * (gamma - alpha) * p
                    * ((gamma - alpha) * p + 1) / 2.0) ** (1.0 / p)
    assert bound_holder == pytest.approx(
        holder_rows(path.values, h, gamma), rel=REL
    )
    assert rep.ok


def random_measure(gen, depth, n, uniform, dim=1):
    paths = gen.standard_normal((n, 2 ** depth + 1, dim))
    if uniform:
        w = np.full(n, 1.0 / n)
    else:
        w = gen.uniform(0.1, 1.0, n)
        w /= w.sum()
        w[-1] = 1.0 - float(w[:-1].sum())
    return PathMeasure(depth=depth, paths=paths, weights=w)


SPECS = (
    NormSpec(kind="besov", p=2.0, alpha=0.75),
    NormSpec(kind="besov", p=4.0, alpha=0.3),
    NormSpec(kind="holder", p=2.0, gamma=0.4),
    NormSpec(kind="holder", p=3.0, gamma=0.25),
    NormSpec(kind="pvar", p=2.0),
    NormSpec(kind="pvar", p=3.5),
)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("depth,n", [(0, 1), (1, 3), (3, 5), (5, 7)])
def test_marginal_curve_energy_matches_pair_loops(depth, n, uniform):
    gen = np.random.default_rng(depth * 10 + n)
    pi = random_measure(gen, depth, n, uniform)
    for spec in SPECS:
        dmat = marginal_distances(pi.paths, pi.weights, spec.p)
        expected = curve_energy_pairs(
            dmat, spec.kind, spec.p, spec.alpha, spec.gamma
        )
        assert marginal_curve_energy(pi, spec) == pytest.approx(
            expected, rel=REL, abs=1e-300
        )


@pytest.mark.parametrize("depth,n,zeros", [(0, 1, 0), (3, 5, 1), (5, 33, 4)])
def test_cloud_cost_matches_wasserstein_p_clouds(depth, n, zeros):
    # each site sorted once, then one merge per cell, against a fresh
    # wasserstein_p_clouds(...) ** p per cell; some weights are zero
    gen = np.random.default_rng(40 + depth)
    pi = random_measure(gen, depth, n, uniform=False)
    weights = pi.weights.copy()
    weights[:zeros] = 0.0
    weights /= weights.sum()
    atoms = pi.paths.transpose(1, 0, 2)
    sites = np.arange(2 ** depth + 1)
    for spec in SPECS:
        fast = _CloudCost(atoms, weights, spec.p)
        loop = CloudCostLoop(atoms, weights, spec.p)
        assert fast(sites[:, None], sites) == pytest.approx(
            loop(sites[:, None], sites), rel=REL, abs=1e-300
        )
        assert _energy(fast, spec) == pytest.approx(
            _energy(loop, spec), rel=REL, abs=1e-300
        )


def test_curve_energy_on_an_she_scenario_matches_pair_loops():
    scn = stochastic_heat_scenario(7, 6, 128, with_lift=True)
    paths = scn.lift.paths
    for spec in SPECS:
        dmat = marginal_distances(paths, scn.lift.weights, spec.p)
        expected = curve_energy_pairs(
            dmat, spec.kind, spec.p, spec.alpha, spec.gamma
        )
        assert curve_energy(scn.measure_path, spec) == pytest.approx(
            expected, rel=REL
        )
        assert marginal_curve_energy(scn.lift, spec) == pytest.approx(
            curve_energy(scn.measure_path, spec), rel=REL
        )


LIFT_SPECS = (
    NormSpec(kind="besov", p=3.0, alpha=0.6),
    NormSpec(kind="holder", p=2.5, gamma=0.4),
    NormSpec(kind="pvar", p=3.0),
    NormSpec(kind="frac_sobolev", p=2.5, alpha=0.55),
)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("depth", [0, 1, 3, 5])
def test_lift_energy_matches_per_path_loop(depth, dim, uniform):
    gen = np.random.default_rng(100 * depth + 10 * dim + uniform)
    pi = random_measure(gen, depth, 7, uniform, dim)
    for spec in LIFT_SPECS:
        expected = lift_energy_loop(pi, spec)
        if spec.kind == "pvar":  # the DP takes no root, so bit for bit
            assert lift_energy(pi, spec) == expected
        else:
            assert lift_energy(pi, spec) == pytest.approx(expected, rel=REL)


@pytest.mark.parametrize("depth,n,dim", [(0, 1, 1), (4, 6, 2), (8, 1024, 1)])
def test_lift_besov_energy_matches_level_walk(depth, n, dim):
    gen = np.random.default_rng(depth + n)
    w = gen.uniform(0.1, 1.0, n)
    w /= w.sum()
    w[-1] = 1.0 - float(w[:-1].sum())
    pi = PathMeasure(
        depth=depth, paths=gen.standard_normal((n, 2 ** depth + 1, dim)),
        weights=w,
    )
    spec = NormSpec(kind="besov", p=4.0, alpha=0.3)
    assert lift_energy(pi, spec) == pytest.approx(
        besov_walk(pi.paths, pi.weights, 0.3, 4.0), rel=REL
    )


def test_curve_besov_energy_matches_level_walk():
    scn = stochastic_heat_scenario(8, 8, 1024)
    pi = build_dyadic_lift(scn.measure_path, "quantile", 8)
    assert curve_besov_energy(scn.measure_path, 0.3, 4.0) == pytest.approx(
        besov_walk(pi.paths, pi.weights, 0.3, 4.0), rel=REL
    )


def test_tightness_matches_level_walk():
    gen = np.random.default_rng(3)
    pis = [random_measure(gen, depth, 4, False) for depth in (1, 3, 5)]
    p, gamma = 2.5, 0.5
    report = tightness_diagnostic(pis, p, gamma)
    per_level = np.zeros(6)
    for pi in pis:
        for m, moments in enumerate(level_walk(pi.paths, pi.weights, p)):
            ratio = float(np.max(moments)) / (2.0 ** -m) ** (p * gamma)
            per_level[m] = max(per_level[m], ratio)
    np.testing.assert_allclose(report.level_ratios, per_level, rtol=REL)
    assert report.sup_ratio == pytest.approx(per_level.max(), rel=REL)
