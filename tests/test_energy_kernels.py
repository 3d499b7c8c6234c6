"""The blocked energy kernels against the loop forms they replaced.

Sizes run from a single cell to a depth-12 path (K = 4097), so the pair
kernels cross many block boundaries; the loops, and the row-block Holder
and Sobolev kernels that the offset kernels replaced, live in
``kernel_oracles``. The last tests pin how little memory the Monte Carlo
path and the offset kernels allocate, with tracemalloc.
"""

import tracemalloc

import numpy as np
import pytest

from kernel_oracles import (
    CloudCostLoop,
    besov_levels,
    besov_walk,
    curve_energy_pairs,
    holder_max_rows,
    holder_rows,
    level_cost,
    level_walk,
    lift_energy_loop,
    marginal_distances,
    offset_blocks_broadcast,
    pow_dist_power,
    pvar_dp_all_sites,
    pvar_pull,
    sobolev_rows,
    sobolev_sum_rows,
)
from pathlift import (
    DyadicPath,
    NormSpec,
    PathMeasure,
    besov_seminorm,
    build_dyadic_lift,
    build_shuffled_lift,
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
from pathlift import path_norms, processes
from pathlift.lift_builder import _CloudCost, _CurveCost, _lift_cost
from pathlift.path_norms import _energy, _PairCost, _path_cost, _pvar_dp

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


PVAR_PS = (1.0, 1.5, 2.0, 2.5, 10 / 3, 4.0, 7.0)


def d1_walks(gen, k):
    """Walks on k sites: Gaussian, {-1, 0, 1} steps, with plateaus and
    monotone, each starting at 0."""
    steps = [
        gen.standard_normal(k - 1),
        gen.integers(-1, 2, k - 1).astype(float),
        np.where(gen.random(k - 1) < 0.4, 0.0, gen.standard_normal(k - 1)),
        np.abs(gen.standard_normal(k - 1)),
    ]
    return [np.concatenate([[0.0], np.cumsum(s)]) for s in steps]


def assert_pvar_keeps_its_bits(cost):
    assert _pvar_dp(cost).hex() == pvar_dp_all_sites(cost).hex()


@pytest.mark.parametrize("depth", range(9))
def test_turning_point_pvar_matches_all_sites_on_walks(depth):
    gen = np.random.default_rng(300 + depth)
    for values in d1_walks(gen, 2 ** depth + 1):
        for p in PVAR_PS:
            assert_pvar_keeps_its_bits(_path_cost(values[:, None], p))
        # the sign test, not a product of increments, which underflows
        # at this scale; |dX|^p stays in range at these p
        for scale, ps in ((1e-150, (1.5, 2.0)), (1e-200, (1.5,))):
            for p in ps:
                assert_pvar_keeps_its_bits(
                    _path_cost(scale * values[:, None], p))


@pytest.mark.parametrize("depth,n", [(3, 3), (6, 17), (8, 5)])
def test_turning_point_pvar_matches_all_sites_on_weighted_lifts(depth, n):
    gen = np.random.default_rng(depth + n)
    pi = random_measure(gen, depth, n, False)
    paths = pi.paths.copy()
    paths[gen.random(paths.shape) < 0.3] = 0.0  # plateaus and repeats
    pi = PathMeasure(depth=depth, paths=paths, weights=pi.weights)
    for p in PVAR_PS:
        assert_pvar_keeps_its_bits(_lift_cost(pi, p))


def test_turning_point_pvar_matches_all_sites_on_she_and_d2():
    scn = stochastic_heat_scenario(5, 6, 256, with_lift=True)
    values = gaussian_path(7, 8, dim=2).values
    for p in PVAR_PS:
        assert_pvar_keeps_its_bits(_lift_cost(scn.lift, p))
        assert_pvar_keeps_its_bits(_CurveCost(scn.measure_path.atoms, p))
        assert_pvar_keeps_its_bits(_path_cost(values, p))


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_turning_point_pvar_on_every_unit_step_path(depth, p):
    # every path of K <= 9 sites with steps in {-1, 0, 1}
    k = 2 ** depth + 1
    grids = np.meshgrid(*[[-1.0, 0.0, 1.0]] * (k - 1), indexing="ij")
    steps = np.stack([g.ravel() for g in grids], axis=1)
    for row in steps:
        values = np.concatenate([[0.0], np.cumsum(row)])[:, None]
        assert_pvar_keeps_its_bits(_path_cost(values, p))


def test_turning_points_are_at_most_sixty_percent_of_a_walk():
    values = gaussian_path(9, 10).values
    assert _path_cost(values, 2.5).pvar_sites().k <= 0.6 * values.shape[0]
    # p = 1 and d > 1 visit every site
    assert _path_cost(values, 1.0).pvar_sites().k == values.shape[0]
    values2 = gaussian_path(9, 10, dim=2).values
    assert _path_cost(values2, 2.5).pvar_sites().k == values2.shape[0]


def test_turning_points_of_a_walk_with_plateaus():
    # the ends, sign changes and the first site of each plateau entered by
    # a nonzero step: sites 0, 1 (peak), 3 (plateau 3..5), 7 (plateau 7..8)
    # and 8; the run 0.5 -> 0.7 -> 1.0 keeps neither 6 nor a sign change
    values = np.array([0.0, 2.0, 1.0, 0.5, 0.5, 0.5, 0.7, 1.0, 1.0])
    kept = _path_cost(values[:, None], 2.0).pvar_sites().atoms[:, 0, 0]
    assert kept.tolist() == values[[0, 1, 3, 7, 8]].tolist()


def test_curve_costs_keep_every_site():
    scn = stochastic_heat_scenario(5, 5, 64, with_lift=True)
    curve = _CurveCost(scn.measure_path.atoms, 2.5)
    assert curve.pvar_sites() is curve
    gen = np.random.default_rng(2)
    w = gen.uniform(0.1, 1.0, 64)
    cloud = _CloudCost(scn.lift.paths.transpose(1, 0, 2), w / w.sum(), 2.5)
    assert cloud.pvar_sites() is cloud


@pytest.mark.parametrize("depth", range(11))
@pytest.mark.parametrize("dim", [1, 2])
def test_cached_holder_maxima_match_row_blocks(depth, dim):
    path = gaussian_path(50 + depth, depth, dim)
    h = 1.0 / (path.n_points - 1)
    cost = _path_cost(path.values, 1.0)
    for alpha, p in ((0.6, 2.0), (0.3, 4.0), (0.6, 2.0)):
        gamma = 0.5 * (alpha + 1.0)
        rep = embedding_report(path, alpha, p, include_pvar=False)
        lhs, hol = holder_max_rows(cost, h, (alpha - 1.0 / p, gamma))
        dpow = (gamma - alpha) * p
        assert rep.holder_lhs == lhs
        assert rep.holder_to_ws_bound == (
            hol ** p * 2.0 * 1.0 ** (dpow + 1) / (dpow * (dpow + 1)))


@pytest.mark.parametrize("depth,dim", SIZES)
def test_besov_matches_level_walk(depth, dim):
    path = gaussian_path(30 + depth, depth, dim)
    assert besov_seminorm(path, 0.6, 3.0) ** 3.0 == pytest.approx(
        besov_walk(path.values[None], np.ones(1), 0.6, 3.0), rel=REL
    )


def pow_cells(seed, dim):
    """Pair differences over 60 orders of magnitude, with zero, 1e-80 and
    1e80 cells (whose p-th powers underflow or overflow)."""
    gen = np.random.default_rng(seed)
    scale = np.exp(gen.uniform(-30.0, 30.0, (40, 9, 1)))
    diff = gen.standard_normal((40, 9, dim)) * scale
    diff[0] = 0.0
    diff[1] = 1e-80
    diff[2] = 1e80
    diff[3, :, 0] = -1e-80
    return diff


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [4.0, 6.0, 8.0])
def test_pow_dist_squares_even_powers(p, dim):
    diff = pow_cells(int(p) + 10 * dim, dim)
    with np.errstate(over="ignore", under="ignore"):
        got = path_norms._pow_dist(diff.copy(), p)
        want = pow_dist_power(diff.copy(), p)
    # zeros, underflows to zero and overflows to inf agree exactly
    exact = (want == 0.0) | np.isinf(want)
    assert exact.any() and not exact.all()
    assert np.array_equal(got[exact], want[exact])
    np.testing.assert_allclose(got[~exact], want[~exact], rtol=2e-15, atol=0)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 3.0, 1 / 0.3])
def test_pow_dist_keeps_np_power_for_other_p(p, dim):
    diff = pow_cells(dim, dim)
    with np.errstate(over="ignore", under="ignore"):
        got = path_norms._pow_dist(diff.copy(), p)
        want = pow_dist_power(diff.copy(), p)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("depth,dim", SIZES)
def test_one_atom_besov_energies_match_the_walks(depth, dim):
    path = gaussian_path(50 + depth, depth, dim)
    one = np.ones(1)
    pi = PathMeasure(depth=depth, paths=path.values[None], weights=one)
    for alpha, p in ((0.3, 4.0), (0.6, 2.0), (0.45, 2.5)):
        want = besov_walk(path.values[None], one, alpha, p)
        cost = path_norms._path_cost(path.values, p)
        assert path_norms._besov_sums(cost, alpha, p)[0] == pytest.approx(
            want, rel=REL
        )
        spec = NormSpec(kind="besov", p=p, alpha=alpha)
        assert lift_energy(pi, spec) == pytest.approx(want, rel=REL)
    p, gamma = 2.5, 0.5
    ratios = [
        float(np.max(moments)) / (2.0 ** -m) ** (p * gamma)
        for m, moments in enumerate(level_walk(pi.paths, one, p))
    ]
    report = tightness_diagnostic([pi], p, gamma)
    np.testing.assert_allclose(report.level_ratios, ratios, rtol=REL)


def test_embedding_report_at_depth_12_matches_loops():
    path = gaussian_path(40, 12)
    alpha, p, gamma = 0.6, 2.0, 0.8
    rep = embedding_report(path, alpha, p, include_pvar=False)
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


# one site to 2^10 + 1; for even K the middle offset row holds its pairs twice
OFFSET_SIZES = [1, 2, 3, 4, 5, 33, 1024, 1025]


def offset_costs(k, dim, p, seed):
    """One pair cost on k sites of each kind the offset kernels read.

    A path; a lift stored site by site and path by path, some of its
    weights zero (1000 paths up to 33 sites, so that its columns come in
    several runs, else 3); in d = 1 the W_p^p cost of a curve of 33 sorted
    atoms (whose rows go in runs of 992 sites) and, up to 5 sites, the
    exact W_p^p cost of weighted clouds with zero weights.
    """
    gen = np.random.default_rng(seed)
    lift = np.cumsum(gen.standard_normal((k, 1000 if k <= 33 else 3, dim)),
                     axis=0)
    w = gen.uniform(0.1, 1.0, lift.shape[1])
    w[:2] = 0.0
    w /= w.sum()
    costs = {
        "path": path_norms._path_cost(lift[:, 0], p),
        "by_site": _PairCost(lift, w, p),
        "by_path": _PairCost(np.ascontiguousarray(lift.transpose(1, 0, 2))
                             .transpose(1, 0, 2), w, p),
    }
    if dim == 1:
        atoms = np.cumsum(gen.standard_normal((k, 33, 1)), axis=0)
        costs["curve"] = _CurveCost(np.sort(atoms, axis=1), p)
        if k <= 5:
            wc = gen.uniform(0.1, 1.0, 33)
            wc[:4] = 0.0
            costs["cloud"] = _CloudCost(atoms, wc / wc.sum(), p)
    return costs


@pytest.mark.parametrize("k", OFFSET_SIZES)
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.5, 4.0])
def test_offset_kernels_match_row_blocks(k, dim, p):
    h, expos = 1.0 / max(1, k - 1), (0.3, 0.8, 1.0)
    for name, cost in offset_costs(k, dim, p, 10 * k + dim).items():
        got = path_norms._holder_max(
            path_norms._offset_reduce(cost, np.maximum), cost.weights, h, expos)
        want = holder_max_rows(cost, h, expos)
        if name == "curve":
            # each W_p^p cell is a BLAS product over the atoms, and its last
            # bit depends on where the row falls in the call
            assert got == pytest.approx(want, rel=2e-15), name
            continue
        assert got == want, name  # max commutes with the gap's rounding
        if name != "cloud" and k > 1:
            assert path_norms._sobolev_sum(cost, h, 0.45) == pytest.approx(
                sobolev_sum_rows(cost, h, 0.45), rel=1e-14, abs=1e-300
            ), name


def assert_same_offset_blocks(cost):
    got = [(n, o, c.shape, c.tobytes()) for n, o, c in cost.offset_blocks()]
    want = [(n, o, c.shape, c.tobytes())
            for n, o, c in offset_blocks_broadcast(cost)]
    assert got == want


# K // 2 of 0 and 1, odd and even block heights and a short last block
@pytest.mark.parametrize("k", [2, 3, 5, 9, 33, 1025])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 2.5, 4.0])
def test_offset_blocks_match_broadcast_subtraction_on_paths(k, dim, p):
    values = np.cumsum(np.random.default_rng(k + dim).standard_normal(
        (k, dim)), axis=0)
    cost = path_norms._path_cost(values, p)
    assert_same_offset_blocks(cost)
    assert_same_offset_blocks(cost.midpoints())


# 127 paths of 257 sites fill a group, so 128 and 300 leave a ragged one
@pytest.mark.parametrize("n", [1, 3, 127, 128, 300])
@pytest.mark.parametrize("p", [1.0, 4.0])
def test_offset_blocks_match_broadcast_subtraction_on_lifts(n, p):
    lift = random_measure(np.random.default_rng(n), 8, n, False)
    cost = _lift_cost(lift, p)
    assert_same_offset_blocks(cost)
    assert_same_offset_blocks(cost.midpoints())


def test_offset_blocks_match_broadcast_subtraction_on_an_she_lift():
    lift = stochastic_heat_scenario(5, 8, 1024, with_lift=True).lift
    assert_same_offset_blocks(_lift_cost(lift, 4.0))


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
        assert _energy(fast, spec, 1.0) == pytest.approx(
            _energy(loop, spec, 1.0), rel=REL, abs=1e-300
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
    pi = build_dyadic_lift(scn.measure_path, 8)
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


# (atoms N, dim d, depth): levels of 16 blocks of 16 rows; of up to 16
# blocks of 32 rows (46 rows would fit, a power of two is kept); no split
BLOCK_SHAPES = [(1000, 2, 8), (700, 1, 9), (3, 1, 10)]


def level_costs(n, dim, depth, seed):
    """Pair costs whose level blocks the besov sum joins in each way.

    A lift stored site by site (as a quantile lift views its curve), the
    same lift stored path by path (as a sampled lift is), and in d = 1
    the one-column W_p^p cost of a curve.
    """
    gen = np.random.default_rng(seed)
    atoms = gen.standard_normal((2 ** depth + 1, n, dim))
    weights = gen.uniform(0.1, 1.0, n)
    weights /= weights.sum()
    by_site = PathMeasure(depth, atoms.transpose(1, 0, 2), weights)
    by_path = PathMeasure(depth, np.ascontiguousarray(by_site.paths), weights)
    costs = {"by_site": by_site, "by_path": by_path}
    if dim == 1:
        costs["curve"] = np.sort(atoms, axis=1)
    return costs


def as_cost(x, p):
    return _lift_cost(x, p) if isinstance(x, PathMeasure) else _CurveCost(x, p)


def block_rows(cost):
    return max(1, path_norms._BLOCK_CELLS // cost.atoms[0].size)


def test_block_shapes_split_some_levels_into_many_blocks():
    blocks = []
    for n, dim, depth in BLOCK_SHAPES:
        cost = as_cost(level_costs(n, dim, depth, 0)["by_site"], 2.0)
        blocks += [len(list(path_norms._level_blocks(cost, m)))
                   for m in range(depth + 1)]
    assert {1, 2, 16} <= set(blocks)


@pytest.mark.parametrize("n,dim,depth", BLOCK_SHAPES)
def test_level_blocks_are_the_whole_level_in_order(n, dim, depth):
    for name, x in level_costs(n, dim, depth, n + depth).items():
        cost = as_cost(x, 3.0)
        for m in range(depth + 1):
            blocks = list(path_norms._level_blocks(cost, m))
            # equal power-of-two blocks, at most _BLOCK_CELLS cells each
            assert len({len(c) for c in blocks}) == 1, name
            assert len(blocks[0]) & (len(blocks[0]) - 1) == 0, name
            assert len(blocks[0]) <= block_rows(cost), name
            assert np.array_equal(np.concatenate(blocks), level_cost(cost, m))


@pytest.mark.parametrize("n,dim,depth", BLOCK_SHAPES)
@pytest.mark.parametrize("p", [3.0, 4.0])
def test_blocked_besov_energy_matches_whole_levels(n, dim, depth, p):
    # each level adds up bit for bit as the whole-level sum did, whether its
    # rows are folded in order (by_site) or its blocks joined (by_path, curve)
    for name, x in level_costs(n, dim, depth, 7 * n + depth).items():
        cost = as_cost(x, p)
        got = float(cost.weights @ path_norms._besov_sums(cost, 0.3, p))
        assert got == besov_levels(cost, 0.3, p), name
        if name != "curve":
            assert got == pytest.approx(
                besov_walk(x.paths, x.weights, 0.3, p), rel=REL
            )


@pytest.mark.parametrize("n,dim,depth", BLOCK_SHAPES)
def test_blocked_tightness_matches_whole_levels(n, dim, depth):
    p, gamma = 2.5, 0.5
    for name, pi in level_costs(n, dim, depth, n).items():
        if name == "curve":
            continue
        cost = _lift_cost(pi, p)
        whole = [float(np.max(level_cost(cost, m) @ pi.weights))
                 / (2.0 ** -m) ** (p * gamma) for m in range(depth + 1)]
        walk = [float(np.max(moments)) / (2.0 ** -m) ** (p * gamma)
                for m, moments in enumerate(level_walk(pi.paths, pi.weights, p))]
        ratios = tightness_diagnostic([pi], p, gamma).level_ratios
        assert list(ratios) == whole
        np.testing.assert_allclose(ratios, walk, rtol=REL)


def test_she_mc_energies_match_whole_levels_exactly():
    # the she-mc shape: 257 slices of 1024 atoms, p = 4
    scn = stochastic_heat_scenario(21, 8, 1024, with_lift=True)
    curve = _CurveCost(scn.measure_path.atoms, 4.0)
    lift = _lift_cost(scn.lift, 4.0)
    spec = NormSpec(kind="besov", p=4.0, alpha=0.3)
    assert curve_besov_energy(scn.measure_path, 0.3, 4.0) == besov_levels(
        curve, 0.3, 4.0)
    assert lift_energy(scn.lift, spec) == besov_levels(lift, 0.3, 4.0)


def peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_she_scenario_allocates_its_atoms_about_once():
    # W + sqrt(t) c as two full-size arrays peaked at 2.1x the atoms
    scn = stochastic_heat_scenario(5, 8, 1024, with_lift=True)
    nbytes = scn.measure_path.atoms.nbytes
    peak = peak_bytes(stochastic_heat_scenario, 5, 8, 1024, True)
    assert peak < 1.5 * nbytes


def test_a_cold_she_scenario_allocates_its_atoms_about_twice():
    # the first call of a size also builds the cached heat curve
    processes._heat_curve.cache_clear()
    peak = peak_bytes(stochastic_heat_scenario, 5, 8, 1024, True)
    assert peak < 2.5 * (2 ** 8 + 1) * 1024 * 8


def test_besov_energies_allocate_level_blocks_not_levels():
    # a whole depth-8 level of 1024 atoms peaked at 1.0x the atoms; the
    # shuffled lift stores its paths one by one
    scn = stochastic_heat_scenario(5, 8, 1024, with_lift=True)
    nbytes = scn.measure_path.atoms.nbytes
    spec = NormSpec(kind="besov", p=4.0, alpha=0.3)
    assert peak_bytes(curve_besov_energy, scn.measure_path, 0.3, 4.0) < (
        0.5 * nbytes)
    assert peak_bytes(lift_energy, scn.lift, spec) < 0.5 * nbytes
    shuffled = build_shuffled_lift(scn.measure_path, 6)
    assert peak_bytes(lift_energy, shuffled, spec) < 0.5 * nbytes


def test_offset_kernels_allocate_blocks_and_one_reduced_copy():
    # a Holder maximum weighted a second full row block for its first
    # exponent: embedding_report on this path peaked at 1.64 MB, 4.2x one
    # block plus the atoms; the offset kernels keep one value per column
    # and offset besides their blocks
    block = 8 * path_norms._BLOCK_CELLS
    # every block of a call goes into one buffer: a fresh block a step kept
    # two alive (2.6 blocks on this path), which glibc gave back to the
    # system and faulted in again on every call
    path = gaussian_path(60, 10)
    for args in ((0.6, 2.0), (0.3, 4.0)):
        assert peak_bytes(embedding_report, path, *args, False) < (
            path.values.nbytes + 2 * block)
    path = gaussian_path(60, 14)
    assert peak_bytes(embedding_report, path, 0.6, 2.0, False) < 3 * (
        path.values.nbytes + block)
    scn = stochastic_heat_scenario(5, 8, 1024, with_lift=True)
    nbytes = scn.measure_path.atoms.nbytes
    for spec in (NormSpec(kind="holder", p=4.0, gamma=0.3),
                 NormSpec(kind="frac_sobolev", p=4.0, alpha=0.3)):
        assert peak_bytes(lift_energy, scn.lift, spec) < 3 * (nbytes + block)
