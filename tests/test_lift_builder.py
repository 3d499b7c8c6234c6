"""Lifting measure curves to path measures, energies, refinement bound."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pathlift import (
    MeasurePathSample,
    NormSpec,
    ParticleEnsemble,
    PathMeasure,
    QuantileMeasure,
    besov_seminorm,
    bound_factor,
    build_dyadic_lift,
    build_shuffled_lift,
    lift_energy,
    marginal,
    marginal_cloud,
    marginal_curve_energy,
    marginal_wasserstein,
    midpoint_grid,
    pairwise_optimality_gap,
    pm_from_csv,
    pm_from_json,
    pm_to_csv,
    pm_to_json,
    refine_and_track,
    tightness_diagnostic,
    wasserstein_p,
)

BASE = ndtri(midpoint_grid(16))


def heat_sample(n, scale=1.0):
    """mu_t = N(0, scale^2 t) on the level-n grid, 16 atoms."""
    times = np.linspace(0.0, 1.0, 2 ** n + 1)
    return MeasurePathSample.from_measures(
        [QuantileMeasure(scale * np.sqrt(t) * BASE) for t in times]
    )


def random_path_measure(gen):
    depth = int(gen.integers(1, 4))
    n = int(gen.integers(2, 8))
    paths = gen.standard_normal((n, 2 ** depth + 1, 1))
    if gen.uniform() < 0.5:
        w = np.full(n, 1.0 / n)
    else:
        w = gen.uniform(0.1, 1.0, n)
        w /= w.sum()
        w[-1] = 1.0 - float(w[:-1].sum())
    return PathMeasure(depth=depth, paths=paths, weights=w)


# ---------------------------------------------------------------------------
# containers


class TestPathMeasure:
    def test_grid_count_must_match_depth(self):
        with pytest.raises(ValueError, match="grid points"):
            PathMeasure(depth=2, paths=np.zeros((3, 4, 1)),
                        weights=np.full(3, 1 / 3))

    def test_weights_validation(self):
        paths = np.zeros((2, 3, 1))
        with pytest.raises(ValueError, match="sum to 1"):
            PathMeasure(depth=1, paths=paths, weights=np.array([0.7, 0.7]))
        with pytest.raises(ValueError, match="nonnegative"):
            PathMeasure(depth=1, paths=paths, weights=np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="one per path"):
            PathMeasure(depth=1, paths=paths, weights=np.full(3, 1 / 3))

    def test_2d_paths_get_a_dim_axis(self):
        pi = PathMeasure(depth=1, paths=np.zeros((2, 3)),
                         weights=np.array([0.5, 0.5]))
        assert pi.paths.shape == (2, 3, 1)
        assert pi.dim == 1
        assert pi.n_paths == 2

    def test_from_paths_requires_shared_shape(self):
        from pathlift import DyadicPath

        a = DyadicPath(1, np.zeros(3))
        b = DyadicPath(2, np.zeros(5))
        with pytest.raises(ValueError):
            PathMeasure.from_paths([a, b])
        pi = PathMeasure.from_paths([a, a, a])
        assert pi.uniform_weights()
        assert np.array_equal(pi.path(1).values, a.values)

    def test_from_paths_rejects_other_horizons(self):
        from pathlift import DyadicPath

        stretched = DyadicPath(1, np.zeros(3), horizon=2.0)
        with pytest.raises(ValueError, match="horizon"):
            PathMeasure.from_paths([stretched])


class TestMeasurePathSample:
    def test_point_count_must_be_dyadic(self):
        qs = [QuantileMeasure(np.zeros(4))] * 4
        with pytest.raises(ValueError, match="2\\^n"):
            MeasurePathSample.from_measures(qs)

    def test_times_must_be_the_dyadic_grid(self):
        qs = [QuantileMeasure(np.zeros(4))] * 3
        with pytest.raises(ValueError, match="grid"):
            MeasurePathSample(np.array([0.0, 0.4, 1.0]), qs)
        # a skew of 5e-6 is far beyond the 1e-12 grid tolerance
        skewed = np.linspace(0.0, 1.0, 17)
        skewed[-1] = 1.000005
        with pytest.raises(ValueError, match="grid"):
            MeasurePathSample(skewed, [QuantileMeasure(np.zeros(4))] * 17)

    def test_kinds_must_be_uniform(self):
        e = ParticleEnsemble(labels=np.zeros(4), positions=np.zeros(4))
        qs = [QuantileMeasure(np.zeros(4)), e, QuantileMeasure(np.zeros(4))]
        with pytest.raises(ValueError, match="uniformly"):
            MeasurePathSample.from_measures(qs)

    def test_level_and_kind_flags(self):
        mp = heat_sample(3)
        assert mp.level == 3
        assert mp.is_quantile


# ---------------------------------------------------------------------------
# lift construction


def test_quantile_lift_reproduces_marginals_exactly():
    mp = heat_sample(2)
    pi = build_dyadic_lift(mp, "quantile", 2)
    assert pi.paths.shape == (16, 5, 1)
    for k, t in enumerate(mp.times):
        assert np.array_equal(marginal(pi, t).quantiles, mp.measures[k].quantiles)


def test_quantile_lift_pairwise_couplings_are_optimal():
    pi = build_dyadic_lift(heat_sample(3), "quantile", 3)
    for s, t in ((0.0, 1.0), (0.25, 0.375), (0.5, 0.75)):
        gap = pairwise_optimality_gap(pi, s, t, 2.0)
        assert abs(gap.gap) <= 1e-12
        assert gap.coupling_cost == pytest.approx(gap.wp_cost, abs=1e-12)


def test_lift_level_must_match_sample():
    with pytest.raises(ValueError, match="time points"):
        build_dyadic_lift(heat_sample(2), "quantile", 3)


def test_coupler_kind_mismatch():
    mp = heat_sample(1)
    with pytest.raises(ValueError):
        build_dyadic_lift(mp, "nu_based", 1)
    with pytest.raises(ValueError, match="unknown coupler"):
        build_dyadic_lift(mp, "sinkhorn", 1)


def test_nu_based_lift_stacks_positions():
    gen = np.random.default_rng(0)
    labels = gen.standard_normal((8, 2))
    times = np.linspace(0.0, 1.0, 3)
    ensembles = [
        ParticleEnsemble(labels=labels, positions=(1.0 + t) * labels)
        for t in times
    ]
    mp = MeasurePathSample.from_measures(ensembles)
    assert not mp.is_quantile
    pi = build_dyadic_lift(mp, "nu_based", 1)
    assert pi.paths.shape == (8, 3, 2)
    for k in range(3):
        assert np.array_equal(pi.paths[:, k, :], ensembles[k].positions)


def test_nu_based_lift_needs_shared_labels():
    gen = np.random.default_rng(1)
    mk = lambda: ParticleEnsemble(
        labels=gen.standard_normal((4, 1)), positions=np.zeros((4, 1))
    )
    mp = MeasurePathSample.from_measures([mk(), mk(), mk()])
    with pytest.raises(ValueError, match="labels"):
        build_dyadic_lift(mp, "nu_based", 1)


def test_shuffled_lift_keeps_marginals_and_loses_optimality():
    mp = heat_sample(3)
    quant = build_dyadic_lift(mp, "quantile", 3)
    shuf = build_shuffled_lift(mp, seed=7)
    for k, t in enumerate(mp.times):
        assert np.array_equal(
            np.sort(shuf.paths[:, k, 0]), mp.measures[k].quantiles
        )
    gap = pairwise_optimality_gap(shuf, 0.5, 1.0, 2.0)
    assert gap.gap > 1e-6
    spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    assert lift_energy(shuf, spec) > lift_energy(quant, spec) + 1e-6


def test_shuffled_lift_is_seed_deterministic():
    mp = heat_sample(2)
    a = build_shuffled_lift(mp, seed=3)
    b = build_shuffled_lift(mp, seed=3)
    c = build_shuffled_lift(mp, seed=4)
    assert np.array_equal(a.paths, b.paths)
    assert not np.array_equal(a.paths, c.paths)


# ---------------------------------------------------------------------------
# energies


def test_besov_energy_fast_path_matches_per_path_loop():
    gen = np.random.default_rng(5)
    pi = random_path_measure(gen)
    spec = NormSpec(kind="besov", p=2.0, alpha=0.75)
    slow = sum(
        pi.weights[j] * besov_seminorm(pi.path(j), 0.75, 2.0) ** 2
        for j in range(pi.n_paths)
    )
    assert lift_energy(pi, spec) == pytest.approx(slow, rel=1e-12)


def test_single_path_energy_is_the_seminorm_power():
    gen = np.random.default_rng(6)
    path = gen.standard_normal((1, 9, 1))
    pi = PathMeasure(depth=3, paths=path, weights=np.array([1.0]))
    for spec in (
        NormSpec(kind="holder", p=2.0, gamma=0.4),
        NormSpec(kind="pvar", p=3.0),
        NormSpec(kind="frac_sobolev", p=2.0, alpha=0.6),
    ):
        from pathlift import DyadicPath

        expected = spec.seminorm(DyadicPath(3, path[0])) ** spec.p
        assert lift_energy(pi, spec) == pytest.approx(expected, rel=1e-12)


def test_marginal_needs_uniform_weights_in_1d():
    pi = PathMeasure(
        depth=1, paths=np.zeros((2, 3, 1)), weights=np.array([0.3, 0.7])
    )
    with pytest.raises(ValueError, match="marginal_cloud"):
        marginal(pi, 0.5)
    values, weights = marginal_cloud(pi, 0.5)
    assert values.shape == (2, 1)
    assert np.array_equal(weights, [0.3, 0.7])


def test_marginal_returns_cloud_for_d2():
    pi = PathMeasure(
        depth=1, paths=np.ones((2, 3, 2)), weights=np.array([0.5, 0.5])
    )
    values, weights = marginal(pi, 1.0)
    assert values.shape == (2, 2)


def test_marginal_requires_grid_time():
    pi = PathMeasure(
        depth=1, paths=np.zeros((1, 3, 1)), weights=np.array([1.0])
    )
    with pytest.raises(ValueError, match="dyadic time"):
        marginal(pi, 0.3)


def test_marginal_wasserstein_closed_form():
    # straight lines 0 -> q_j: marginal at t is t * mu, so
    # W_p(mu_s, mu_t) = |t - s| * W_p(delta_0, mu)
    mp = heat_sample(0)  # just endpoints delta_0, N(0,1)
    pi = build_dyadic_lift(mp, "quantile", 0)
    w = marginal_wasserstein(pi, 0.0, 1.0, 2.0)
    assert w == pytest.approx(float(np.mean(BASE ** 2)) ** 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# curve energy vs lift energy


def test_quantile_lift_attains_the_besov_curve_energy():
    # the energy identity that makes the quantile lift canonical
    pi = build_dyadic_lift(heat_sample(4), "quantile", 4)
    spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    assert lift_energy(pi, spec) == pytest.approx(
        marginal_curve_energy(pi, spec), rel=1e-12
    )


@pytest.mark.parametrize("kind,extra", [
    ("besov", {"alpha": 0.75}),
    ("holder", {"gamma": 0.4}),
    ("pvar", {}),
])
def test_curve_energy_never_exceeds_lift_energy(kind, extra):
    gen = np.random.default_rng(17)
    for _ in range(20):
        pi = random_path_measure(gen)
        spec = NormSpec(kind=kind, p=2.0, **extra)
        assert marginal_curve_energy(pi, spec) <= lift_energy(pi, spec) + 1e-10


@st.composite
def path_measures(draw):
    """d = 1 path measures with uniform or nonuniform weights."""
    depth = draw(st.integers(0, 3))
    n = draw(st.integers(1, 6))
    coords = st.floats(-1.0, 1.0, allow_nan=False)
    values = draw(st.lists(coords, min_size=n * (2 ** depth + 1),
                           max_size=n * (2 ** depth + 1)))
    paths = np.asarray(values).reshape(n, 2 ** depth + 1, 1)
    if draw(st.booleans()):
        w = np.full(n, 1.0 / n)
    else:
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        w = np.asarray(raw) / sum(raw)
        w[-1] = 1.0 - float(w[:-1].sum())
    return PathMeasure(depth=depth, paths=paths, weights=w)


@settings(max_examples=60, deadline=None)
@given(
    pi=path_measures(),
    p=st.sampled_from([1.0, 2.0, 3.0]),
    alpha=st.floats(0.05, 0.95),
    gamma=st.floats(0.05, 1.0),
)
def test_curve_energy_never_exceeds_lift_energy_property(pi, p, alpha, gamma):
    for spec in (
        NormSpec(kind="besov", p=p, alpha=alpha),
        NormSpec(kind="holder", p=p, gamma=gamma),
        NormSpec(kind="pvar", p=p),
    ):
        assert marginal_curve_energy(pi, spec) <= lift_energy(pi, spec) + 1e-10


def test_curve_energy_rejects_frac_sobolev():
    pi = build_dyadic_lift(heat_sample(1), "quantile", 1)
    with pytest.raises(ValueError, match="besov, holder and pvar"):
        marginal_curve_energy(pi, NormSpec(kind="frac_sobolev", p=2.0, alpha=0.6))


def test_curve_energy_weighted_route_matches_uniform_route():
    gen = np.random.default_rng(23)
    paths = gen.standard_normal((5, 5, 1))
    w_exact = np.full(5, 0.2)
    uniform = PathMeasure(depth=2, paths=paths, weights=w_exact)
    # same weights, but flagged nonuniform by a last-ulp perturbation
    w_ulp = w_exact.copy()
    w_ulp[0] = np.nextafter(w_ulp[0], 1.0)
    w_ulp[1] = 1.0 - float(w_ulp[[0, 2, 3, 4]].sum())
    skewed = PathMeasure(depth=2, paths=paths, weights=w_ulp)
    for spec in (
        NormSpec(kind="besov", p=2.0, alpha=0.75),
        NormSpec(kind="pvar", p=2.0),
    ):
        assert marginal_curve_energy(skewed, spec) == pytest.approx(
            marginal_curve_energy(uniform, spec), rel=1e-6
        )


# ---------------------------------------------------------------------------
# refinement tracking


def test_bound_factor_frozen_value():
    assert bound_factor(0.6, 2.0) == pytest.approx(2.3493435161787266, abs=1e-14)
    with pytest.raises(ValueError):
        bound_factor(0.6, 0.5)
    with pytest.raises(ValueError):
        bound_factor(1.0, 2.0)


def test_refine_and_track_heat_curve():
    spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    rows = refine_and_track(heat_sample, spec, n_max=5)
    energies = [r.n for r in rows]
    assert energies == list(range(6))
    for a, b in zip(rows, rows[1:]):
        assert a.energy <= b.energy + 1e-12
    assert all(r.ok for r in rows)
    finest = build_dyadic_lift(heat_sample(5), "quantile", 5)
    expected = bound_factor(0.6, 2.0) * marginal_curve_energy(finest, spec)
    assert rows[0].bound == pytest.approx(expected, rel=1e-12)


def test_refine_and_track_needs_besov():
    with pytest.raises(ValueError, match="besov"):
        refine_and_track(heat_sample, NormSpec(kind="pvar", p=2.0), n_max=2)


def test_refine_track_row_flags_violations():
    from pathlift import RefineTrackRow

    assert RefineTrackRow(n=0, energy=1.0, bound=2.0).ok
    assert not RefineTrackRow(n=0, energy=2.0, bound=1.0).ok


# ---------------------------------------------------------------------------
# tightness diagnostic


def test_tightness_straight_lines():
    # x_j(t) = q_j t: level-m moment is mean|q|^p 2^{-mp}, so the ratio
    # mean|q|^p 2^{-mp(1-gamma)} peaks at the root level
    pi = build_dyadic_lift(heat_sample(3, scale=0.0), "quantile", 3)
    lines = PathMeasure(
        depth=3,
        paths=BASE[:, None, None] * np.linspace(0, 1, 9)[None, :, None],
        weights=np.full(16, 1.0 / 16),
    )
    report = tightness_diagnostic([lines, pi], p=2.0, gamma=0.75)
    assert report.sup_ratio == pytest.approx(float(np.mean(BASE ** 2)), rel=1e-12)
    assert report.level_ratios[0] == report.sup_ratio
    assert report.start_moment == 0.0
    assert len(report.level_ratios) == 4


def test_tightness_validation():
    pi = build_dyadic_lift(heat_sample(1), "quantile", 1)
    with pytest.raises(ValueError):
        tightness_diagnostic([], 2.0, 0.75)
    with pytest.raises(ValueError):
        tightness_diagnostic([pi], 2.0, 0.4)  # gamma <= 1/p
    with pytest.raises(ValueError):
        tightness_diagnostic([pi], 1.0, 0.75)


# ---------------------------------------------------------------------------
# serialization


def test_pm_json_roundtrip_exact():
    gen = np.random.default_rng(31)
    pi = random_path_measure(gen)
    clone = pm_from_json(pm_to_json(pi))
    assert clone.depth == pi.depth
    assert np.array_equal(clone.paths, pi.paths)
    assert np.array_equal(clone.weights, pi.weights)


def test_pm_csv_roundtrip_exact():
    gen = np.random.default_rng(32)
    pi = PathMeasure(
        depth=2,
        paths=gen.standard_normal((3, 5, 2)),
        weights=np.full(3, 1.0 / 3),
    )
    buf = io.StringIO()
    pm_to_csv(pi, buf)
    payload = buf.getvalue()
    assert payload.startswith("path_id,t,x_1,x_2\r\n")
    clone = pm_from_csv(io.StringIO(payload))
    assert np.array_equal(clone.paths, pi.paths)


def test_pm_csv_weights_argument():
    pi = PathMeasure(
        depth=1, paths=np.zeros((2, 3, 1)), weights=np.array([0.25, 0.75])
    )
    buf = io.StringIO()
    pm_to_csv(pi, buf)
    clone = pm_from_csv(io.StringIO(buf.getvalue()), weights=pi.weights)
    assert np.array_equal(clone.weights, pi.weights)


def test_pm_csv_path_ids_must_be_dense():
    csv_text = "path_id,t,x_1\r\n0,0.0,0\r\n0,0.5,0\r\n0,1.0,0\r\n" \
               "2,0.0,0\r\n2,0.5,0\r\n2,1.0,0\r\n"
    with pytest.raises(ValueError, match="0..N-1"):
        pm_from_csv(io.StringIO(csv_text))


def test_pm_json_validation():
    with pytest.raises(ValueError):
        pm_from_json({"depth": 1, "weights": [1.0]})
