"""Lifting measure curves to path measures, energies, refinement bound."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from curve_oracles import from_measures
from pathlift import (
    MeasurePathSample,
    NormSpec,
    PathMeasure,
    QuantileMeasure,
    besov_seminorm,
    bound_factor,
    build_dyadic_lift,
    build_shuffled_lift,
    lift_energy,
    marginal_cloud,
    marginal_curve_energy,
    marginal_wasserstein,
    midpoint_grid,
    pairwise_optimality_gap,
    pm_from_csv,
    pm_to_csv,
    refine_and_track,
    tightness_diagnostic,
    wasserstein_p,
)
from pathlift import _rng

BASE = ndtri(midpoint_grid(16))


def heat_sample(n, scale=1.0):
    """mu_t = N(0, scale^2 t) on the level-n grid, 16 atoms."""
    times = np.linspace(0.0, 1.0, 2 ** n + 1)
    return from_measures(
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

    def test_paths_need_a_column(self):
        with pytest.raises(ValueError, match="d >= 1"):
            PathMeasure(depth=1, paths=np.zeros((2, 3, 0)),
                        weights=np.array([0.5, 0.5]))

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


class TestMeasurePathSample:
    def test_point_count_must_be_dyadic(self):
        with pytest.raises(ValueError, match="2\\^n"):
            MeasurePathSample(np.zeros((4, 4)))

    def test_times_must_be_the_dyadic_grid(self):
        times = MeasurePathSample(np.zeros((17, 4))).times
        assert times.tobytes() == np.linspace(0.0, 1.0, 17).tobytes()

    def test_level_and_kind_flags(self):
        mp = heat_sample(3)
        assert mp.level == 3

    def test_unsorted_row_names_its_slice(self):
        atoms = np.tile(np.arange(4.0), (5, 1))
        atoms[3, [1, 2]] = atoms[3, [2, 1]]
        with pytest.raises(ValueError, match=r"slice k=3 \(t=0\.75\).*nondecreasing"):
            MeasurePathSample(atoms)

    def test_ties_pass_and_the_first_unsorted_row_is_named(self):
        atoms = np.tile([0.0, 1.0, 1.0, 2.0], (5, 1))
        MeasurePathSample(atoms)
        atoms[[1, 3], 3] = 0.5
        with pytest.raises(ValueError, match=r"slice k=1 \(t=0\.25\)"):
            MeasurePathSample(atoms)

    def test_non_finite_atom_names_its_slice(self):
        atoms = np.tile(np.arange(4.0), (5, 1))
        atoms[2, 0] = -np.inf
        atoms[4, 1] = np.nan
        with pytest.raises(ValueError, match=r"slice k=2 \(t=0\.5\).*finite"):
            MeasurePathSample(atoms)

    @pytest.mark.parametrize("k", [0, 4, 8])
    @pytest.mark.parametrize("fault,message", [
        ("nan", "atoms must be finite"),
        ("inf", "atoms must be finite"),
        ("inf_end", "atoms must be finite"),
        ("unsorted", "quantiles must be nondecreasing"),
    ])
    def test_each_fault_names_its_first_bad_slice(self, fault, message, k):
        atoms = np.tile(np.arange(6.0), (9, 1))
        for row in {k, 8}:  # a later bad slice is not the one named
            if fault == "unsorted":
                atoms[row, [2, 3]] = atoms[row, [3, 2]]
            else:
                col = -1 if fault == "inf_end" else 2
                atoms[row, col] = np.nan if fault == "nan" else np.inf
        with pytest.raises(ValueError) as info:
            MeasurePathSample(atoms)
        assert str(info.value) == f"slice k={k} (t={k / 8!r}): {message}"

    def test_atom_count_mismatch_names_its_slice(self):
        qs = [QuantileMeasure(np.zeros(4))] * 9
        qs[6] = QuantileMeasure(np.zeros(3))
        with pytest.raises(ValueError, match=r"slice k=6 \(t=0\.75\): 3 atoms"):
            from_measures(qs)

    def test_atoms_are_read_only_and_shared_with_the_quantile_lift(self):
        mp = heat_sample(2)
        pi = build_dyadic_lift(mp, 2)
        assert np.shares_memory(pi.paths, mp.atoms)
        with pytest.raises(ValueError, match="read-only"):
            pi.paths[0, 1, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            mp.atoms[1] += 1.0
        # the shuffled lift permutes its own copy
        shuf = build_shuffled_lift(mp, seed=1)
        assert not np.shares_memory(shuf.paths, mp.atoms)


# ---------------------------------------------------------------------------
# lift construction


def test_quantile_lift_reproduces_marginals_exactly():
    mp = heat_sample(2)
    pi = build_dyadic_lift(mp, 2)
    assert pi.paths.shape == (16, 5, 1)
    for k, t in enumerate(mp.times):
        assert np.array_equal(
            np.sort(marginal_cloud(pi, t)[0][:, 0]), mp.atoms[k, :, 0]
        )


def test_quantile_lift_pairwise_couplings_are_optimal():
    pi = build_dyadic_lift(heat_sample(3), 3)
    for s, t in ((0.0, 1.0), (0.25, 0.375), (0.5, 0.75)):
        gap = pairwise_optimality_gap(pi, s, t, 2.0)
        assert abs(gap.gap) <= 1e-12
        assert gap.coupling_cost == pytest.approx(gap.wp_cost, abs=1e-12)


def test_lift_level_must_match_sample():
    with pytest.raises(ValueError, match="time points"):
        build_dyadic_lift(heat_sample(2), 3)


def test_shuffled_lift_keeps_marginals_and_loses_optimality():
    mp = heat_sample(3)
    quant = build_dyadic_lift(mp, 3)
    shuf = build_shuffled_lift(mp, seed=7)
    for k, t in enumerate(mp.times):
        assert np.array_equal(
            np.sort(shuf.paths[:, k, 0]), mp.atoms[k, :, 0]
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


@pytest.mark.parametrize("depth,seed", [(0, 0), (3, 7), (8, 2 ** 64 - 1)])
def test_shuffled_lift_matches_a_new_stream_per_slice(depth, seed):
    mp = heat_sample(depth)
    traj = mp.atoms[:, :, 0].T.copy()
    for i in range(1, traj.shape[1]):
        perm = _rng.stream(seed, f"shuffle/{i}").permutation(traj.shape[0])
        traj[:, i] = traj[perm, i]
    assert np.array_equal(build_shuffled_lift(mp, seed).paths[:, :, 0], traj)


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
    # only uniform weights give a 1-d marginal an equal-weight quantile
    # form; other weights come back as the weighted cloud
    pi = PathMeasure(
        depth=1, paths=np.zeros((2, 3, 1)), weights=np.array([0.3, 0.7])
    )
    assert not pi.uniform_weights()
    values, weights = marginal_cloud(pi, 0.5)
    assert values.shape == (2, 1)
    assert np.array_equal(weights, [0.3, 0.7])


def test_marginal_returns_cloud_for_d2():
    pi = PathMeasure(
        depth=1, paths=np.ones((2, 3, 2)), weights=np.array([0.5, 0.5])
    )
    values, weights = marginal_cloud(pi, 1.0)
    assert values.shape == (2, 2)


def test_marginal_requires_grid_time():
    pi = PathMeasure(
        depth=1, paths=np.zeros((1, 3, 1)), weights=np.array([1.0])
    )
    with pytest.raises(ValueError, match="dyadic time"):
        marginal_cloud(pi, 0.3)


def test_marginal_wasserstein_closed_form():
    # straight lines 0 -> q_j: marginal at t is t * mu, so
    # W_p(mu_s, mu_t) = |t - s| * W_p(delta_0, mu)
    mp = heat_sample(0)  # just endpoints delta_0, N(0,1)
    pi = build_dyadic_lift(mp, 0)
    w = marginal_wasserstein(pi, 0.0, 1.0, 2.0)
    assert w == pytest.approx(float(np.mean(BASE ** 2)) ** 0.5, rel=1e-12)


# ---------------------------------------------------------------------------
# curve energy vs lift energy


def test_quantile_lift_attains_the_besov_curve_energy():
    # the energy identity that makes the quantile lift canonical
    pi = build_dyadic_lift(heat_sample(4), 4)
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
        try:
            lift = lift_energy(pi, spec)
        except FloatingPointError:
            # refused, not read as 0.0: every weighted |dX|^p underflowed
            assert np.abs(np.diff(pi.paths, axis=1)).max() ** p < 1e-300
            continue
        try:
            curve = marginal_curve_energy(pi, spec)
        except FloatingPointError:
            continue  # the marginals differ only below the float range
        assert curve <= lift + 1e-10


def test_curve_energy_rejects_frac_sobolev():
    spec = NormSpec(kind="frac_sobolev", p=2.0, alpha=0.6)
    uniform = build_dyadic_lift(heat_sample(1), 1)
    # the same paths with other weights take the exact weighted W_p route
    w = np.linspace(1.0, 2.0, uniform.n_paths)
    weighted = PathMeasure(depth=1, paths=uniform.paths, weights=w / w.sum())
    assert not weighted.uniform_weights()
    for pi in (uniform, weighted):
        with pytest.raises(ValueError, match="besov, holder and pvar"):
            marginal_curve_energy(pi, spec)


def swapping_lift(weights):
    """Paths that trade places, so that every time marginal is the same;
    a third path, if weighted, sits still at 2."""
    a = np.array([0.0, 1.0, 0.0, 1.0, 0.0])
    paths = np.stack([a, 1.0 - a, np.full(5, 2.0)])[: len(weights), :, None]
    return PathMeasure(depth=2, paths=paths, weights=np.asarray(weights))


@pytest.mark.parametrize("kind,extra", [
    ("besov", {"alpha": 0.6}), ("holder", {"gamma": 0.5}), ("pvar", {}),
])
def test_equal_marginals_price_a_zero_curve_energy(kind, extra):
    # the uniform route compares sorted slices, the weighted one sorted
    # clouds; neither mistakes the moving paths for an underflow
    spec = NormSpec(kind=kind, p=3.0, **extra)
    for weights in ([0.5, 0.5], [0.25, 0.25, 0.5]):
        pi = swapping_lift(weights)
        assert marginal_curve_energy(pi, spec) == 0.0
        assert lift_energy(pi, spec) > 0.0


def test_tied_atoms_in_another_order_are_the_same_marginal():
    # both marginals put 1/2 at 0 and 1/2 at 1, but the tied atoms at 0
    # (weights 1/4 and 1/2, then 1/2 and 1/4) sort into another order
    paths = np.array([[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])[:, :, None]
    pi = PathMeasure(depth=0, paths=paths, weights=np.array([0.25, 0.5, 0.25]))
    assert marginal_curve_energy(pi, NormSpec(kind="pvar", p=3.0)) == 0.0


@pytest.mark.parametrize("kind,extra", [
    ("besov", {"alpha": 0.6}), ("holder", {"gamma": 0.5}), ("pvar", {}),
])
def test_lift_and_curve_energies_that_underflow_raise(kind, extra):
    spec = NormSpec(kind=kind, p=200.0, **extra)
    for weights in ([0.5, 0.5], [0.3, 0.7]):
        pi = swapping_lift(weights)
        shifted = pi.paths + [[[0.0]], [[0.5]]]  # marginals that differ
        tiny = PathMeasure(depth=2, paths=1e-3 * shifted, weights=pi.weights)
        for energy in (lift_energy, marginal_curve_energy):
            with pytest.raises(FloatingPointError, match=f"{kind}.*p=200.0"):
                energy(tiny, spec)


def test_a_zero_weight_path_does_not_count_as_moving():
    paths = np.zeros((2, 5, 1))
    paths[0, :, 0] = np.arange(5.0)
    pi = PathMeasure(depth=2, paths=paths, weights=np.array([0.0, 1.0]))
    for spec in (NormSpec(kind="pvar", p=200.0),
                 NormSpec(kind="frac_sobolev", p=200.0, alpha=0.6)):
        assert lift_energy(pi, spec) == 0.0


def test_refine_and_track_refuses_a_negative_level():
    spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    with pytest.raises(ValueError, match="n_max must be nonnegative"):
        refine_and_track(heat_sample, spec, n_max=-1)


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
    finest = build_dyadic_lift(heat_sample(5), 5)
    expected = bound_factor(0.6, 2.0) * marginal_curve_energy(finest, spec)
    assert rows[0].bound == pytest.approx(expected, rel=1e-12)


def test_refine_and_track_needs_besov():
    with pytest.raises(ValueError, match="besov"):
        refine_and_track(heat_sample, NormSpec(kind="pvar", p=2.0), n_max=2)


def test_refine_track_row_flags_violations():
    from pathlift import RefineTrackRow

    assert RefineTrackRow(n=0, energy=1.0, bound=2.0, marginal_energy=0.5).ok
    assert not RefineTrackRow(
        n=0, energy=2.0, bound=1.0, marginal_energy=0.5).ok


# ---------------------------------------------------------------------------
# tightness diagnostic


def test_tightness_straight_lines():
    # x_j(t) = q_j t: level-m moment is mean|q|^p 2^{-mp}, so the ratio
    # mean|q|^p 2^{-mp(1-gamma)} peaks at the root level
    pi = build_dyadic_lift(heat_sample(3, scale=0.0), 3)
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
    pi = build_dyadic_lift(heat_sample(1), 1)
    with pytest.raises(ValueError):
        tightness_diagnostic([], 2.0, 0.75)
    with pytest.raises(ValueError):
        tightness_diagnostic([pi], 2.0, 0.4)  # gamma <= 1/p
    with pytest.raises(ValueError):
        tightness_diagnostic([pi], 1.0, 0.75)


# ---------------------------------------------------------------------------
# serialization


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


def test_pm_csv_path_ids_must_be_dense():
    csv_text = "path_id,t,x_1\r\n0,0.0,0\r\n0,0.5,0\r\n0,1.0,0\r\n" \
               "2,0.0,0\r\n2,0.5,0\r\n2,1.0,0\r\n"
    with pytest.raises(ValueError, match="0..N-1"):
        pm_from_csv(io.StringIO(csv_text))

