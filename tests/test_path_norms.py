"""Dyadic path container, seminorms, embeddings and serialization."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_oracles import seminorm_formula

from pathlift import (
    DyadicPath,
    NormSpec,
    PathMeasure,
    besov_seminorm,
    embedding_report,
    frac_sobolev_seminorm,
    grr_constant,
    holder_seminorm,
    p_variation,
    path_from_csv,
    path_to_csv,
)
from pathlift import path_norms
from pathlift.mc_estimator import McConfig, _scenario_values
from pathlift.path_norms import _grid_index, _PairCost


def linear_path(depth, slope=1.0):
    t = np.linspace(0.0, 1.0, 2 ** depth + 1)
    return DyadicPath(depth, slope * t)


def zigzag_path():
    return DyadicPath(3, np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]))


def random_path(seed, depth, dim=1):
    gen = np.random.default_rng(seed)
    values = np.cumsum(gen.standard_normal((2 ** depth + 1, dim)), axis=0)
    values -= values[0]
    return DyadicPath(depth, values)


# ---------------------------------------------------------------------------
# container


class TestDyadicPath:
    def test_grid_size_must_be_dyadic(self):
        with pytest.raises(ValueError, match="grid values"):
            DyadicPath(2, np.zeros(6))

    def test_values_must_be_finite(self):
        vals = np.zeros(5)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            DyadicPath(2, vals)

    def test_values_need_a_column(self):
        with pytest.raises(ValueError, match="d >= 1"):
            DyadicPath(1, np.zeros((3, 0)))
        with pytest.raises(ValueError, match="d >= 1"):
            path_from_csv(io.StringIO("t\r\n0\r\n0.5\r\n1\r\n"))

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            DyadicPath(1, np.zeros(3), horizon=0.0)

    def test_scalar_values_get_a_dim_axis(self):
        path = DyadicPath(2, np.arange(5.0))
        assert path.values.shape == (5, 1)
        assert path.dim == 1
        assert path.n_points == 5

    def test_times_match_horizon(self):
        path = DyadicPath(1, np.zeros(3), horizon=2.0)
        assert np.array_equal(path.times(), [0.0, 1.0, 2.0])


# int() of inf or nan raised its own error, and a negative or fractional
# depth reached the grid count check with 2 ** depth + 1 grid points
@pytest.mark.parametrize("depth", [-1, 1.5, math.inf, math.nan])
@pytest.mark.parametrize("make", [
    lambda depth: DyadicPath(depth, np.zeros(3)),
    lambda depth: PathMeasure(depth, np.zeros((1, 3, 1)), np.ones(1)),
], ids=["DyadicPath", "PathMeasure"])
def test_constructors_refuse_a_bad_depth(make, depth):
    with pytest.raises(ValueError) as err:
        make(depth)
    assert str(err.value) == "depth must be a nonnegative integer"


class TestNormSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            NormSpec(kind="sobolev-ish", p=2.0)

    def test_p_below_one(self):
        with pytest.raises(ValueError):
            NormSpec(kind="pvar", p=0.5)

    def test_besov_needs_alpha(self):
        with pytest.raises(ValueError):
            NormSpec(kind="besov", p=2.0)

    def test_holder_needs_gamma_in_unit_interval(self):
        with pytest.raises(ValueError):
            NormSpec(kind="holder", p=2.0, gamma=1.5)

    def test_dispatch_matches_functions(self):
        # both routes against each kind's own formula, bit for bit: holder
        # ignores p, and the grid spacing follows the horizon
        functions = {
            "holder": lambda path, s: holder_seminorm(path, s.gamma),
            "pvar": lambda path, s: p_variation(path, s.p),
            "besov": lambda path, s: besov_seminorm(path, s.alpha, s.p),
            "frac_sobolev":
                lambda path, s: frac_sobolev_seminorm(path, s.alpha, s.p),
        }
        specs = [
            NormSpec(kind="holder", p=3.0, gamma=0.4),
            NormSpec(kind="pvar", p=2.5),
            NormSpec(kind="besov", p=4.0, alpha=0.3),
            NormSpec(kind="frac_sobolev", p=2.5, alpha=0.6),
        ]
        for dim in (1, 2):
            values = random_path(7 + dim, 5, dim).values
            for horizon in (1.0, 2.0):
                path = DyadicPath(5, values, horizon)
                for spec in specs:
                    if spec.kind == "besov" and horizon != 1.0:
                        with pytest.raises(ValueError, match="horizon 1"):
                            spec.seminorm(path)
                        continue
                    want = seminorm_formula(path, spec)
                    assert want > 0.0
                    assert spec.seminorm(path) == want
                    assert functions[spec.kind](path, spec) == want


# ---------------------------------------------------------------------------
# Hölder


def holder_oracle(path, gamma):
    t = path.times()
    vals = path.values
    best = 0.0
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            d = float(np.linalg.norm(vals[j] - vals[i]))
            best = max(best, d / (t[j] - t[i]) ** gamma)
    return best


def test_holder_constant_path_is_zero():
    path = DyadicPath(3, np.full(9, 4.2))
    assert holder_seminorm(path, 0.5) == 0.0


def test_holder_linear_path_lipschitz():
    assert holder_seminorm(linear_path(5, slope=3.0), 1.0) == pytest.approx(3.0)


def test_holder_zigzag_frozen():
    assert holder_seminorm(zigzag_path(), 0.5) == pytest.approx(
        2.82842712474619, abs=1e-14
    )


@pytest.mark.parametrize("seed,dim", [(0, 1), (1, 2), (2, 3)])
def test_holder_matches_bruteforce(seed, dim):
    path = random_path(seed, 4, dim)
    for gamma in (0.25, 0.5, 1.0):
        assert holder_seminorm(path, gamma) == pytest.approx(
            holder_oracle(path, gamma), rel=1e-13
        )


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_grid_index_refuses_non_finite_times(t):
    with pytest.raises(ValueError, match="not a level-3 dyadic time"):
        _grid_index(t, 3)


def test_holder_gamma_validation():
    with pytest.raises(ValueError):
        holder_seminorm(linear_path(2), 0.0)
    with pytest.raises(ValueError):
        holder_seminorm(linear_path(2), 1.1)


def test_holder_respects_physical_horizon():
    # same values on [0, 2]: pair distances unchanged, time gaps doubled
    base = random_path(3, 3)
    stretched = DyadicPath(3, base.values, horizon=2.0)
    gamma = 0.5
    assert holder_seminorm(stretched, gamma) == pytest.approx(
        holder_seminorm(base, gamma) / 2 ** gamma, rel=1e-12
    )


# ---------------------------------------------------------------------------
# p-variation


def pvar_oracle(path, p):
    """Exhaustive enumeration over all dissections through the grid."""
    vals = path.values
    k = vals.shape[0]
    powd = np.zeros((k, k))
    for i in range(k - 1):
        diff = vals[i + 1 :] - vals[i]
        powd[i, i + 1 :] = np.sqrt(np.einsum("kd,kd->k", diff, diff)) ** p

    best = 0.0

    def extend(i, acc):
        nonlocal best
        if i == k - 1:
            best = max(best, acc)
            return
        for j in range(i + 1, k):
            extend(j, acc + powd[i, j])

    extend(0, 0.0)
    return best ** (1.0 / p)


def test_pvar_monotone_path_is_total_increment():
    # for monotone paths every refinement decreases the sum when p > 1
    path = linear_path(4)
    assert p_variation(path, 2.0) == pytest.approx(1.0, abs=1e-14)


def test_pvar_zigzag_frozen():
    assert p_variation(zigzag_path(), 2.0) == pytest.approx(
        2.8284271247461903, abs=1e-14
    )


@pytest.mark.parametrize("seed", range(6))
def test_pvar_equals_exhaustive_enumeration(seed):
    gen = np.random.default_rng(seed)
    depth = int(gen.integers(1, 4))
    dim = int(gen.integers(1, 3))
    path = DyadicPath(
        depth, gen.standard_normal((2 ** depth + 1, dim))
    )
    p = float(gen.uniform(1.0, 4.0))
    assert p_variation(path, p) == pvar_oracle(path, p)


def test_pvar_p_validation():
    with pytest.raises(ValueError):
        p_variation(linear_path(2), 0.9)


def test_pvar_decreases_in_p():
    path = random_path(11, 5)
    values = [p_variation(path, p) for p in (1.0, 1.5, 2.0, 3.0)]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# besov


def test_besov_constant_is_zero():
    assert besov_seminorm(DyadicPath(4, np.ones(17)), 0.75, 2.0) == 0.0


def test_besov_linear_frozen_depth_20():
    # truncated geometric series: energy sum_m 2^{-m/2} over m = 0..20
    path = linear_path(20)
    value = besov_seminorm(path, 0.75, 2.0)
    assert value == pytest.approx(1.8471209846518148, abs=1e-12)
    limit = (1.0 / (1.0 - 2.0 ** -0.5)) ** 0.5
    assert value < limit


def test_besov_linear_matches_series_exactly():
    depth = 6
    path = linear_path(depth)
    expected = sum(
        2.0 ** (m * 0.5) * 2 ** m * (2.0 ** -m) ** 2 for m in range(depth + 1)
    )
    assert besov_seminorm(path, 0.75, 2.0) == pytest.approx(
        expected ** 0.5, rel=1e-14
    )


def test_besov_requires_unit_horizon():
    path = DyadicPath(2, np.zeros(5), horizon=2.0)
    with pytest.raises(ValueError, match="horizon"):
        besov_seminorm(path, 0.75, 2.0)


def test_besov_alpha_validation():
    with pytest.raises(ValueError):
        besov_seminorm(linear_path(2), 1.0, 2.0)


# ---------------------------------------------------------------------------
# fractional Sobolev


def test_frac_sobolev_linear_frozen():
    assert frac_sobolev_seminorm(linear_path(10), 0.6, 2.0) == pytest.approx(
        1.1760764870555667, abs=1e-12
    )


def test_frac_sobolev_underestimates_smooth_integrand():
    # midpoint quadrature of the convex kernel |u-v|^{p-1-alpha p} with the
    # diagonal removed sits below the exact double integral
    exact = math.sqrt(2.0 / (0.8 * 1.8))
    for depth in (6, 8, 10):
        value = frac_sobolev_seminorm(linear_path(depth), 0.6, 2.0)
        assert value < exact
    # and converges towards it
    assert exact - frac_sobolev_seminorm(linear_path(10), 0.6, 2.0) < 3e-3


def test_frac_sobolev_constant_is_zero():
    assert frac_sobolev_seminorm(DyadicPath(3, np.zeros(9)), 0.6, 2.0) == 0.0


def test_frac_sobolev_parameter_validation():
    with pytest.raises(ValueError):
        frac_sobolev_seminorm(linear_path(3), 1.0, 2.0)
    with pytest.raises(ValueError):
        frac_sobolev_seminorm(linear_path(3), 0.5, 0.9)


# ---------------------------------------------------------------------------
# GRR constant and embedding report


def test_grr_constant_frozen_values():
    assert grr_constant(0.75, 2.0) == pytest.approx(12.649110640673518, abs=1e-12)
    assert grr_constant(0.5, 4.0) == pytest.approx(3.1301691601465746, abs=1e-12)


def test_grr_constant_validation():
    with pytest.raises(ValueError):
        grr_constant(0.75, 1.0)
    with pytest.raises(ValueError):
        grr_constant(0.4, 2.0)  # alpha p <= 1
    with pytest.raises(ValueError):
        grr_constant(1.0, 2.0)


def test_embedding_report_brownian_like_path():
    path = random_path(42, 8)
    report = embedding_report(path, 0.6, 2.0)
    assert report.cbar == grr_constant(0.6, 2.0)
    assert report.gamma == pytest.approx(0.8)  # defaults to (alpha + 1) / 2
    assert report.ok, report.violations
    assert report.holder_lhs <= report.cbar_rhs
    assert report.pvar_lhs <= report.pvar_rhs


def test_embedding_report_holder_to_sobolev_bound():
    # the smooth-path route: a Lipschitz path also has finite W-seminorm
    path = linear_path(8)
    report = embedding_report(path, 0.6, 2.0, include_pvar=False)
    assert report.w_energy <= report.holder_to_ws_bound
    assert report.pvar_lhs is None
    assert report.ok


def test_embedding_report_parameter_validation():
    with pytest.raises(ValueError):
        embedding_report(linear_path(4), 0.25, 2.0)  # alpha p <= 1


def test_embedding_report_overflow_names_the_bound_and_p():
    gen = np.random.default_rng(0)
    values = np.concatenate([[0.0], np.cumsum(gen.standard_normal(64))])
    path = DyadicPath(6, values * np.sqrt(1 / 64) * 10)
    with pytest.raises(OverflowError) as info:
        embedding_report(path, 0.3, 200.0)
    assert "holder_to_ws_bound" in str(info.value)
    assert "p=200.0" in str(info.value)


def test_two_reports_reduce_the_holder_maxima_once(monkeypatch):
    calls = []
    reduce = path_norms._offset_reduce

    def counting(cost, ufunc):
        calls.append(ufunc)
        return reduce(cost, ufunc)

    monkeypatch.setattr(path_norms, "_offset_reduce", counting)
    path = random_path(3, 8)
    first = embedding_report(path, 0.3, 4.0, include_pvar=False)
    second = embedding_report(path, 0.6, 2.0, include_pvar=False)
    assert calls.count(np.maximum) == 1
    assert calls.count(np.add) == 2  # one Sobolev sum a report
    assert embedding_report(path, 0.3, 4.0, include_pvar=False) == first
    assert second.holder_lhs > 0
    assert not any(a.flags.writeable for a in path._holder_maxima)


def test_path_values_are_a_read_only_copy():
    values = np.cumsum(np.random.default_rng(4).standard_normal(65))
    path = DyadicPath(6, values)
    with pytest.raises(ValueError):
        path.values[3, 0] = 1.0
    before = embedding_report(path, 0.6, 2.0)
    kept = path.values.copy()
    values[:] = 0.0
    assert np.array_equal(path.values, kept)
    assert embedding_report(path, 0.6, 2.0) == before


def tiny_walk():
    # every |dX|^200 and |X_j - X_i|^200 is below the float range
    gen = np.random.default_rng(0)
    return DyadicPath(6, 1e-3 * np.concatenate(
        [[0.0], np.cumsum(gen.standard_normal(64))]))


@pytest.mark.parametrize("kind,extra", [
    ("pvar", {}), ("besov", {"alpha": 0.3}), ("frac_sobolev", {"alpha": 0.3}),
])
def test_an_energy_that_underflows_raises_naming_kind_and_p(kind, extra):
    spec = NormSpec(kind=kind, p=200.0, **extra)
    with pytest.raises(FloatingPointError) as info:
        spec.seminorm(tiny_walk())
    assert kind in str(info.value) and "p=200.0" in str(info.value)
    # a constant path still prices 0.0
    assert spec.seminorm(DyadicPath(6, np.full(65, 0.7))) == 0.0


def test_embedding_report_refuses_an_underflowing_sobolev_energy():
    # it read w_energy 0.0 and flagged false violations ("holder", "pvar")
    with pytest.raises(FloatingPointError, match="frac_sobolev.*p=200.0"):
        embedding_report(tiny_walk(), alpha=0.3, p=200.0)
    rep = embedding_report(DyadicPath(6, np.full(65, 0.7)), 0.3, 200.0)
    assert rep.w_energy == 0.0 and rep.ok


def test_an_underflow_names_the_scenario_seed():
    spec = NormSpec(kind="pvar", p=200.0)
    with pytest.raises(FloatingPointError, match=r"seed \d+"):
        _scenario_values(lambda seed: spec.seminorm(tiny_walk()),
                         McConfig(n_mc=2, base_seed=5))


def test_sites_are_compared_only_for_a_zero_energy(monkeypatch):
    calls = []
    flat = _PairCost.flat
    monkeypatch.setattr(_PairCost, "flat",
                        lambda cost: calls.append(cost) or flat(cost))
    path = random_path(5, 5)
    for kind, extra in (("pvar", {}), ("besov", {"alpha": 0.6}),
                        ("holder", {"gamma": 0.5}),
                        ("frac_sobolev", {"alpha": 0.6})):
        NormSpec(kind=kind, p=3.0, **extra).seminorm(path)
    embedding_report(path, 0.6, 3.0)
    assert calls == []
    NormSpec(kind="pvar", p=3.0).seminorm(DyadicPath(5, np.zeros(33)))
    assert len(calls) == 1


def test_flat_midpoints_price_zero_without_raising():
    # a zigzag's cell midpoints are all equal: its Sobolev energy is 0.0
    assert frac_sobolev_seminorm(zigzag_path(), 0.6, 2.0) == 0.0


# ---------------------------------------------------------------------------
# scaling properties


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=5,
        max_size=5,
    ),
    lam=st.floats(min_value=-4, max_value=4, allow_nan=False),
)
def test_seminorms_are_absolutely_homogeneous(values, lam):
    path = DyadicPath(2, np.asarray(values))
    scaled = DyadicPath(2, lam * path.values)
    for compute in (
        lambda q: holder_seminorm(q, 0.5),
        lambda q: p_variation(q, 2.0),
        lambda q: besov_seminorm(q, 0.75, 2.0),
        lambda q: frac_sobolev_seminorm(q, 0.75, 2.0),
    ):
        try:
            want = abs(lam) * compute(path)
            got = compute(scaled)
        except FloatingPointError:
            # an energy refuses to read 0.0 when every |dX|^2 underflows,
            # which takes the steps of one of the paths below 1e-150
            steps = [np.abs(np.diff(q.values, axis=0)).max()
                     for q in (path, scaled)]
            assert min(steps) ** 2 < 1e-300
            continue
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=5,
        max_size=5,
    )
)
def test_besov_dominates_single_level(values):
    # the m = 0 term |X_1 - X_0|^p is one summand of the energy
    path = DyadicPath(2, np.asarray(values))
    single = abs(values[-1] - values[0])
    try:
        assert besov_seminorm(path, 0.75, 2.0) >= single - 1e-12
    except FloatingPointError:
        # every |dX|^2 underflowed, so the energy refuses to read 0.0
        assert single ** 2 < 1e-300


# ---------------------------------------------------------------------------
# serialization


def test_csv_roundtrip_exact():
    path = random_path(9, 5, dim=3)
    buf = io.StringIO()
    path_to_csv(path, buf)
    payload = buf.getvalue()
    assert "\r\n" in payload
    clone = path_from_csv(io.StringIO(payload))
    assert np.array_equal(clone.values, path.values)


def test_csv_rejects_non_dyadic_row_count():
    path = random_path(1, 2)
    buf = io.StringIO()
    path_to_csv(path, buf)
    lines = buf.getvalue().split("\r\n")
    broken = "\r\n".join(lines[:4] + lines[5:])
    with pytest.raises(ValueError):
        path_from_csv(io.StringIO(broken))


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        path_from_csv(io.StringIO("t,x_1\r\nhello,world\r\n"))

