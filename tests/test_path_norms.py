"""Dyadic path container, seminorms, embeddings and serialization."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlift import (
    DyadicPath,
    NormSpec,
    besov_seminorm,
    embedding_report,
    frac_sobolev_seminorm,
    grr_constant,
    holder_seminorm,
    p_variation,
    path_from_csv,
    path_from_json,
    path_to_csv,
    path_to_json,
)
from pathlift.path_norms import _grid_index


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

    def test_level_values_subsample(self):
        path = linear_path(3)
        coarse = path.level_values(1)
        assert np.array_equal(coarse[:, 0], [0.0, 0.5, 1.0])

    def test_scaled(self):
        path = linear_path(2)
        assert np.array_equal(path.scaled(-2.0).values, -2.0 * path.values)


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

    def test_equivalence_range(self):
        assert NormSpec(kind="besov", p=2.0, alpha=0.75).in_equivalence_range()
        assert not NormSpec(kind="besov", p=2.0, alpha=0.4).in_equivalence_range()
        assert not NormSpec(kind="pvar", p=2.0).in_equivalence_range()

    def test_dispatch_matches_functions(self):
        path = random_path(5, 4)
        assert NormSpec(kind="pvar", p=3.0).seminorm(path) == p_variation(path, 3.0)
        assert NormSpec(kind="holder", p=2.0, gamma=0.5).seminorm(
            path
        ) == holder_seminorm(path, 0.5)
        assert NormSpec(kind="besov", p=2.0, alpha=0.75).seminorm(
            path
        ) == besov_seminorm(path, 0.75, 2.0)
        assert NormSpec(kind="frac_sobolev", p=2.0, alpha=0.75).seminorm(
            path
        ) == frac_sobolev_seminorm(path, 0.75, 2.0)


# ---------------------------------------------------------------------------
# Hölder


def holder_oracle(path, gamma, window=None):
    t = path.times()
    vals = path.values
    lo, hi = (t[0], t[-1]) if window is None else window
    best = 0.0
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if t[i] < lo - 1e-12 or t[j] > hi + 1e-12:
                continue
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


def test_holder_window_restricts_pairs():
    path = random_path(7, 4)
    full = holder_seminorm(path, 0.5)
    sub = holder_seminorm(path, 0.5, window=(0.25, 0.75))
    assert sub == pytest.approx(holder_oracle(path, 0.5, (0.25, 0.75)), rel=1e-13)
    assert sub <= full * (1 + 1e-12)


def test_holder_window_must_sit_on_grid():
    path = random_path(7, 2)
    with pytest.raises(ValueError):
        holder_seminorm(path, 0.5, window=(0.1, 0.9))


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
    report = embedding_report(path, 0.6, 2.0, gamma=1.0, include_pvar=False)
    assert report.w_energy <= report.holder_to_ws_bound
    assert report.pvar_lhs is None
    assert report.ok


def test_embedding_report_parameter_validation():
    with pytest.raises(ValueError):
        embedding_report(linear_path(4), 0.25, 2.0)  # alpha p <= 1
    with pytest.raises(ValueError):
        embedding_report(linear_path(4), 0.6, 2.0, gamma=0.5)  # gamma <= alpha


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
    scaled = path.scaled(lam)
    for compute in (
        lambda q: holder_seminorm(q, 0.5),
        lambda q: p_variation(q, 2.0),
        lambda q: besov_seminorm(q, 0.75, 2.0),
        lambda q: frac_sobolev_seminorm(q, 0.75, 2.0),
    ):
        assert compute(scaled) == pytest.approx(
            abs(lam) * compute(path), rel=1e-9, abs=1e-9
        )


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
    assert besov_seminorm(path, 0.75, 2.0) >= single - 1e-12


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip_exact():
    path = random_path(3, 4, dim=2)
    clone = path_from_json(path_to_json(path))
    assert clone.depth == path.depth
    assert clone.horizon == path.horizon
    assert np.array_equal(clone.values, path.values)


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


def test_json_rejects_missing_fields():
    with pytest.raises(ValueError):
        path_from_json({"depth": 2})
