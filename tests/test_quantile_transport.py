"""1d optimal transport on the quantile representation."""

import io
import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.stats import wasserstein_distance

from pathlift import (
    MonotoneCoupling,
    QuantileMeasure,
    heat_flow_marginal,
    midpoint_grid,
    monotone_coupling,
    monotone_multicoupling,
    qm_from_csv,
    qm_to_csv,
    wasserstein_p,
    wasserstein_p_clouds,
)


def random_measure(seed, n):
    gen = np.random.default_rng(seed)
    return QuantileMeasure(np.sort(gen.standard_normal(n)))


def min_pairing_cost(xs, ys, p):
    """W_p by brute force over all N! pairings of equal-weight atoms."""
    n = len(xs)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        c = sum(abs(xs[i] - ys[perm[i]]) ** p for i in range(n)) / n
        best = min(best, c)
    return best ** (1.0 / p)


def lp_transport_cost(x, wx, y, wy, p):
    """W_p by linear programming over all couplings (general weights)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    cost = (np.abs(x[:, None] - y[None, :]) ** p).ravel()
    nx, ny = x.size, y.size
    rows, rhs = [], []
    for i in range(nx):
        mask = np.zeros((nx, ny))
        mask[i, :] = 1.0
        rows.append(mask.ravel())
        rhs.append(wx[i])
    for j in range(ny):
        mask = np.zeros((nx, ny))
        mask[:, j] = 1.0
        rows.append(mask.ravel())
        rhs.append(wy[j])
    res = linprog(cost, A_eq=np.asarray(rows), b_eq=np.asarray(rhs),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun ** (1.0 / p)


# ---------------------------------------------------------------------------
# representation


def test_midpoint_grid_values():
    assert np.array_equal(midpoint_grid(4), [0.125, 0.375, 0.625, 0.875])
    with pytest.raises(ValueError):
        midpoint_grid(0)


class TestQuantileMeasure:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            QuantileMeasure(np.array([1.0, 0.5]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            QuantileMeasure(np.array([0.0, np.inf]))

    @pytest.mark.parametrize("q, what", [
        ([0.0, np.nan, 1.0], "finite"),
        ([np.nan], "finite"),
        ([np.inf, 1.0], "finite"),
        ([0.0, np.inf], "finite"),
        ([-np.inf, 0.0], "finite"),
        ([0.0, -np.inf], "finite"),
        ([-np.inf, 0.0, 1.0, 2.0], "finite"),
        ([-np.inf, -np.inf], "finite"),
        ([0.0, 2.0, 1.0, 3.0], "nondecreasing"),
    ])
    def test_names_the_broken_rule(self, q, what):
        with pytest.raises(ValueError, match=f"quantiles must be {what}$"):
            QuantileMeasure(np.array(q))

    def test_accepts_the_widest_finite_range(self):
        m = QuantileMeasure(np.array([-1e308, 1e308]))
        assert m.quantiles.tolist() == [-1e308, 1e308]

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            QuantileMeasure(np.array([]))
        with pytest.raises(ValueError):
            QuantileMeasure(np.zeros((2, 2)))

    def test_grid_size(self):
        m = QuantileMeasure(np.array([0.0, 1.0, 2.0, 5.0]))
        assert m.grid_size == 4


# ---------------------------------------------------------------------------
# W_p, equal weights


def test_wasserstein_shift_is_exact():
    m = random_measure(1, 32)
    shifted = QuantileMeasure(m.quantiles + 0.7)
    for p in (1.0, 2.0, 3.5):
        assert wasserstein_p(m, shifted, p) == pytest.approx(0.7, rel=1e-14)


def test_wasserstein_zero_on_identical():
    m = random_measure(2, 9)
    assert wasserstein_p(m, m, 2.0) == 0.0


def test_wasserstein_validation():
    m = random_measure(3, 4)
    with pytest.raises(ValueError, match="wasserstein_p_clouds"):
        wasserstein_p(m, random_measure(3, 5), 2.0)
    with pytest.raises(ValueError):
        wasserstein_p(m, m, 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_wasserstein_beats_every_pairing(seed):
    gen = np.random.default_rng(seed)
    n = int(gen.integers(2, 7))
    p = float(gen.uniform(1.0, 3.0))
    mu = QuantileMeasure(np.sort(gen.standard_normal(n)))
    nu = QuantileMeasure(np.sort(gen.standard_normal(n)))
    assert wasserstein_p(mu, nu, p) == pytest.approx(
        min_pairing_cost(mu.quantiles, nu.quantiles, p), rel=1e-12
    )


def test_wasserstein_p1_matches_scipy():
    mu = random_measure(4, 40)
    nu = random_measure(5, 40)
    assert wasserstein_p(mu, nu, 1.0) == pytest.approx(
        wasserstein_distance(mu.quantiles, nu.quantiles), rel=1e-12
    )


def test_wasserstein_triangle_inequality():
    a, b, c = (random_measure(s, 25) for s in (6, 7, 8))
    for p in (1.0, 2.0):
        assert wasserstein_p(a, c, p) <= (
            wasserstein_p(a, b, p) + wasserstein_p(b, c, p) + 1e-12
        )


def fsum_wp(x, y, p):
    """Equal-weight W_p of matched atoms: math.fsum of the gaps' p-th powers,
    the gaps scaled by the largest."""
    gaps = [abs(a - b) for a, b in zip(x, y)]
    s = max(gaps)
    return s * (math.fsum((g / s) ** p for g in gaps) / len(gaps)) ** (1 / p)


@pytest.mark.parametrize("p", [700.0, 1000.0])
def test_wasserstein_at_large_p_does_not_underflow(p):
    # mean |dx|^p underflowed to 0.0 here, and W_p read 0.0
    mu, nu = heat_flow_marginal(0.25, 8), heat_flow_marginal(0.5, 8)
    want = fsum_wp(mu.quantiles, nu.quantiles, p)
    w = np.full(8, 1.0 / 8)
    assert wasserstein_p(mu, nu, p) == pytest.approx(want, rel=1e-14)
    assert wasserstein_p_clouds(
        mu.quantiles, w, nu.quantiles, w, p) == pytest.approx(want, rel=1e-14)
    # the same clouds with every atom of one split in two halves
    assert wasserstein_p_clouds(
        np.repeat(mu.quantiles, 2), np.full(16, 1.0 / 16), nu.quantiles, w, p
    ) == pytest.approx(want, rel=1e-14)
    assert wasserstein_p(mu, mu, p) == 0.0
    assert wasserstein_p_clouds(mu.quantiles, w, mu.quantiles, w, p) == 0.0


def test_wasserstein_at_tiny_scale_does_not_underflow():
    mu, nu = QuantileMeasure([0.0, 1e-200]), QuantileMeasure([0.0, 3e-200])
    want = 2e-200 * math.sqrt(0.5)
    assert wasserstein_p(mu, nu, 2.0) == pytest.approx(want, rel=1e-15)
    assert wasserstein_p_clouds(
        mu.quantiles, [0.5, 0.5], nu.quantiles, [0.5, 0.5], 2.0
    ) == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("p,wp,clouds", [
    (100.0, "0x1.40df7c4ad0c3fp-2", "0x1.40df7c4ad0c3fp-2"),
    (500.0, "0x1.44738e6a3b940p-2", "0x1.44738e6a3b93fp-2"),
    (600.0, "0x1.4499f26449432p-2", "0x1.4499f26449431p-2"),
])
def test_wasserstein_keeps_its_bits_where_nothing_underflows(p, wp, clouds):
    # the unscaled root; scaling by the largest gap moved p = 500 by 1 ulp
    mu, nu = heat_flow_marginal(0.25, 8), heat_flow_marginal(0.5, 8)
    w = np.full(8, 1.0 / 8)
    assert wasserstein_p(mu, nu, p).hex() == wp
    assert wasserstein_p_clouds(
        mu.quantiles, w, nu.quantiles, w, p).hex() == clouds


# ---------------------------------------------------------------------------
# W_p, weighted clouds


def test_clouds_agree_with_equal_weight_case():
    mu = random_measure(9, 16)
    nu = random_measure(10, 16)
    w = np.full(16, 1.0 / 16)
    for p in (1.0, 2.0, 4.0):
        assert wasserstein_p_clouds(
            mu.quantiles, w, nu.quantiles, w, p
        ) == pytest.approx(wasserstein_p(mu, nu, p), rel=1e-12)


def test_clouds_weighted_w1_matches_scipy():
    gen = np.random.default_rng(11)
    x, y = gen.standard_normal(5), gen.standard_normal(8)
    wx = gen.uniform(0.1, 1.0, 5)
    wx /= wx.sum()
    wy = gen.uniform(0.1, 1.0, 8)
    wy /= wy.sum()
    assert wasserstein_p_clouds(x, wx, y, wy, 1.0) == pytest.approx(
        wasserstein_distance(x, y, u_weights=wx, v_weights=wy), rel=1e-9
    )


@pytest.mark.parametrize("seed", range(3))
def test_clouds_match_linear_program(seed):
    gen = np.random.default_rng(seed)
    x, y = gen.standard_normal(4), gen.standard_normal(5)
    wx = gen.uniform(0.1, 1.0, 4)
    wx /= wx.sum()
    wy = gen.uniform(0.1, 1.0, 5)
    wy /= wy.sum()
    assert wasserstein_p_clouds(x, wx, y, wy, 2.0) == pytest.approx(
        lp_transport_cost(x, wx, y, wy, 2.0), rel=1e-9, abs=1e-12
    )


def test_clouds_split_atoms_are_the_same_measure():
    d = wasserstein_p_clouds(
        [0.0, 0.0, 1.0], [0.25, 0.25, 0.5], [0.0, 1.0], [0.5, 0.5], 2.0
    )
    assert d == 0.0


def test_clouds_ignore_zero_weight_atoms():
    d = wasserstein_p_clouds(
        [0.0, 99.0, 1.0], [0.5, 0.0, 0.5], [0.0, 1.0], [0.5, 0.5], 2.0
    )
    assert d == 0.0


def test_clouds_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        wasserstein_p_clouds([0.0], [0.5], [0.0], [1.0], 2.0)
    # the same 1e-12 tolerance as PathMeasure
    with pytest.raises(ValueError, match="sum to 1"):
        wasserstein_p_clouds(
            [0.0, 1.0], [0.5, 0.5 + 1e-10], [0.0], [1.0], 2.0
        )
    with pytest.raises(ValueError, match="nonnegative"):
        wasserstein_p_clouds([0.0, 1.0], [1.5, -0.5], [0.0], [1.0], 2.0)
    with pytest.raises(ValueError):
        wasserstein_p_clouds([], [], [0.0], [1.0], 2.0)


# ---------------------------------------------------------------------------
# couplings


def test_monotone_coupling_cost_is_wp():
    mu = random_measure(12, 20)
    nu = random_measure(13, 20)
    coupling = monotone_coupling(mu, nu)
    assert coupling.grid_size == 20
    assert coupling.cost(2.0) == pytest.approx(
        wasserstein_p(mu, nu, 2.0) ** 2, rel=1e-12
    )


def test_monotone_coupling_rejects_unsorted_pairs():
    with pytest.raises(ValueError):
        MonotoneCoupling(np.array([[0.0, 1.0], [1.0, 0.5]]))
    with pytest.raises(ValueError):
        MonotoneCoupling(np.zeros(4))


def test_monotone_coupling_grid_mismatch():
    with pytest.raises(ValueError):
        monotone_coupling(random_measure(0, 3), random_measure(0, 4))


def test_multicoupling_every_pair_is_optimal():
    measures = [random_measure(s, 12) for s in range(5)]
    paths = monotone_multicoupling(measures)
    assert paths.shape == (12, 5)
    for i, j in itertools.combinations(range(5), 2):
        cost = float(np.mean(np.abs(paths[:, i] - paths[:, j]) ** 2))
        assert cost == pytest.approx(
            wasserstein_p(measures[i], measures[j], 2.0) ** 2, rel=1e-12
        )


def test_multicoupling_validation():
    with pytest.raises(ValueError):
        monotone_multicoupling([])
    with pytest.raises(ValueError):
        monotone_multicoupling([random_measure(0, 3), random_measure(0, 4)])


# ---------------------------------------------------------------------------
# serialization


def test_csv_roundtrip_exact():
    m = random_measure(18, 11)
    buf = io.StringIO()
    qm_to_csv(m, buf)
    assert "\r\n" in buf.getvalue()
    clone = qm_from_csv(io.StringIO(buf.getvalue()))
    assert np.array_equal(clone.quantiles, m.quantiles)


def test_csv_rejects_garbage():
    with pytest.raises(ValueError):
        qm_from_csv(io.StringIO("abc\r\n"))
    with pytest.raises(ValueError):
        qm_from_csv(io.StringIO(""))
