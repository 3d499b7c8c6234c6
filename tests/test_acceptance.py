"""Acceptance suite: one test per release criterion.

Each test states its own oracle (closed form, exhaustive enumeration, or
an independent estimator) and, where the criterion fixes one, its runtime
budget. Monte Carlo checks pin their base seeds so reruns are exact.
"""

import itertools
import time

import numpy as np
import pytest

from pathlift import (
    BrownianPath,
    DyadicPath,
    McConfig,
    NormSpec,
    PathMeasure,
    QuantileMeasure,
    build_dyadic_lift,
    build_shuffled_lift,
    coefficient_preset,
    curve_besov_energy,
    embedding_report,
    euler_maruyama,
    expected_wp,
    gaussian_quantile,
    heat_flow_path,
    independent_particle_paths,
    lift_energy,
    marginal_curve_energy,
    midpoint_grid,
    p_variation,
    refine_and_track,
    stochastic_heat_scenario,
    wasserstein_p,
)
from pathlift import _rng

# expected besov energy of the dyadic quantile lift of the randomly
# forced heat flow (p = 4, alpha = 0.3, depth 8): per cell at level m,
# E[(dW + c dsqrt(t))^4] with the atom moments replaced by their
# population values 1 and 3 gives 3 (dsqrt(t)^2 + dt)^2
SHE_QUANTILE_ENERGY = 20.2504948822665
# same quantity for the independent-noise lift W + B: increments are
# N(0, 2 dt), so each level-m cell contributes 3 (2 * 2^-m)^2
SHE_INDEPENDENT_ENERGY = 28.000382601514833


def _she_quantile_closed_form(depth: int, alpha: float, p: float) -> float:
    total = 0.0
    for m in range(depth + 1):
        h = 2.0 ** -m
        a = np.diff(np.sqrt(np.linspace(0.0, 1.0, 2 ** m + 1)))
        total += 2.0 ** (m * (alpha * p - 1.0)) * float(
            np.sum(3.0 * (a ** 2 + h) ** 2)
        )
    return total


def _she_independent_closed_form(depth: int, alpha: float, p: float) -> float:
    return sum(
        2.0 ** (m * (alpha * p - 1.0)) * 2 ** m * 3.0 * (2.0 * 2.0 ** -m) ** 2
        for m in range(depth + 1)
    )


def test_criterion_01_wasserstein_matches_exhaustive_pairings():
    start = time.perf_counter()
    gen = np.random.default_rng(11)
    for _ in range(200):
        n = int(gen.integers(2, 7))
        xs = np.sort(gen.standard_normal(n))
        ys = np.sort(gen.standard_normal(n))
        p = float(gen.uniform(1.0, 3.0))
        best = min(
            sum(abs(xs[i] - ys[j]) ** p for i, j in enumerate(perm)) / n
            for perm in itertools.permutations(range(n))
        )
        w = wasserstein_p(QuantileMeasure(xs), QuantileMeasure(ys), p)
        assert abs(w ** p - best) <= 1e-12
    assert time.perf_counter() - start < 1.0


def test_criterion_02_heat_lift_attains_curve_energy_shuffle_does_not():
    start = time.perf_counter()
    spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    mp = heat_flow_path(8, 256)
    quantile = build_dyadic_lift(mp, 8)
    le = lift_energy(quantile, spec)
    assert abs(le - curve_besov_energy(mp, 0.6, 2.0)) <= 1e-9
    shuffled = build_shuffled_lift(mp, seed=2)
    assert lift_energy(shuffled, spec) > le
    assert time.perf_counter() - start < 5.0


def test_criterion_03_she_per_seed_identity_and_mc_mean():
    start = time.perf_counter()
    alpha, p, depth, atoms = 0.3, 4.0, 8, 1024
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    closed = _she_quantile_closed_form(depth, alpha, p)
    assert closed == pytest.approx(SHE_QUANTILE_ENERGY, abs=1e-10)

    n_mc = 10_000
    energies = np.empty(n_mc)
    for i in range(n_mc):
        sd = _rng.derive_seed(31, i)
        scn = stochastic_heat_scenario(sd, depth, atoms, with_lift=(i < 100))
        energies[i] = curve_besov_energy(scn.measure_path, alpha, p)
        if i < 100:
            # samplewise: the quantile lift's energy IS the curve's energy
            assert abs(lift_energy(scn.lift, spec) - energies[i]) <= 1e-9
    mean = float(energies.mean())
    se = float(energies.std(ddof=1)) / np.sqrt(n_mc)
    assert abs(mean - closed) <= 3.0 * se
    assert time.perf_counter() - start < 120.0


def test_criterion_04_independent_lift_beats_closed_form_not_quantile():
    alpha, p, depth = 0.3, 4.0, 8
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    closed = _she_independent_closed_form(depth, alpha, p)
    assert closed == pytest.approx(SHE_INDEPENDENT_ENERGY, abs=1e-10)

    n_mc = 10_000
    vals = np.empty(n_mc)
    for i in range(n_mc):
        sd = _rng.derive_seed(32, i)
        scn = stochastic_heat_scenario(sd, depth, 8)
        pm = independent_particle_paths(scn, _rng.derive_seed(sd, 1), count=8)
        vals[i] = lift_energy(pm, spec)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1)) / np.sqrt(n_mc)
    assert abs(mean - closed) <= 3.0 * se
    # the suboptimal lift sits strictly above the quantile lift's energy
    assert mean - 3.0 * se > SHE_QUANTILE_ENERGY


def test_criterion_05_lag_exponent_is_half_and_terminal_distance_sqrt2():
    depth, atoms = 8, 256
    cgrid = gaussian_quantile(midpoint_grid(atoms))
    cfg = McConfig(n_mc=10_000, base_seed=41)

    def pair_sampler(s, t):
        i0 = int(round(s * 2 ** depth))
        i1 = int(round(t * 2 ** depth))

        def sampler(seed):
            wv = BrownianPath(seed=seed, depth=depth).values[:, 0]
            return (
                QuantileMeasure(wv[i0] + np.sqrt(s) * cgrid),
                QuantileMeasure(wv[i1] + np.sqrt(t) * cgrid),
            )

        return sampler

    lags = [2.0 ** -k for k in range(2, 9)]
    dists = [
        expected_wp(pair_sampler(0.25, 0.25 + h), 4.0, cfg).mean for h in lags
    ]
    slope = float(np.polyfit(np.log(lags), np.log(dists), 1)[0])
    assert 0.45 <= slope <= 0.55

    terminal = expected_wp(pair_sampler(0.0, 1.0), 2.0, cfg)
    assert abs(terminal.mean - np.sqrt(2.0)) <= 3.0 * terminal.std_error


def test_criterion_06_marginal_energies_never_exceed_lift_energies():
    gen = np.random.default_rng(6)
    specs = (
        NormSpec(kind="besov", p=2.0, alpha=0.6),
        NormSpec(kind="holder", p=2.0, gamma=0.4),
        NormSpec(kind="pvar", p=2.0),
    )
    for _ in range(500):
        depth = int(gen.integers(1, 4))
        n = int(gen.integers(2, 8))
        paths = gen.standard_normal((n, 2 ** depth + 1, 1))
        if gen.uniform() < 0.5:
            w = np.full(n, 1.0 / n)
        else:
            w = gen.uniform(0.1, 1.0, n)
            w /= w.sum()
            w[-1] = 1.0 - float(w[:-1].sum())
        pi = PathMeasure(depth=depth, paths=paths, weights=w)
        for spec in specs:
            assert (
                marginal_curve_energy(pi, spec) <= lift_energy(pi, spec) + 1e-10
            )


def test_criterion_07_embedding_bounds_hold_on_gaussian_paths():
    start = time.perf_counter()
    k = 2 ** 10
    scale = np.sqrt(1.0 / k)
    for s in range(1024):
        g = np.random.default_rng(s)
        vals = np.concatenate([[0.0], np.cumsum(g.standard_normal(k))]) * scale
        path = DyadicPath(10, vals)
        low = embedding_report(path, alpha=0.3, p=4.0, include_pvar=False)
        high = embedding_report(path, alpha=0.6, p=2.0, include_pvar=False)
        assert low.ok, low.violations
        assert high.ok, high.violations
    assert time.perf_counter() - start < 30.0


def test_criterion_08_refinement_energies_nondecreasing_and_bounded():
    heat_spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    rows = refine_and_track(
        lambda n: heat_flow_path(n, 128), heat_spec, n_max=6
    )
    assert [r.n for r in rows] == list(range(7))
    for a, b in zip(rows, rows[1:]):
        assert a.energy <= b.energy + 1e-12
    assert all(r.ok for r in rows)

    she_spec = NormSpec(kind="besov", p=4.0, alpha=0.3)
    rows = refine_and_track(
        lambda n: stochastic_heat_scenario(5, n, 128).measure_path,
        she_spec,
        n_max=6,
    )
    for a, b in zip(rows, rows[1:]):
        assert a.energy <= b.energy + 1e-12
    assert all(r.ok for r in rows)


def _form2_deviation(w: BrownianPath, q: float, substeps: int, t0: float):
    """Sup distance of the Euler path from c(q) sqrt(t) + W_t, t >= t0."""
    c = float(gaussian_quantile(q))
    w_fine = w.refine(int(np.log2(substeps))).values[:, 0]
    x_start = c * np.sqrt(t0) + w_fine[int(round(t0 * substeps))]
    path = euler_maruyama(
        coefficient_preset("she-form2"), w, seed_b=1, x0=[x_start],
        substeps=substeps, t0=t0,
    )
    times = path.times()
    mask = times >= t0
    ref = c * np.sqrt(times[mask]) + w.values[mask, 0]
    return float(np.max(np.abs(path.values[mask, 0] - ref)))


def test_criterion_09_euler_stays_near_quantile_curve_and_halves():
    t0 = 2.0 ** -10
    for seed in range(20):
        w = BrownianPath(seed=seed, depth=8)
        for q in (0.1, 0.5, 0.9):
            dev = _form2_deviation(w, q, 2 ** 12, t0)
            assert dev < 5e-2
            # first-order scheme: doubling the steps halves the error;
            # the median starts on the curve exactly, so no ratio there
            if dev > 1e-8:
                ratio = _form2_deviation(w, q, 2 ** 13, t0) / dev
                assert 0.375 <= ratio <= 0.625


def _pvar_exhaustive(path: DyadicPath, p: float) -> float:
    """Max over every dissection, accumulated left to right like the DP."""
    vals = path.values
    n = vals.shape[0]
    powd = np.zeros((n, n))
    for i in range(n - 1):
        diff = vals[i + 1 :] - vals[i]
        powd[i, i + 1 :] = np.sqrt(np.einsum("kd,kd->k", diff, diff)) ** p
    best = 0.0

    def extend(i, acc):
        nonlocal best
        if i == n - 1:
            best = max(best, acc)
            return
        for j in range(i + 1, n):
            extend(j, acc + powd[i, j])

    extend(0, 0.0)
    return best ** (1.0 / p)


def test_criterion_10_pvar_dp_equals_exhaustive_enumeration():
    gen = np.random.default_rng(10)
    checked = 0
    for depth in (1, 2, 3, 4):
        for _ in range(25):
            dim = int(gen.integers(1, 3))
            steps = gen.standard_normal((2 ** depth + 1, dim))
            path = DyadicPath(depth, np.cumsum(steps, axis=0))
            p = float(gen.uniform(1.0, 3.5))
            assert p_variation(path, p) == _pvar_exhaustive(path, p)
            checked += 1
    assert checked == 100
