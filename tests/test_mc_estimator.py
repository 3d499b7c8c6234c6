"""Monte Carlo layer: seed schedules, estimators, lift comparisons."""

import math

import numpy as np
import pytest

from pathlift import (
    EnergyEstimate,
    McConfig,
    MeasurePathSample,
    NormSpec,
    PathMeasure,
    QuantileMeasure,
    build_dyadic_lift,
    build_shuffled_lift,
    compare_lifts,
    curve_besov_energy,
    curve_energy,
    estimate_to_json,
    expected_lift_energy,
    expected_wp,
    heat_flow_marginal,
    heat_flow_path,
    independent_particle_paths,
    lift_energy,
    marginal_curve_energy,
    process_besov_energy,
    quantile_particle_paths,
    scenario_seeds,
    stochastic_heat_scenario,
    wasserstein_p,
)
from pathlift import _rng, mc_estimator

SPEC = NormSpec(kind="besov", p=2.0, alpha=0.6)


def she_curve(seed, depth=4, n=16):
    return stochastic_heat_scenario(seed, depth, n).measure_path


def she_quantile_lift(seed, depth=4, n=16):
    return quantile_particle_paths(stochastic_heat_scenario(seed, depth, n), n)


# ---------------------------------------------------------------------------
# configs and seed schedule


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(n_mc=0, base_seed=1)
    with pytest.raises(ValueError):
        EnergyEstimate(mean=1.0, std_error=-0.1, n=3)
    with pytest.raises(ValueError):
        EnergyEstimate(mean=1.0, std_error=float("nan"), n=3)


def test_seed_schedule_is_deterministic_and_distinct():
    cfg = McConfig(n_mc=50, base_seed=123)
    seeds = scenario_seeds(cfg)
    assert seeds == scenario_seeds(cfg)
    assert len(set(seeds)) == 50
    assert seeds[0] == _rng.derive_seed(123, 0)
    # a prefix of a longer schedule: runs can be extended without redoing work
    assert scenario_seeds(McConfig(n_mc=10, base_seed=123)) == seeds[:10]


# ---------------------------------------------------------------------------
# expected_wp


def test_expected_wp_deterministic_sampler():
    mu = heat_flow_marginal(0.25, 32)
    nu = heat_flow_marginal(1.0, 32)
    cfg = McConfig(n_mc=8, base_seed=0)
    est = expected_wp(lambda seed: (mu, nu), 2.0, cfg)
    assert est.mean == pytest.approx(wasserstein_p(mu, nu, 2.0), rel=1e-14)
    assert est.std_error == 0.0
    assert est.n == 8
    assert est.spec is None


def test_expected_wp_identical_marginals():
    mu = heat_flow_marginal(0.5, 16)
    est = expected_wp(lambda seed: (mu, mu), 3.0, McConfig(n_mc=4, base_seed=1))
    assert est.mean == 0.0
    assert est.std_error == 0.0


def test_expected_wp_single_sample_has_zero_se():
    mu = heat_flow_marginal(0.5, 16)
    nu = heat_flow_marginal(1.0, 16)
    est = expected_wp(lambda seed: (mu, nu), 2.0, McConfig(n_mc=1, base_seed=2))
    assert est.std_error == 0.0


def test_power_of_two_scaling_leaves_the_std_bit_identical():
    # what lets _estimate scale small values up before np.std
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(2, 50))
        scale = 10.0 ** rng.uniform(-5, 5)
        x = scale * (rng.uniform(-1, 1) + rng.standard_normal(n))
        e = int(rng.integers(-60, 61))
        assert np.std(np.ldexp(x, e), ddof=1) == np.ldexp(np.std(x, ddof=1), e)


def test_standard_error_of_tiny_values_does_not_underflow():
    values = np.array([1.0, 2.5, 3.0, 7.0])
    est = mc_estimator._estimate(values, None)
    # the squared deviations of these, about 1e-362, underflow to 0
    tiny = mc_estimator._estimate(np.ldexp(values, -600), None)
    assert tiny.mean == math.ldexp(est.mean, -600)
    assert tiny.std_error == math.ldexp(est.std_error, -600) > 0
    # never scaled down: a spread past the float range stays inf
    with np.errstate(over="ignore"):
        huge = mc_estimator._estimate(np.array([1e300, -1e300]), None)
    assert huge.std_error == math.inf


def test_expected_wp_is_seed_driven():
    def sampler(seed):
        x = np.sort(_rng.stream(seed, "x").standard_normal(16))
        return QuantileMeasure(x), heat_flow_marginal(1.0, 16)

    cfg = McConfig(n_mc=6, base_seed=3)
    a = expected_wp(sampler, 2.0, cfg)
    b = expected_wp(sampler, 2.0, cfg)
    c = expected_wp(sampler, 2.0, McConfig(n_mc=6, base_seed=4))
    assert a == b
    assert a.mean != c.mean
    assert a.std_error > 0


# ---------------------------------------------------------------------------
# curve and lift energies


def test_curve_besov_energy_matches_lift_identity():
    mp = heat_flow_path(4, 32)
    pi = build_dyadic_lift(mp, 4)
    assert curve_besov_energy(mp, 0.6, 2.0) == pytest.approx(
        lift_energy(pi, SPEC), rel=1e-12
    )
    assert curve_energy(mp, SPEC) == curve_besov_energy(mp, 0.6, 2.0)


@pytest.mark.parametrize("kind,extra", [
    ("holder", {"gamma": 0.4}),
    ("pvar", {}),
])
def test_curve_energy_agrees_with_lift_marginal_route(kind, extra):
    mp = she_curve(5)
    pi = build_dyadic_lift(mp, 4)
    spec = NormSpec(kind=kind, p=2.0, **extra)
    assert curve_energy(mp, spec) == pytest.approx(
        marginal_curve_energy(pi, spec), rel=1e-12
    )


def test_curve_energy_rejects_frac_sobolev():
    with pytest.raises(ValueError):
        curve_energy(she_curve(6), NormSpec(kind="frac_sobolev", p=2.0, alpha=0.6))


def test_process_besov_energy_deterministic():
    mp = heat_flow_path(3, 16)
    cfg = McConfig(n_mc=5, base_seed=7)
    est = process_besov_energy(lambda seed: mp, 0.6, 2.0, cfg)
    assert est.mean == pytest.approx(curve_besov_energy(mp, 0.6, 2.0), rel=1e-14)
    assert est.std_error == 0.0
    assert est.spec == NormSpec(kind="besov", p=2.0, alpha=0.6)


def test_expected_lift_energy_deterministic():
    pi = build_dyadic_lift(heat_flow_path(3, 16), 3)
    cfg = McConfig(n_mc=3, base_seed=8)
    est = expected_lift_energy(lambda seed: pi, SPEC, cfg)
    assert est.mean == pytest.approx(lift_energy(pi, SPEC), rel=1e-14)
    assert est.std_error == 0.0


def test_exchange_identity_holds_per_seed():
    # E[curve energy] and E[quantile lift energy] use the same seeds, and
    # the per-seed values coincide, so the estimates must agree exactly
    cfg = McConfig(n_mc=5, base_seed=9)
    curve_est = process_besov_energy(she_curve, 0.6, 2.0, cfg)
    lift_est = expected_lift_energy(she_quantile_lift, SPEC, cfg)
    assert lift_est.mean == pytest.approx(curve_est.mean, rel=1e-10)
    assert lift_est.std_error == pytest.approx(curve_est.std_error, rel=1e-8)


def test_standard_error_shrinks_at_root_n():
    def sampler(seed):
        vals = _rng.stream(seed, "x").standard_normal((2, 2, 1))
        return PathMeasure(depth=0, paths=vals, weights=np.array([0.5, 0.5]))

    sizes = (100, 400, 1600)
    ses = [
        expected_lift_energy(
            sampler, SPEC, McConfig(n_mc=n, base_seed=10)
        ).std_error
        for n in sizes
    ]
    slope = np.polyfit(np.log(sizes), np.log(ses), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


# ---------------------------------------------------------------------------
# compare_lifts


def test_compare_identical_lifts_attains_marginal():
    cfg = McConfig(n_mc=4, base_seed=11)
    res = compare_lifts(
        she_quantile_lift, she_quantile_lift, she_curve, SPEC, cfg
    )
    assert res.lower_bound_ok
    assert res.attains_marginal
    assert res.energy_a == res.energy_b


def test_compare_quantile_vs_shuffled():
    def shuffled(seed):
        return build_shuffled_lift(she_curve(seed), seed=seed)

    cfg = McConfig(n_mc=6, base_seed=12)
    res = compare_lifts(she_quantile_lift, shuffled, she_curve, SPEC, cfg)
    assert res.smaller == "a"
    assert res.attains_marginal
    assert res.lower_bound_ok
    assert res.energy_b.mean > 1.5 * res.marginal_energy.mean


def test_compare_rejects_marginal_mismatch():
    def wrong(seed):
        return she_quantile_lift(seed + 1)

    cfg = McConfig(n_mc=2, base_seed=13)
    with pytest.raises(ValueError, match="does not match") as info:
        compare_lifts(she_quantile_lift, wrong, she_curve, SPEC, cfg)
    # the message names the scenario and the seed that replays it alone
    seed = scenario_seeds(cfg)[0]
    assert f"in scenario 0 (seed {seed})" in str(info.value)


def test_compare_independent_lift_needs_loose_marginal_tol():
    # the count-64 empirical marginals sit O(count^-1/2) from N(W_t, t),
    # far beyond the 1e-8 spot-check tolerance, which nothing loosens
    depth, n = 6, 64

    def curve(seed):
        return she_curve(seed, depth, n)

    def quantile(seed):
        return she_quantile_lift(seed, depth, n)

    def independent(seed):
        scenario = stochastic_heat_scenario(seed, depth, n)
        return independent_particle_paths(scenario, seed2=seed + 1, count=n)

    cfg = McConfig(n_mc=10, base_seed=14)
    with pytest.raises(ValueError, match="does not match"):
        compare_lifts(quantile, independent, curve, SPEC, cfg)


# ---------------------------------------------------------------------------
# the scenario driver: failures name their scenario, rows replay alone


def _fails_at(i, cfg, good, bad):
    """A sampler: bad(seed) at scenario i of cfg, good(seed) elsewhere."""
    seed_i = scenario_seeds(cfg)[i]
    return lambda seed: bad(seed) if seed == seed_i else good(seed)


def _curve_2d(seed):
    mp = she_curve(seed)
    atoms = np.concatenate([mp.atoms, mp.atoms], axis=2)
    return MeasurePathSample(atoms)


def _bad_weights(seed):
    pi = she_quantile_lift(seed)
    return PathMeasure(depth=pi.depth, paths=pi.paths, weights=2 * pi.weights)


@pytest.mark.parametrize("estimate,good,bad,message", [
    (
        lambda s, cfg: expected_wp(s, 2.0, cfg),
        lambda seed: (heat_flow_marginal(0.5, 16), heat_flow_marginal(1, 16)),
        lambda seed: (heat_flow_marginal(0.5, 16), heat_flow_marginal(1, 8)),
        "grid sizes differ",
    ),
    (
        lambda s, cfg: process_besov_energy(s, 0.6, 2.0, cfg),
        she_curve, _curve_2d, "one-dimensional marginals",
    ),
    (
        lambda s, cfg: expected_lift_energy(s, SPEC, cfg),
        she_quantile_lift, _bad_weights, "weights must sum to 1",
    ),
], ids=["expected_wp", "process_besov_energy", "expected_lift_energy"])
def test_every_estimator_names_its_failing_scenario(estimate, good, bad,
                                                    message):
    cfg = McConfig(n_mc=4, base_seed=21)
    with pytest.raises(ValueError, match=message) as info:
        estimate(_fails_at(2, cfg, good, bad), cfg)
    seed = scenario_seeds(cfg)[2]
    assert str(info.value).endswith(f" in scenario 2 (seed {seed})")


def test_expected_lift_energy_refuses_an_overflowing_scenario():
    cfg = McConfig(n_mc=3, base_seed=22)

    def lift(scale):
        paths = np.array([[[0.0], [scale]], [[0.0], [-scale]]])
        return PathMeasure(depth=0, paths=paths, weights=np.array([0.5, 0.5]))

    # |1e200|^2 overflows to inf in scenario 1 only
    sampler = _fails_at(
        1, cfg, lambda seed: lift(1.0), lambda seed: lift(1e200)
    )
    with pytest.raises(ValueError, match="non-finite value inf") as info:
        with np.errstate(over="ignore"):
            expected_lift_energy(sampler, SPEC, cfg)
    assert f"in scenario 1 (seed {scenario_seeds(cfg)[1]})" in str(info.value)


def record_scenario_values(monkeypatch):
    """The arrays the estimators' driver returns, in call order."""
    runs = []
    driver = mc_estimator._scenario_values

    def recorded(value, cfg):
        runs.append(driver(value, cfg))
        return runs[-1]

    monkeypatch.setattr(mc_estimator, "_scenario_values", recorded)
    return runs


def test_compare_lifts_rows_replay_alone(monkeypatch):
    def shuffled(seed):
        return build_shuffled_lift(she_curve(seed), seed=seed)

    runs = record_scenario_values(monkeypatch)
    cfg = McConfig(n_mc=5, base_seed=23)
    compare_lifts(she_quantile_lift, shuffled, she_curve, SPEC, cfg)
    (values,) = runs
    assert values.shape == (5, 3)
    for i in range(cfg.n_mc):
        seed = _rng.derive_seed(cfg.base_seed, i)
        row = np.array([
            lift_energy(she_quantile_lift(seed), SPEC),
            lift_energy(shuffled(seed), SPEC),
            curve_energy(she_curve(seed), SPEC),
        ])
        assert values[i].tobytes() == row.tobytes(), i


def test_expected_wp_rows_replay_alone(monkeypatch):
    def sampler(seed):
        x = np.sort(_rng.stream(seed, "x").standard_normal(16))
        return QuantileMeasure(x), heat_flow_marginal(1.0, 16)

    runs = record_scenario_values(monkeypatch)
    cfg = McConfig(n_mc=6, base_seed=24)
    expected_wp(sampler, 3.0, cfg)
    (values,) = runs
    for i in range(cfg.n_mc):
        mu, nu = sampler(_rng.derive_seed(cfg.base_seed, i))
        w_pp = np.float64(wasserstein_p(mu, nu, 3.0) ** 3.0)
        assert values[i].tobytes() == w_pp.tobytes(), i


# ---------------------------------------------------------------------------
# JSON


def test_estimate_to_json_fields():
    cfg = McConfig(n_mc=3, base_seed=19)
    est = EnergyEstimate(mean=2.5, std_error=0.1, n=3, spec=SPEC)
    obj = estimate_to_json(est, cfg)
    assert obj["estimate"] == 2.5
    assert obj["config"] == {"n_mc": 3, "base_seed": 19}
    assert obj["norm"]["kind"] == "besov"
    assert "blake2b" in obj["seed_rule"] or "/" in obj["seed_rule"]


def test_estimate_to_json_without_spec():
    est = EnergyEstimate(mean=0.5, std_error=0.0, n=1)
    obj = estimate_to_json(est, McConfig(n_mc=1, base_seed=20))
    assert "norm" not in obj
