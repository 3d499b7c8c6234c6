"""Brownian fixtures, particle representations and the SDE integrator."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from pathlift import (
    BrownianPath,
    DivergenceError,
    NormSpec,
    ParabolicityError,
    ParticleEnsemble,
    PathMeasure,
    QuantileMeasure,
    ScenarioSample,
    SdeCoefficients,
    brownian_bundle,
    build_dyadic_lift,
    coefficient_preset,
    euler_flow,
    euler_maruyama,
    gaussian_quantile,
    heat_flow_marginal,
    heat_flow_path,
    independent_particle_paths,
    lift_energy,
    marginal,
    midpoint_grid,
    parabolicity_and_alpha,
    preset_names,
    quantile_particle_paths,
    scenario_to_json,
    sfpe_holder_exponent,
    sfpe_p_energy,
    stochastic_heat_scenario,
    wasserstein_p,
)
from pathlift import _rng
from pathlift.lift_builder import MeasurePathSample
from pathlift.processes import _bridge_values
from process_oracles import euler_flow_loop


def zero_coeffs():
    return SdeCoefficients(
        drift=lambda t, x, w: np.zeros_like(x),
        diffusion_a=lambda t, x, w: np.zeros((x.shape[-1],) * 2),
        common_sigma=lambda t, x, w: np.zeros((x.shape[-1],) * 2),
        name="frozen",
    )


# ---------------------------------------------------------------------------
# gaussian quantile


def test_gaussian_quantile_frozen_values():
    assert gaussian_quantile(0.8413) == pytest.approx(
        0.9998150936147445, abs=1e-14
    )
    assert gaussian_quantile(0.975) == pytest.approx(
        1.959963984540054, abs=1e-14
    )
    assert gaussian_quantile(0.5) == 0.0


def test_gaussian_quantile_symmetry_and_domain():
    u = np.array([0.01, 0.2, 0.77])
    assert gaussian_quantile(u) == pytest.approx(
        -gaussian_quantile(1.0 - u), abs=1e-12
    )
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            gaussian_quantile(bad)


# ---------------------------------------------------------------------------
# Brownian bridge refinement


def test_brownian_path_starts_at_zero():
    w = BrownianPath(seed=1, depth=5)
    assert w.values[0, 0] == 0.0
    assert w.path.depth == 5


def test_refine_preserves_coarse_values_exactly():
    w = BrownianPath(seed=2, depth=4)
    fine = w.refine(7)
    assert np.array_equal(fine.values[:: 2 ** 3], w.values)
    with pytest.raises(ValueError, match="deepens"):
        fine.refine(3)


def test_brownian_path_is_seed_keyed():
    a = BrownianPath(seed=3, depth=3)
    b = BrownianPath(seed=3, depth=3)
    c = BrownianPath(seed=4, depth=3)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_brownian_streams_are_independent_names():
    w = BrownianPath(seed=5, depth=3)
    bundle = brownian_bundle(seed=5, depth=3, count=1)
    assert not np.array_equal(bundle.paths[0], w.values)


SEEDS = (0, 7, 2 ** 64 - 1)


def bridge_per_stream(seed, stream, depth, dim, count=None):
    """The bridge built with a new ``_rng.stream`` for every level."""
    n = 1 if count is None else count
    values = np.zeros((n, 2, dim))
    values[:, 1, :] = _rng.stream(seed, f"{stream}/L0").standard_normal((n, dim))
    for m in range(1, depth + 1):
        k = values.shape[1] - 1
        z = _rng.stream(seed, f"{stream}/L{m}").standard_normal((n, k, dim))
        mids = (0.5 * (values[:, :-1] + values[:, 1:])
                + np.sqrt(2.0 ** -m / 2.0) * z)
        nxt = np.empty((n, 2 * k + 1, dim))
        nxt[:, 0::2] = values
        nxt[:, 1::2] = mids
        values = nxt
    return values[0] if count is None else values


@pytest.mark.parametrize("count", [None, 8])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("seed", SEEDS)
def test_bridge_matches_a_new_stream_per_level(seed, dim, count):
    for depth in range(13):
        assert np.array_equal(
            _bridge_values(seed, "W", depth, dim, count),
            bridge_per_stream(seed, "W", depth, dim, count),
        ), depth


@pytest.mark.parametrize("seed", SEEDS)
def test_streams_draw_what_stream_draws(seed):
    names = ["W/L0", "W/L1", "shuffle/17", "B/L3", ""]
    drawn = []
    for gen, name in zip(_rng.streams(seed, names), names):
        drawn.append((gen.standard_normal(5),
                      gen.integers(0, 2 ** 31, size=3, dtype=np.uint32)))
        # leaves half a 64-bit word buffered for the next uint32 draw
        assert gen.bit_generator.state["has_uint32"] == 1
    for (normals, ints), name in zip(drawn, names):
        ref = _rng.stream(seed, name)
        assert np.array_equal(normals, ref.standard_normal(5))
        assert np.array_equal(
            ints, ref.integers(0, 2 ** 31, size=3, dtype=np.uint32)
        )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2 ** 64 - 1),
    depth=st.integers(0, 9),
    extra=st.integers(1, 4),
    dim=st.integers(1, 2),
    count=st.sampled_from([None, 3]),
)
def test_refining_a_bridge_keeps_its_coarse_values(
    seed, depth, extra, dim, count
):
    coarse = _bridge_values(seed, "W", depth, dim, count)
    fine = _bridge_values(seed, "W", depth + extra, dim, count)
    assert np.array_equal(fine[..., :: 2 ** extra, :], coarse)


def test_brownian_increment_statistics():
    depth = 4
    pi = brownian_bundle(seed=6, depth=depth, count=4000)
    incr = np.diff(pi.paths[:, :, 0], axis=1).ravel()
    dt = 2.0 ** -depth
    assert float(np.mean(incr)) == pytest.approx(0.0, abs=0.002)
    assert float(np.var(incr)) == pytest.approx(dt, rel=0.1)


def test_brownian_bundle_validation():
    with pytest.raises(ValueError):
        brownian_bundle(seed=0, depth=2, count=0)


def test_brownian_path_dim_2():
    w = BrownianPath(seed=7, depth=3, dim=2)
    assert w.values.shape == (9, 2)
    assert w.path.dim == 2


# ---------------------------------------------------------------------------
# heat flow fixtures


def test_heat_flow_marginal_at_zero_is_a_point_mass():
    m = heat_flow_marginal(0.0, 32)
    assert np.array_equal(m.quantiles, np.zeros(32))
    with pytest.raises(ValueError):
        heat_flow_marginal(-0.5, 4)


def test_heat_flow_marginal_scales_like_sqrt_t():
    base = ndtri(midpoint_grid(64))
    assert np.array_equal(heat_flow_marginal(1.0, 64).quantiles, base)
    assert np.array_equal(heat_flow_marginal(4.0, 64).quantiles, 2.0 * base)


def test_heat_flow_wasserstein_closed_form():
    # W_2(N(0,s), N(0,t)) = |sqrt(t) - sqrt(s)| at quantile resolution
    n = 128
    m2 = float(np.mean(ndtri(midpoint_grid(n)) ** 2))
    for s, t in ((0.0, 1.0), (0.25, 1.0), (0.5, 0.75)):
        got = wasserstein_p(heat_flow_marginal(s, n), heat_flow_marginal(t, n), 2.0)
        assert got == pytest.approx(
            abs(np.sqrt(t) - np.sqrt(s)) * np.sqrt(m2), rel=1e-12
        )


def test_heat_flow_path_structure():
    mp = heat_flow_path(3, 16)
    assert mp.level == 3
    assert mp.atoms.shape == (9, 16, 1)
    assert mp.is_quantile
    assert np.array_equal(mp.atoms[0, :, 0], np.zeros(16))


# ---------------------------------------------------------------------------
# stochastic heat scenario


def test_scenario_marginals_track_the_common_path():
    s = stochastic_heat_scenario(seed=11, depth=4, n=33)
    w = s.common_path.values[:, 0]
    # at t = 0 the marginal is the point mass at W_0 = 0
    assert np.array_equal(s.measure_path.atoms[0, :, 0], np.zeros(33))
    for k, t in enumerate(s.measure_path.times):
        mean = float(np.mean(s.measure_path.atoms[k]))
        assert mean == pytest.approx(w[k], abs=1e-10)


def test_scenario_with_lift_attaches_exact_marginals():
    s = stochastic_heat_scenario(seed=12, depth=3, n=16, with_lift=True)
    assert s.lift is not None
    for k, t in enumerate(s.measure_path.times):
        assert np.array_equal(
            marginal(s.lift, t).quantiles, s.measure_path.atoms[k, :, 0]
        )


def test_quantile_particles_equal_the_lift_pathwise():
    s = stochastic_heat_scenario(seed=13, depth=4, n=15, with_lift=True)
    pi = quantile_particle_paths(s)
    assert np.array_equal(pi.paths, s.lift.paths)
    # the median atom of an odd grid rides the common path exactly
    assert np.array_equal(pi.paths[7, :, 0], s.common_path.values[:, 0])


def test_quantile_particles_custom_atom_count():
    s = stochastic_heat_scenario(seed=14, depth=2, n=8)
    pi = quantile_particle_paths(s, n=5)
    assert pi.n_paths == 5


def test_quantile_particles_require_dim_1():
    s = ScenarioSample(
        seed=0,
        common_path=BrownianPath(seed=0, depth=1, dim=2),
        measure_path=heat_flow_path(1, 4),
    )
    with pytest.raises(ValueError, match="one-dimensional"):
        quantile_particle_paths(s)


def test_independent_particles_zero_noise_collapse_onto_w():
    s = stochastic_heat_scenario(seed=15, depth=5, n=4)
    pi = independent_particle_paths(s, seed2=99, count=7, zero_noise=True)
    for j in range(7):
        assert np.array_equal(pi.paths[j], s.common_path.values)
    with pytest.raises(ValueError):
        independent_particle_paths(s, seed2=99, count=0)


def test_independent_particles_are_seed2_keyed():
    s = stochastic_heat_scenario(seed=16, depth=3, n=4)
    a = independent_particle_paths(s, seed2=1, count=3)
    b = independent_particle_paths(s, seed2=2, count=3)
    assert not np.array_equal(a.paths, b.paths)


def test_quantile_energy_below_independent_energy():
    # same scenario, same besov spec: the monotone coupling can only help
    s = stochastic_heat_scenario(seed=17, depth=6, n=64)
    spec = NormSpec(kind="besov", p=2.0, alpha=0.6)
    quant = lift_energy(quantile_particle_paths(s), spec)
    indep = lift_energy(
        independent_particle_paths(s, seed2=18, count=64), spec
    )
    assert quant < indep


# ---------------------------------------------------------------------------
# parabolicity


def test_parabolicity_scalar_cases():
    full = parabolicity_and_alpha(1.0, 1.0)
    assert full.ok
    assert full.alpha == pytest.approx(np.array([[1.0]]))
    border = parabolicity_and_alpha(0.5, 1.0)
    assert border.ok
    assert border.min_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert border.alpha == pytest.approx(np.zeros((1, 1)), abs=1e-8)
    bad = parabolicity_and_alpha(0.0, 1.0)
    assert not bad.ok
    assert bad.min_eigenvalue == pytest.approx(-1.0)


def test_parabolicity_matrix_root():
    gen = np.random.default_rng(19)
    sigma = gen.standard_normal((3, 3))
    q = gen.standard_normal((3, 3))
    a = 0.5 * (sigma @ sigma.T + q @ q.T)
    check = parabolicity_and_alpha(a, sigma)
    assert check.ok
    assert check.alpha @ check.alpha.T == pytest.approx(
        2.0 * a - sigma @ sigma.T, abs=1e-10
    )


def test_parabolicity_rejects_asymmetric_a():
    with pytest.raises(ValueError, match="symmetric"):
        parabolicity_and_alpha(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError):
        parabolicity_and_alpha(np.eye(2), np.eye(3))


def test_parabolicity_clamps_tiny_negatives():
    check = parabolicity_and_alpha(0.5 - 2e-11, 1.0)
    assert check.ok
    assert check.min_eigenvalue < 0
    assert np.all(np.isfinite(check.alpha))


# ---------------------------------------------------------------------------
# Euler-Maruyama


def test_euler_frozen_coefficients_hold_the_start_value():
    w = BrownianPath(seed=20, depth=3)
    path = euler_maruyama(zero_coeffs(), w, seed_b=0, x0=[2.5], substeps=32)
    assert np.all(path.values == 2.5)
    assert path.depth == 3


def test_euler_form1_zero_noise_rides_the_common_path():
    w = BrownianPath(seed=21, depth=5)
    path = euler_maruyama(
        coefficient_preset("she-form1"), w, seed_b=0, x0=[1.0],
        substeps=2 ** 5, zero_noise=True,
    )
    assert np.max(np.abs(path.values - (w.values + 1.0))) < 1e-12


def test_euler_substep_validation():
    w = BrownianPath(seed=22, depth=4)
    coeffs = zero_coeffs()
    with pytest.raises(ValueError, match="power of two"):
        euler_maruyama(coeffs, w, 0, [0.0], substeps=12)
    with pytest.raises(ValueError, match="refine"):
        euler_maruyama(coeffs, w, 0, [0.0], substeps=8)
    for t0 in (0.3, 1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="substep grid"):
            euler_maruyama(coeffs, w, 0, [0.0], substeps=16, t0=t0)
    with pytest.raises(ValueError, match="dimension"):
        euler_maruyama(coeffs, w, 0, [0.0, 1.0], substeps=16)
    # a start outside the floats is bad input, not a divergence
    with pytest.raises(ValueError, match="finite"):
        euler_maruyama(coeffs, w, 0, [np.inf], substeps=16)


def test_euler_rejects_degenerate_coefficients():
    w = BrownianPath(seed=23, depth=2)
    with pytest.raises(ParabolicityError, match="parabolicity violated at t="):
        euler_maruyama(coefficient_preset("degenerate"), w, 0, [0.0], substeps=4)
    try:
        euler_maruyama(coefficient_preset("degenerate"), w, 0, [0.0], substeps=4)
    except ParabolicityError as exc:
        assert exc.t == 0.0
        assert exc.min_eigenvalue == pytest.approx(-1.0)


def blowup_coeffs():
    """dX = 1e3 X^2 dt, which leaves the finite floats within a few steps."""
    return SdeCoefficients(
        drift=lambda t, x, w: 1e3 * x * x,
        diffusion_a=lambda t, x, w: np.zeros((x.shape[-1],) * 2),
        common_sigma=lambda t, x, w: np.zeros((x.shape[-1],) * 2),
        name="blowup",
    )


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_euler_divergence_names_step_time_and_seeds():
    # the same recursion in Python floats finds the first infinite step
    x, step = 1.0, 0
    while np.isfinite(x):
        x, step = x + 1e3 * x * x / 256, step + 1
    w = BrownianPath(seed=25, depth=2)
    with pytest.raises(DivergenceError, match="diverged") as info:
        euler_maruyama(blowup_coeffs(), w, 77, [1.0], substeps=256)
    exc = info.value
    assert (exc.step, exc.t) == (step, step / 256)
    assert (exc.seed, exc.seed_b) == (25, 77)
    assert "w.seed=25" in str(exc) and "seed_b=77" in str(exc)
    # a state-dependent diffusion sees the non-finite state first; it is
    # still a divergence, not a parabolicity failure
    grows = dataclasses.replace(
        blowup_coeffs(),
        diffusion_a=lambda t, x, w: (
            (1.0 + np.sum(x * x, axis=-1))[:, None, None] * np.eye(x.shape[-1])
        ),
    )
    with pytest.raises(DivergenceError) as info:
        euler_maruyama(grows, w, 77, [1.0], substeps=256)
    assert info.value.step == step


def test_euler_form2_tracks_the_quantile_trajectory():
    # X solves the self-consistent drift form; started on the q = 0.9
    # quantile curve it should stay within the step-size error of
    # c(q) sqrt(t) + W_t (the reference trajectory)
    q = 0.9
    t0 = 2.0 ** -10
    substeps = 2 ** 12
    w = BrownianPath(seed=24, depth=4)
    c = float(gaussian_quantile(q))
    w_fine = w.refine(12).values[:, 0]
    x_start = c * np.sqrt(t0) + w_fine[int(t0 * substeps)]
    path = euler_maruyama(
        coefficient_preset("she-form2"), w, seed_b=1, x0=[x_start],
        substeps=substeps, t0=t0,
    )
    times = path.times()
    mask = times >= t0
    ref = c * np.sqrt(times[mask]) + w.values[mask, 0]
    dev = float(np.max(np.abs(path.values[mask, 0] - ref)))
    assert 0.02 < dev < 0.05


def test_euler_form2_refuses_t0_zero():
    w = BrownianPath(seed=25, depth=2)
    with pytest.raises(ValueError, match="singular"):
        euler_maruyama(coefficient_preset("she-form2"), w, 0, [0.0], substeps=8)


# ---------------------------------------------------------------------------
# stochastic flows: many starts, one W and one B stream


def test_parabolicity_stacks_match_single_matrices():
    gen = np.random.default_rng(30)
    sigma = gen.standard_normal((2, 2))
    q = gen.standard_normal((4, 2, 2))
    a = 0.5 * (sigma @ sigma.T + q @ q.transpose(0, 2, 1))
    a[2] = 0.0  # 2a - sigma sigma^T = -sigma sigma^T fails
    stacked = parabolicity_and_alpha(a, sigma)
    assert not stacked.ok
    assert stacked.alpha.shape == (4, 2, 2)
    assert stacked.min_eigenvalue.shape == (4,)
    for i in range(4):
        one = parabolicity_and_alpha(a[i], sigma)
        assert one.ok == (i != 2)
        assert stacked.min_eigenvalue[i] == pytest.approx(
            one.min_eigenvalue, rel=1e-12, abs=1e-14
        )
        assert stacked.alpha[i] == pytest.approx(one.alpha, abs=1e-12)
    with pytest.raises(ValueError, match="square"):
        parabolicity_and_alpha(np.ones((3, 2, 2)), np.eye(3))


FLOW_PRESETS = [("she-form1", 0.0), ("she-form2", 2.0 ** -6), ("heat", 0.0)]


@pytest.mark.parametrize("zero_noise", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("preset,t0", FLOW_PRESETS)
def test_flow_rows_are_single_runs_bit_for_bit(preset, t0, dim, zero_noise):
    coeffs = coefficient_preset(preset)
    w = BrownianPath(seed=31, depth=4, dim=dim)
    x0s = np.random.default_rng(32).standard_normal((3, dim))
    flow = euler_flow(coeffs, w, 33, x0s, 256, t0=t0, zero_noise=zero_noise)
    assert isinstance(flow, PathMeasure)
    assert flow.paths.shape == (3, 17, dim)
    assert np.all(flow.weights == 1.0 / 3)
    for x0, path in zip(x0s, flow.paths):
        one = euler_maruyama(
            coeffs, w, 33, x0, 256, t0=t0, zero_noise=zero_noise
        )
        assert path.tobytes() == one.values.tobytes()


def state_coeffs():
    """Coefficients that depend on the state, one (d, d) matrix per row.

    2a - sigma sigma^T = (2 + 2|x|^2) I - diag(cos^2 x) >= I.
    """
    return SdeCoefficients(
        drift=lambda t, x, w: np.sin(w) - x,
        diffusion_a=lambda t, x, w: (
            (1.0 + np.sum(x * x, axis=-1))[:, None, None] * np.eye(x.shape[-1])
        ),
        common_sigma=lambda t, x, w: np.cos(x)[:, :, None] * np.eye(x.shape[-1]),
        name="state",
    )


@pytest.mark.parametrize("dim", [1, 2])
def test_flow_with_state_dependent_diffusion_matches_single_runs(dim):
    w = BrownianPath(seed=34, depth=3, dim=dim)
    x0s = np.random.default_rng(35).standard_normal((4, dim))
    flow = euler_flow(state_coeffs(), w, 36, x0s, 64)
    for x0, path in zip(x0s, flow.paths):
        one = euler_maruyama(state_coeffs(), w, 36, x0, 64)
        assert path.tobytes() == one.values.tobytes()
    # every row has its own diffusion, so the rows do not move in lockstep
    assert not np.allclose(np.diff(flow.paths[0], axis=0),
                           np.diff(flow.paths[1], axis=0))


def test_flow_parabolicity_error_names_the_row():
    w = BrownianPath(seed=37, depth=2)
    # 2a - sigma sigma^T = +1 where x > 0 and -1 elsewhere
    one_sided = SdeCoefficients(
        drift=lambda t, x, w: np.zeros_like(x),
        diffusion_a=lambda t, x, w: (x > 0)[:, :, None] * np.eye(1),
        common_sigma=lambda t, x, w: np.eye(1),
        name="one-sided",
    )
    with pytest.raises(ParabolicityError, match="in row 1") as info:
        euler_flow(one_sided, w, 0, [[1.0], [-1.0], [2.0]], 4)
    exc = info.value
    assert (exc.t, exc.row) == (0.0, 1)
    assert exc.x.tolist() == [-1.0]
    assert exc.min_eigenvalue == pytest.approx(-1.0)
    # shared coefficients fail in every row; the first one is named
    with pytest.raises(ParabolicityError, match="in row 0"):
        euler_flow(coefficient_preset("degenerate"), w, 0, [[0.0], [1.0]], 4)
    with pytest.raises(ParabolicityError) as info:
        euler_maruyama(coefficient_preset("degenerate"), w, 0, [0.0], 4)
    assert info.value.row is None and "row" not in str(info.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_flow_divergence_names_the_row():
    x, step = 1.0, 0
    while np.isfinite(x):
        x, step = x + 1e3 * x * x / 256, step + 1
    w = BrownianPath(seed=38, depth=2)
    with pytest.raises(DivergenceError, match="in row 1") as info:
        euler_flow(blowup_coeffs(), w, 77, [[0.0], [1.0], [0.5]], 256)
    exc = info.value
    assert (exc.step, exc.t, exc.row) == (step, step / 256, 1)
    assert (exc.seed, exc.seed_b) == (38, 77)
    with pytest.raises(DivergenceError) as info:
        euler_maruyama(blowup_coeffs(), w, 77, [1.0], substeps=256)
    assert info.value.row is None and "row" not in str(info.value)


def test_flow_validates_starts_and_matrix_shapes():
    w = BrownianPath(seed=39, depth=2, dim=2)
    coeffs = coefficient_preset("heat")
    for bad in ([0.0, 1.0], np.zeros((0, 2)), [[0.0, 1.0, 2.0]],
                [[0.0, np.nan]]):
        with pytest.raises(ValueError, match="finite vectors of dimension 2"):
            euler_flow(coeffs, w, 0, bad, 4)
    one_by_one = dataclasses.replace(
        coeffs,
        diffusion_a=lambda t, x, w: np.eye(1),
        common_sigma=lambda t, x, w: np.zeros((1, 1)),
    )
    with pytest.raises(ValueError, match=r"\(2, 2\) or \(3, 2, 2\)"):
        euler_flow(one_by_one, w, 0, np.zeros((3, 2)), 4)


# ---------------------------------------------------------------------------
# the stepping loop against its per-step reference


@pytest.mark.parametrize("zero_noise", [False, True])
@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize(
    "preset,t0", FLOW_PRESETS + [("she-form1", 0.25), ("heat", 2.0 ** -8)]
)
def test_flow_matches_the_per_step_loop(preset, t0, dim, n, zero_noise):
    coeffs = coefficient_preset(preset)
    w = BrownianPath(seed=40, depth=4, dim=dim)
    x0s = np.random.default_rng(41).standard_normal((n, dim))
    args = (coeffs, w, 42, x0s, 256, t0, zero_noise)
    assert euler_flow(*args).paths.tobytes() == (
        euler_flow_loop(*args).paths.tobytes()
    )


def switching_coeffs(n, dim, per_row):
    """(a, sigma) constant in x that change value at t = 0.3 and t = 0.6.

    sigma = c(t) S and a = (sigma sigma^T + Q Q^T) / 2, so 2a - sigma
    sigma^T = Q Q^T and alpha is a full matrix; with per_row, row i has
    sigma = (i + 1) c(t) S, an (n, d, d) stack.
    """
    gen = np.random.default_rng(43)
    s0, q = gen.standard_normal((2, dim, dim))
    if per_row:
        s0 = np.arange(1.0, n + 1)[:, None, None] * s0
    qq = q @ q.T

    def sigma(t, x, w):
        return (0.5 if t < 0.3 else 2.0 if t < 0.6 else 1.0) * s0

    def a(t, x, w):
        s = sigma(t, x, w)
        return 0.5 * (s @ np.swapaxes(s, -1, -2) + qq)

    return SdeCoefficients(
        drift=lambda t, x, w: np.sin(w) - x, diffusion_a=a,
        common_sigma=sigma, name="switching",
    )


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_flow_matches_the_per_step_loop_when_coefficients_change(dim, n):
    # at 1024 substeps the switches (steps 308 and 615) fall inside spans
    w = BrownianPath(seed=44, depth=5, dim=dim)
    x0s = np.random.default_rng(45).standard_normal((n, dim))
    cases = [state_coeffs(), switching_coeffs(n, dim, False),
             switching_coeffs(n, dim, True)]
    for coeffs in cases:
        for t0 in (0.0, 2.0 ** -5):
            args = (coeffs, w, 46, x0s, 1024, t0)
            assert euler_flow(*args).paths.tobytes() == (
                euler_flow_loop(*args).paths.tobytes()
            )


def counted(coeffs, calls):
    """coeffs with each callable counting its calls into calls[name]."""
    def count(name, f):
        def g(t, x, w):
            calls[name] += 1
            return f(t, x, w)
        return g
    return dataclasses.replace(coeffs, **{
        name: count(name, getattr(coeffs, name))
        for name in ("drift", "diffusion_a", "common_sigma")
    })


@pytest.mark.parametrize("case,checks", [
    ("she-form1", 1), ("she-form2", 1), ("switching", 3), ("state", None),
])
def test_flow_calls_each_coefficient_once_a_step(monkeypatch, case, checks):
    from pathlift import processes

    n_checks = [0]

    def check(a, sigma):
        n_checks[0] += 1
        return parabolicity_and_alpha(a, sigma)

    monkeypatch.setattr(processes, "parabolicity_and_alpha", check)
    if case == "switching":
        coeffs = switching_coeffs(3, 2, True)
    elif case == "state":
        coeffs = state_coeffs()
    else:
        coeffs = coefficient_preset(case)
    calls = dict.fromkeys(("drift", "diffusion_a", "common_sigma"), 0)
    w = BrownianPath(seed=47, depth=3, dim=2)
    euler_flow(counted(coeffs, calls), w, 48, np.ones((3, 2)), 1024,
               t0=2.0 ** -4)
    assert calls == dict.fromkeys(calls, 1024 - 64)
    # state_coeffs change (a, sigma) at every step
    assert n_checks[0] == (1024 - 64 if checks is None else checks)


def test_flow_parabolicity_error_inside_a_span():
    # row 2 turns non-parabolic at t = 0.5, step 512 of a span [511, 1023)
    def sigma(t, x, w):
        s = np.ones((3, 1, 1))
        s[2] = 1.0 if t < 0.5 else 2.0
        return s

    turns = SdeCoefficients(
        drift=lambda t, x, w: np.zeros_like(x),
        diffusion_a=lambda t, x, w: np.eye(1), common_sigma=sigma,
        name="turns",
    )
    w = BrownianPath(seed=49, depth=3)
    args = (turns, w, 50, [[0.0], [1.0], [-1.0]], 1024)
    with pytest.raises(ParabolicityError, match="t=0.5.* in row 2") as info:
        euler_flow(*args)
    with pytest.raises(ParabolicityError) as ref:
        euler_flow_loop(*args)
    exc, ref = info.value, ref.value
    assert (exc.t, exc.row, exc.min_eigenvalue) == (0.5, 2, -2.0)
    assert exc.x.tobytes() == ref.x.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_flow_divergence_inside_a_span():
    # dX = 1.5 X^2 dt from X = 1 first overflows at step 699, inside the
    # span [511, 1023) of coefficients that never change
    x, step = 1.0, 0
    while np.isfinite(x):
        x, step = x + 1.5 * x * x / 1024, step + 1
    assert 511 < step < 1023
    slow = dataclasses.replace(blowup_coeffs(), drift=lambda t, x, w: 1.5 * x * x)
    w = BrownianPath(seed=51, depth=3)
    with pytest.raises(DivergenceError, match="in row 1") as info:
        euler_flow(slow, w, 52, [[0.0], [1.0], [0.5]], 1024)
    exc = info.value
    assert (exc.step, exc.t, exc.row) == (step, step / 1024, 1)
    assert (exc.seed, exc.seed_b) == (51, 52)


# ---------------------------------------------------------------------------
# p-energy and exponent window


def test_sfpe_energy_identity_diffusion():
    mp = heat_flow_path(3, 8)
    e = sfpe_p_energy(
        [mp],
        b_eval=lambda t, xs: np.zeros_like(xs),
        a_eval=lambda t, xs: np.eye(1),
        p=2.0,
    )
    assert e == pytest.approx(1.0, rel=1e-12)


def test_sfpe_energy_zero_coefficients():
    mp = heat_flow_path(2, 4)
    zero_b = lambda t, xs: np.zeros_like(xs)
    zero_a = lambda t, xs: np.zeros((1, 1))
    assert sfpe_p_energy([mp], zero_b, zero_a, p=3.0) == 0.0


def test_sfpe_energy_constant_drift():
    mp = heat_flow_path(2, 4)
    zero_a = lambda t, xs: np.zeros((1, 1))
    e = sfpe_p_energy([mp], lambda t, xs: 3.0 * np.ones_like(xs), zero_a, p=2.0)
    assert e == pytest.approx(9.0, rel=1e-12)


def test_sfpe_energy_horizon_scaling():
    mp = heat_flow_path(2, 4)
    zero_a = lambda t, xs: np.zeros((1, 1))
    drift = lambda t, xs: np.ones_like(xs)
    p, T = 2.0, 2.0
    e = sfpe_p_energy([mp], drift, zero_a, p=p, horizon=T)
    assert e == pytest.approx(T ** ((p - 1) / 2) * T, rel=1e-12)


def test_sfpe_energy_sees_the_measure_argument():
    # b(t, x) = x on the heat curve: E |N(0,t)|^2 = t m_2, integral m_2/2
    n = 32
    mp = heat_flow_path(4, n)
    m2 = float(np.mean(ndtri(midpoint_grid(n)) ** 2))
    zero_a = lambda t, xs: np.zeros((1, 1))
    e = sfpe_p_energy([mp], lambda t, xs: xs, zero_a, p=2.0)
    assert e == pytest.approx(0.5 * m2, rel=1e-12)


def test_sfpe_energy_particle_branch_d2():
    labels = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
    ensembles = [
        ParticleEnsemble(labels=labels, positions=labels) for _ in range(3)
    ]
    mp = MeasurePathSample.from_measures(ensembles)
    e = sfpe_p_energy(
        [mp],
        b_eval=lambda t, xs: np.zeros_like(xs),
        a_eval=lambda t, xs: np.eye(2),
        p=2.0,
    )
    # |I_2|_F^2 = 2, time integral 2, square root
    assert e == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_sfpe_energy_validation():
    mp = heat_flow_path(1, 2)
    zero_b = lambda t, xs: np.zeros_like(xs)
    zero_a = lambda t, xs: np.zeros((1, 1))
    with pytest.raises(ValueError):
        sfpe_p_energy([], zero_b, zero_a, p=2.0)
    with pytest.raises(ValueError):
        sfpe_p_energy([mp], zero_b, zero_a, p=1.0)
    with pytest.raises(ValueError):
        sfpe_p_energy([mp], zero_b, zero_a, p=2.0, horizon=0.0)


def test_sfpe_holder_exponent_window():
    two = sfpe_holder_exponent(2.0)
    assert two.gamma == 0.25
    assert two.window_empty
    four = sfpe_holder_exponent(4.0)
    assert four.gamma == 0.375
    assert four.window == (0.25, 0.375)
    with pytest.raises(ValueError):
        sfpe_holder_exponent(1.0)


# ---------------------------------------------------------------------------
# presets and serialization


def test_preset_catalogue():
    assert preset_names() == ("degenerate", "heat", "she-form1", "she-form2")
    with pytest.raises(ValueError, match="unknown preset"):
        coefficient_preset("ornstein")


def test_form1_coefficient_shapes():
    coeffs = coefficient_preset("she-form1")
    x = np.zeros(2)
    assert np.array_equal(coeffs.drift(0.5, x, x), np.zeros(2))
    assert np.array_equal(coeffs.diffusion_a(0.5, x, x), np.eye(2))
    assert np.array_equal(coeffs.common_sigma(0.5, x, x), np.eye(2))


def test_scenario_json_is_serializable():
    s = stochastic_heat_scenario(seed=26, depth=2, n=4)
    obj = scenario_to_json(s)
    assert set(obj) == {"seed", "depth", "W", "marginals"}
    assert len(obj["W"]) == 5
    assert len(obj["marginals"]) == 5
    json.dumps(obj)
