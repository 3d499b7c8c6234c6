"""Monte Carlo estimation over scenario families.

Everything here averages per-outcome quantities produced by a
user-supplied sampler: the sampler receives one derived sub-seed per
scenario (derive once from the base seed, so runs are reproducible and
order-independent) and returns the scenario's measures, measure curve or
lift. Accumulation goes through numpy arrays, whose pairwise summation
keeps results independent of evaluation order.

The estimators mirror the quantities of interest: the averaged
Wasserstein distance between random marginals, the expected dyadic
regularity energy of a random measure curve (the ``path_norms`` kernel
applied to the sorted slice atoms), expected lift energies, and the
head-to-head lift comparison that exhibits one lift attaining the
marginal-curve energy while another strictly exceeds it. A failed spot
check names its scenario index and derived seed, to be replayed alone.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _rng
from .lift_builder import (
    MeasurePathSample,
    PathMeasure,
    _CurveCost,
    _energy,
    _lift_cost,
    _sorted_slices,
    lift_energy,
    marginal_cloud,
)
from .path_norms import NormSpec, _grid_index
from .quantile_transport import wasserstein_p, wasserstein_p_clouds

__all__ = [
    "McConfig",
    "EnergyEstimate",
    "LiftComparison",
    "scenario_seeds",
    "expected_wp",
    "process_besov_energy",
    "expected_lift_energy",
    "curve_energy",
    "curve_besov_energy",
    "compare_lifts",
    "average_lift",
    "estimate_to_json",
]


@dataclass(frozen=True)
class McConfig:
    """Sample count, base seed and fixture resolution for one experiment."""

    n_mc: int
    base_seed: int
    depth: int = 8
    n_atoms: int = 256

    def __post_init__(self):
        if self.n_mc < 1:
            raise ValueError("n_mc must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.n_atoms < 1:
            raise ValueError("n_atoms must be positive")


@dataclass(frozen=True)
class EnergyEstimate:
    """MC mean with its standard error; spec records what was averaged."""

    mean: float
    std_error: float
    n: int
    spec: Optional[NormSpec] = None

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def scenario_seeds(cfg: McConfig) -> list:
    """The derived per-scenario seed schedule of a config."""
    return [_rng.derive_seed(cfg.base_seed, i) for i in range(cfg.n_mc)]


def _mean_se(values: np.ndarray) -> tuple:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / np.sqrt(values.size))


def expected_wp(sampler: Callable, p: float, cfg: McConfig) -> EnergyEstimate:
    """Averaged Wasserstein distance (E[W_p^p])^{1/p} between random marginals.

    sampler(seed) must return a pair of equal-size QuantileMeasure. The
    estimate is the p-th root of the MC mean of W_p^p; its standard error
    comes from the delta method, se(root) = se(mean) * root^{1-p} / p.
    """
    vals = np.empty(cfg.n_mc)
    for i, seed in enumerate(scenario_seeds(cfg)):
        mu, nu = sampler(seed)
        vals[i] = wasserstein_p(mu, nu, p) ** p
    mean_pow, se_pow = _mean_se(vals)
    root = mean_pow ** (1.0 / p)
    se = 0.0 if mean_pow == 0.0 else se_pow * root ** (1.0 - p) / p
    return EnergyEstimate(mean=root, std_error=se, n=cfg.n_mc, spec=None)


def curve_besov_energy(mp: MeasurePathSample, alpha: float, p: float) -> float:
    """Dyadic-increment energy sum_m 2^{m(alpha p - 1)} sum_k W_p^p of a curve."""
    return curve_energy(mp, NormSpec(kind="besov", p=p, alpha=alpha))


def curve_energy(mp: MeasurePathSample, spec: NormSpec) -> float:
    """W_p energy (besov/holder/pvar) of a curve from its sorted slice atoms."""
    return _energy(_CurveCost(_sorted_slices(mp), spec.p), spec)


def process_besov_energy(
    sampler: Callable, alpha: float, p: float, cfg: McConfig
) -> EnergyEstimate:
    """Expected besov energy of a random measure curve.

    sampler(seed) must return a MeasurePathSample; the per-outcome energy
    uses exact samplewise W_p between the dyadic marginals.
    """
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    vals = np.empty(cfg.n_mc)
    for i, seed in enumerate(scenario_seeds(cfg)):
        vals[i] = curve_besov_energy(sampler(seed), alpha, p)
    mean, se = _mean_se(vals)
    return EnergyEstimate(mean=mean, std_error=se, n=cfg.n_mc, spec=spec)


def expected_lift_energy(
    lift_sampler: Callable, spec: NormSpec, cfg: McConfig
) -> EnergyEstimate:
    """Expected energy of a random lift: MC mean of lift_energy per scenario."""
    vals = np.empty(cfg.n_mc)
    for i, seed in enumerate(scenario_seeds(cfg)):
        vals[i] = lift_energy(lift_sampler(seed), spec)
    mean, se = _mean_se(vals)
    return EnergyEstimate(mean=mean, std_error=se, n=cfg.n_mc, spec=spec)


_SPOT_CHECK_TIMES = (0.25, 0.5, 1.0)
_SPOT_CHECK_TOL = 1e-8


def _spot_check(
    pi: PathMeasure, slices: np.ndarray, p: float, label: str, tol: float,
    i: int, seed: int,
):
    """W_p(lift marginal, curve atoms slices[k]) <= tol at three times."""
    depth = (slices.shape[0] - 1).bit_length() - 1
    for t in _SPOT_CHECK_TIMES:
        ys = slices[_grid_index(t, depth)]
        wy = np.full(ys.size, 1.0 / ys.size)
        xs, wx = marginal_cloud(pi, t)
        dist = wasserstein_p_clouds(xs[:, 0], wx, ys, wy, p)
        if dist > tol:
            raise ValueError(
                f"lift {label!r} does not match the marginal family at "
                f"t={t} in scenario {i} (seed {seed}): W_p={dist:.3e}"
            )


@dataclass(frozen=True)
class LiftComparison:
    """compare_lifts outcome: both energies, the curve energy, and flags."""

    energy_a: EnergyEstimate
    energy_b: EnergyEstimate
    marginal_energy: EnergyEstimate
    lower_bound_ok: bool
    smaller: str
    attains_marginal: bool


def _attain_tol(est: EnergyEstimate, marg: EnergyEstimate) -> float:
    # relative 1e-3 plus 3 combined standard errors: separates MC noise
    # from the O(1) structural gaps of the fixtures
    se = np.hypot(est.std_error, marg.std_error)
    return 1e-3 * max(abs(marg.mean), abs(est.mean)) + 3.0 * se


def compare_lifts(
    sampler_a: Callable,
    sampler_b: Callable,
    marginal_sampler: Callable,
    spec: NormSpec,
    cfg: McConfig,
    marginal_tol: float = _SPOT_CHECK_TOL,
) -> LiftComparison:
    """Energy comparison of two lifts of one marginal family.

    Per scenario, both sampled lifts are spot-checked against the sampled
    curve (W_p <= marginal_tol at three dyadic times; mismatch raises).
    The default 1e-8 expects exact-marginal lifts; pass a looser value
    when a lift reproduces the family only statistically, as the
    finite-count independent representation does. Reports the two
    expected lift energies and the expected curve energy, plus flags:
    lower_bound_ok (neither lift undercuts the curve energy beyond
    tolerance), which lift is smaller, and whether the smaller one
    attains the curve energy within relative 1e-3 + 3 standard errors.
    """
    vals_a = np.empty(cfg.n_mc)
    vals_b = np.empty(cfg.n_mc)
    vals_m = np.empty(cfg.n_mc)
    for i, seed in enumerate(scenario_seeds(cfg)):
        mp = marginal_sampler(seed)
        # rejects marginals that are not one-dimensional, before the checks
        vals_m[i] = curve_energy(mp, spec)
        slices = _sorted_slices(mp)[:, :, 0]
        pi_a = sampler_a(seed)
        pi_b = sampler_b(seed)
        _spot_check(pi_a, slices, spec.p, "a", marginal_tol, i, seed)
        _spot_check(pi_b, slices, spec.p, "b", marginal_tol, i, seed)
        vals_a[i] = lift_energy(pi_a, spec)
        vals_b[i] = lift_energy(pi_b, spec)
    est_a = EnergyEstimate(*_mean_se(vals_a), n=cfg.n_mc, spec=spec)
    est_b = EnergyEstimate(*_mean_se(vals_b), n=cfg.n_mc, spec=spec)
    est_m = EnergyEstimate(*_mean_se(vals_m), n=cfg.n_mc, spec=spec)
    lower_ok = bool(
        est_a.mean >= est_m.mean - _attain_tol(est_a, est_m)
        and est_b.mean >= est_m.mean - _attain_tol(est_b, est_m)
    )
    smaller = "a" if est_a.mean <= est_b.mean else "b"
    small_est = est_a if smaller == "a" else est_b
    attains = bool(
        abs(small_est.mean - est_m.mean) <= _attain_tol(small_est, est_m)
    )
    return LiftComparison(
        energy_a=est_a,
        energy_b=est_b,
        marginal_energy=est_m,
        lower_bound_ok=lower_ok,
        smaller=smaller,
        attains_marginal=attains,
    )


def average_lift(
    lift_sampler: Callable, cfg: McConfig, p: float = 2.0
) -> PathMeasure:
    """Expectation of a random lift, represented by pooling its paths.

    All scenario lifts must share depth, path count and dimension; the
    pooled measure carries each path with its weight divided by n_mc.
    Two consequences are verified before returning (violations raise):
    the pooled time-t marginal equals the mixture of the scenario
    marginals, and W_p^p between pooled marginals never exceeds the
    pooled coupling cost.
    """
    lifts = [lift_sampler(seed) for seed in scenario_seeds(cfg)]
    first = lifts[0]
    for pi in lifts[1:]:
        if (
            pi.depth != first.depth
            or pi.n_paths != first.n_paths
            or pi.dim != first.dim
        ):
            raise ValueError("scenario lifts must share depth, count and dim")
    pooled = PathMeasure(
        depth=first.depth,
        paths=np.concatenate([pi.paths for pi in lifts]),
        weights=np.concatenate([pi.weights for pi in lifts]) / len(lifts),
    )
    if pooled.dim == 1:
        _pooled_consistency(pooled, lifts, p)
    return pooled


def _pooled_consistency(pooled: PathMeasure, lifts, p: float):
    times = (0.0, 0.5, 1.0) if pooled.depth >= 1 else (0.0, 1.0)
    margs = {}
    for t in times:
        xs, wx = marginal_cloud(pooled, t)
        margs[t] = (xs[:, 0], wx)
        mix_x = np.concatenate(
            [marginal_cloud(pi, t)[0][:, 0] for pi in lifts]
        )
        mix_w = np.concatenate(
            [marginal_cloud(pi, t)[1] for pi in lifts]
        ) / len(lifts)
        if wasserstein_p_clouds(xs[:, 0], wx, mix_x, mix_w, p) > 1e-10:
            raise ValueError(
                f"pooled marginal at t={t} is not the scenario mixture"
            )
    pair = _lift_cost(pooled, p)
    for s, t in zip(times[:-1], times[1:]):
        dist = wasserstein_p_clouds(*margs[s], *margs[t], p) ** p
        ks, kt = (_grid_index(u, pooled.depth) for u in (s, t))
        cost = float(pair(ks, kt) @ pair.weights)
        if dist > cost + 1e-10 * max(1.0, cost):
            raise ValueError(
                f"pooled marginals at ({s}, {t}) violate the coupling bound"
            )


def estimate_to_json(est: EnergyEstimate, cfg: McConfig) -> dict:
    """JSON form of an estimate with its config and seed derivation rule."""
    out = {
        "estimate": est.mean,
        "std_error": est.std_error,
        "n": est.n,
        "config": {
            "n_mc": cfg.n_mc,
            "base_seed": cfg.base_seed,
            "depth": cfg.depth,
            "n_atoms": cfg.n_atoms,
        },
        "seed_rule": _rng.derivation_rule(),
    }
    if est.spec is not None:
        out["norm"] = {
            "kind": est.spec.kind,
            "p": est.spec.p,
            "alpha": est.spec.alpha,
            "gamma": est.spec.gamma,
        }
    return out
