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
marginal-curve energy while another strictly exceeds it. One driver
walks the seed schedule for all of them; a ValueError, an ArithmeticError
(a float power that overflows) or a non-finite value in a scenario is
raised naming its index and derived seed, to be replayed alone. The CLI
writes its bundles as strict JSON.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _rng
from .lift_builder import (
    MeasurePathSample,
    PathMeasure,
    _CurveCost,
    lift_energy,
    marginal_cloud,
)
from .path_norms import NormSpec, _energy, _grid_index
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
    "estimate_to_json",
]


@dataclass(frozen=True)
class McConfig:
    """Sample count and base seed of one experiment; each sampler fixes
    its own resolution."""

    n_mc: int
    base_seed: int

    def __post_init__(self):
        if self.n_mc < 1:
            raise ValueError("n_mc must be at least 1")


@dataclass(frozen=True)
class EnergyEstimate:
    """MC mean with its standard error; spec records what was averaged."""

    mean: float
    std_error: float
    n: int
    spec: Optional[NormSpec] = None

    def __post_init__(self):
        if not self.std_error >= 0:
            raise ValueError("std_error must be nonnegative")


def scenario_seeds(cfg: McConfig) -> list:
    """The derived per-scenario seed schedule of a config."""
    return [_rng.derive_seed(cfg.base_seed, i) for i in range(cfg.n_mc)]


def _scenario_values(value: Callable, cfg: McConfig) -> np.ndarray:
    """Rows value(seed) per scenario seed; errors name scenario and seed."""
    rows = []
    for i, seed in enumerate(scenario_seeds(cfg)):
        try:
            rows.append(np.asarray(value(seed), dtype=float))
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"non-finite value {rows[-1].tolist()}")
        except ValueError as exc:
            raise ValueError(f"{exc} in scenario {i} (seed {seed})") from exc
        except ArithmeticError as exc:  # a float power that overflows
            raise type(exc)(f"{exc} in scenario {i} (seed {seed})") from exc
    return np.array(rows)


def _estimate(values: np.ndarray, spec: Optional[NormSpec]) -> EnergyEstimate:
    """MC mean and standard error of one column of per-scenario values.

    Values below 1 in size are scaled up by a power of two for the
    standard error, so the squared deviations do not underflow to 0 (a
    W_p^p at large p); the scaling is exact, and the result is the same
    bits where nothing underflows. Values are never scaled down: a spread
    that overflows stays inf.
    """
    values = np.ascontiguousarray(values)
    n = values.size
    se = 0.0
    if n > 1:
        e = max(0, -math.frexp(float(np.max(np.abs(values))))[1])
        std = np.std(np.ldexp(values, e), ddof=1) / np.sqrt(n)
        se = math.ldexp(float(std), -e)
    return EnergyEstimate(float(np.mean(values)), se, n, spec)


def expected_wp(sampler: Callable, p: float, cfg: McConfig) -> EnergyEstimate:
    """Averaged Wasserstein distance (E[W_p^p])^{1/p} between random marginals.

    sampler(seed) must return a pair of equal-size QuantileMeasure. The
    estimate is the p-th root of the MC mean of W_p^p; its standard error
    comes from the delta method, se(root) = se(mean) * root^{1-p} / p.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")

    def w_pp(seed):
        mu, nu = sampler(seed)
        return wasserstein_p(mu, nu, p) ** p

    est = _estimate(_scenario_values(w_pp, cfg), None)
    root = est.mean ** (1.0 / p)
    se = 0.0 if est.mean == 0.0 else est.std_error * root ** (1.0 - p) / p
    return EnergyEstimate(mean=root, std_error=se, n=cfg.n_mc, spec=None)


def curve_besov_energy(mp: MeasurePathSample, alpha: float, p: float) -> float:
    """Dyadic-increment energy sum_m 2^{m(alpha p - 1)} sum_k W_p^p of a curve."""
    return curve_energy(mp, NormSpec(kind="besov", p=p, alpha=alpha))


def curve_energy(mp: MeasurePathSample, spec: NormSpec) -> float:
    """W_p energy (besov/holder/pvar) of a curve from its sorted slice atoms."""
    return _energy(_CurveCost(mp.atoms, spec.p), spec, 1.0)


def process_besov_energy(
    sampler: Callable, alpha: float, p: float, cfg: McConfig
) -> EnergyEstimate:
    """Expected besov energy of a random measure curve.

    sampler(seed) must return a MeasurePathSample; the per-outcome energy
    uses exact samplewise W_p between the dyadic marginals.
    """
    spec = NormSpec(kind="besov", p=p, alpha=alpha)
    values = _scenario_values(
        lambda seed: curve_energy(sampler(seed), spec), cfg
    )
    return _estimate(values, spec)


def expected_lift_energy(
    lift_sampler: Callable, spec: NormSpec, cfg: McConfig
) -> EnergyEstimate:
    """Expected energy of a random lift: MC mean of lift_energy per scenario."""
    values = _scenario_values(
        lambda seed: lift_energy(lift_sampler(seed), spec), cfg
    )
    return _estimate(values, spec)


_SPOT_CHECK_TIMES = (0.25, 0.5, 1.0)
_SPOT_CHECK_TOL = 1e-8


def _spot_check(pi: PathMeasure, slices: np.ndarray, p: float, label: str):
    """W_p(lift marginal, curve atoms slices[k]) <= 1e-8 at three times."""
    depth = (slices.shape[0] - 1).bit_length() - 1
    for t in _SPOT_CHECK_TIMES:
        ys = slices[_grid_index(t, depth)]
        wy = np.full(ys.size, 1.0 / ys.size)
        xs, wx = marginal_cloud(pi, t)
        dist = wasserstein_p_clouds(xs[:, 0], wx, ys, wy, p)
        if dist > _SPOT_CHECK_TOL:
            raise ValueError(
                f"lift {label!r} does not match the marginal family at "
                f"t={t}: W_p={dist:.3e}"
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
) -> LiftComparison:
    """Energy comparison of two lifts of one marginal family.

    Per scenario, both sampled lifts are spot-checked against the sampled
    curve (W_p <= 1e-8 at three dyadic times; mismatch raises), so both
    must reproduce the family exactly, which the finite-count independent
    representation does not. Reports the two expected lift energies and
    the expected curve energy, plus flags: lower_bound_ok (neither lift
    undercuts the curve energy beyond tolerance), which lift is smaller,
    and whether the smaller one attains the curve energy within relative
    1e-3 + 3 standard errors.
    """
    def scenario(seed):
        mp = marginal_sampler(seed)
        m = curve_energy(mp, spec)
        slices = mp.atoms[:, :, 0]
        pi_a = sampler_a(seed)
        pi_b = sampler_b(seed)
        _spot_check(pi_a, slices, spec.p, "a")
        _spot_check(pi_b, slices, spec.p, "b")
        return [lift_energy(pi_a, spec), lift_energy(pi_b, spec), m]

    values = _scenario_values(scenario, cfg)
    est_a, est_b, est_m = (_estimate(col, spec) for col in values.T)
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


def estimate_to_json(est: EnergyEstimate, cfg: McConfig) -> dict:
    """JSON form of an estimate with its config and seed derivation rule."""
    out = {
        "estimate": est.mean,
        "std_error": est.std_error,
        "n": est.n,
        "config": {"n_mc": cfg.n_mc, "base_seed": cfg.base_seed},
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
