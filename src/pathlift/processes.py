"""Worked stochastic examples and the conditional SDE integrator.

The deterministic heat flow and the stochastic heat equation both admit
closed-form Gaussian marginals (N(0, t) and N(W_t, t)), which makes them
the reference fixtures for everything else in the package: lifts built
from their quantile curves have known energies, and the two particle
representations (independent noise B + W versus quantile trajectories
driven by W alone) bracket the variational problem from above and below.
Each curve is built as one (K, N) quantile array in a single broadcast,
W_{t_k} + sqrt(t_k) * c_j, with no per-slice objects.

Brownian paths are generated by dyadic midpoint (bridge) refinement with
one RNG stream per level, so deepening the grid never changes the values
already produced at coarser levels. This is what makes refinement
studies meaningful: level n and level n + 1 describe the same outcome.

The Euler-Maruyama integrator targets dX = b dt + alpha dB + sigma dW
with alpha = (2a - sigma sigma^T)^{1/2}; the parabolicity check that
makes alpha well defined is enforced at every evaluation point.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri

from . import _rng
from .errors import DivergenceError, ParabolicityError
from .lift_builder import (
    MeasurePathSample,
    PathMeasure,
    build_dyadic_lift,
)
from .path_norms import DyadicPath
from .quantile_transport import QuantileMeasure, midpoint_grid

__all__ = [
    "BrownianPath",
    "SdeCoefficients",
    "ScenarioSample",
    "ParabolicityCheck",
    "HolderWindow",
    "gaussian_quantile",
    "heat_flow_marginal",
    "heat_flow_path",
    "stochastic_heat_scenario",
    "brownian_bundle",
    "independent_particle_paths",
    "quantile_particle_paths",
    "euler_maruyama",
    "parabolicity_and_alpha",
    "sfpe_p_energy",
    "sfpe_holder_exponent",
    "coefficient_preset",
    "preset_names",
    "scenario_to_json",
]


def gaussian_quantile(q):
    """Standard normal quantile function, sqrt(2) erfinv(2q - 1)."""
    q = np.asarray(q, dtype=float)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise ValueError("quantile levels must lie in (0, 1)")
    return ndtri(q)


def _bridge_values(seed, stream, depth, dim, count=None):
    """Dyadic bridge construction of Brownian values on [0, 1].

    Level m draws come from the stream f"{stream}/L{m}", so the values on
    the level-m grid are identical for every depth >= m. Returns
    (2^depth + 1, dim), or (count, 2^depth + 1, dim) when count is given
    (count independent paths sharing the stream family).
    """
    n = 1 if count is None else int(count)
    values = np.zeros((n, 2, dim))
    values[:, 1, :] = _rng.stream(seed, f"{stream}/L0").standard_normal((n, dim))
    for m in range(1, depth + 1):
        prev = values
        k = prev.shape[1] - 1
        z = _rng.stream(seed, f"{stream}/L{m}").standard_normal((n, k, dim))
        # conditional midpoint: mean of the endpoints, variance dt/4
        mids = 0.5 * (prev[:, :-1] + prev[:, 1:]) + np.sqrt(2.0 ** -m / 2.0) * z
        nxt = np.empty((n, 2 * k + 1, dim))
        nxt[:, 0::2] = prev
        nxt[:, 1::2] = mids
        values = nxt
    return values[0] if count is None else values


@dataclass(frozen=True)
class BrownianPath:
    """Brownian motion sampled on the level-`depth` dyadic grid of [0, 1].

    W_0 = 0 and the level-M increments are iid N(0, dt * I). Values come
    from seed-keyed bridge refinement, hence ``refine`` to a larger depth
    reproduces every existing grid value exactly.
    """

    seed: int
    depth: int
    dim: int = 1
    stream: str = "W"
    path: DyadicPath = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        values = _bridge_values(self.seed, self.stream, self.depth, self.dim)
        object.__setattr__(self, "path", DyadicPath(self.depth, values))

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    def times(self) -> np.ndarray:
        return self.path.times()

    def refine(self, depth: int) -> "BrownianPath":
        if depth < self.depth:
            raise ValueError("refine only deepens the grid")
        return BrownianPath(
            seed=self.seed, depth=depth, dim=self.dim, stream=self.stream
        )


@dataclass(frozen=True)
class SdeCoefficients:
    """Evaluable coefficient triple (b, a, sigma) of the conditional SDE.

    Each callable receives (t, x, w) with x and w the current state and
    common-noise value as shape-(d,) arrays; drift returns (d,), the
    matrices return (d, d) (scalars are accepted in d = 1).
    """

    drift: Callable
    diffusion_a: Callable
    common_sigma: Callable
    name: str = ""


@dataclass(frozen=True)
class ScenarioSample:
    """One realization of a random measure curve, reproducible from seed."""

    seed: int
    common_path: BrownianPath
    measure_path: MeasurePathSample
    lift: Optional[PathMeasure] = None


def heat_flow_marginal(t: float, n: int) -> QuantileMeasure:
    """Quantile form of N(0, t), the heat kernel started from a point mass."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return QuantileMeasure(np.sqrt(t) * ndtri(midpoint_grid(n)))


def heat_flow_path(depth: int, n: int) -> MeasurePathSample:
    """The curve t -> N(0, t) on the level-`depth` grid, sqrt(t_k) * c_j."""
    times = np.linspace(0.0, 1.0, 2 ** depth + 1)
    c = ndtri(midpoint_grid(n))
    return MeasurePathSample(times, np.sqrt(times)[:, None] * c)


def stochastic_heat_scenario(
    seed: int, depth: int, n: int, with_lift: bool = False
) -> ScenarioSample:
    """Sample one scenario of the randomly forced heat flow.

    The common noise W is drawn at the requested depth and the marginals
    are N(W_t, t), one (K, n) quantile array built in one broadcast: atom
    j of slice k sits at W_{t_k} + sqrt(t_k) * ndtri(u_j). With
    ``with_lift`` the quantile lift (a view of that array) is attached.
    """
    w = BrownianPath(seed=seed, depth=depth)
    c = ndtri(midpoint_grid(n))
    times = w.times()
    mp = MeasurePathSample(times, w.values + np.sqrt(times)[:, None] * c)
    lift = build_dyadic_lift(mp, "quantile", depth) if with_lift else None
    return ScenarioSample(
        seed=seed, common_path=w, measure_path=mp, lift=lift
    )


def brownian_bundle(
    seed: int, depth: int, count: int, dim: int = 1
) -> PathMeasure:
    """count iid Brownian paths as an equal-weight path measure."""
    if count < 1:
        raise ValueError("count must be positive")
    return PathMeasure(
        depth=depth,
        paths=_bridge_values(seed, "B", depth, dim, count=count),
        weights=np.full(count, 1.0 / count),
    )


def independent_particle_paths(
    scenario: ScenarioSample,
    seed2: int,
    count: int,
    zero_noise: bool = False,
) -> PathMeasure:
    """First particle representation: X^(j) = B^(j) + W, equal weights.

    The B^(j) are iid Brownian paths drawn from seed2 (zeroed by the
    ``zero_noise`` test hook, which collapses every path onto W). The
    empirical time-t marginal approximates N(W_t, t) as count grows; the
    coupling across times is far from monotone.
    """
    if count < 1:
        raise ValueError("count must be positive")
    w = scenario.common_path
    b = _bridge_values(seed2, "B", w.depth, w.dim, count=count)
    if zero_noise:
        b = np.zeros_like(b)
    return PathMeasure(
        depth=w.depth,
        paths=b + w.values[None, :, :],
        weights=np.full(count, 1.0 / count),
    )


def quantile_particle_paths(
    scenario: ScenarioSample, n: Optional[int] = None
) -> PathMeasure:
    """Second particle representation: gamma_j(t) = c(u_j) sqrt(t) + W_t.

    Exact marginals at quantile resolution and monotone pairwise
    couplings; coincides path-by-path with the quantile-coupler lift of
    the scenario's measure curve when n matches its atom count.
    """
    w = scenario.common_path
    if w.dim != 1:
        raise ValueError("quantile representation is one-dimensional")
    if n is None:
        n = scenario.measure_path.atoms.shape[1]
    times = w.times()
    atoms = w.values + np.sqrt(times)[:, None] * ndtri(midpoint_grid(n))
    curve = MeasurePathSample(times, atoms)
    return build_dyadic_lift(curve, "quantile", w.depth)


@dataclass(frozen=True)
class ParabolicityCheck:
    ok: bool
    alpha: np.ndarray
    min_eigenvalue: float


def parabolicity_and_alpha(a, sigma) -> ParabolicityCheck:
    """Check 2a - sigma sigma^T >= 0 and take its PSD square root.

    ok iff the smallest eigenvalue is >= -1e-10; eigenvalues negative
    within that tolerance are clamped to zero before the root.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape != sigma.shape:
        raise ValueError("a and sigma must be square matrices of equal shape")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - a.T).max() > 1e-12 * scale:
        raise ValueError("diffusion matrix a must be symmetric")
    m = 2.0 * a - sigma @ sigma.T
    evals, evecs = np.linalg.eigh(0.5 * (m + m.T))
    min_eig = float(evals[0])
    root = np.sqrt(np.clip(evals, 0.0, None))
    return ParabolicityCheck(
        ok=min_eig >= -1e-10,
        alpha=(evecs * root) @ evecs.T,
        min_eigenvalue=min_eig,
    )


def euler_maruyama(
    coeffs: SdeCoefficients,
    w: BrownianPath,
    seed_b: int,
    x0,
    substeps: int,
    t0: float = 0.0,
    zero_noise: bool = False,
) -> DyadicPath:
    """Explicit Euler-Maruyama for dX = b dt + alpha dB + sigma dW.

    The common path w is bridge-refined to `substeps` intervals (a power
    of two at least as fine as w's grid) and fresh B increments come from
    seed_b. Integration starts at grid time t0 (values before t0 are
    held at x0, the hook for drifts that are singular at 0); the result
    is downsampled back to w's grid. Parabolicity of (a, sigma) is
    verified at every evaluation point and a violation raises naming the
    point. A path that leaves the finite floats raises DivergenceError
    naming its first non-finite step, the time and both seeds.
    """
    substeps = int(substeps)
    level = substeps.bit_length() - 1
    if substeps <= 0 or 2 ** level != substeps:
        raise ValueError("substeps must be a power of two")
    if substeps < 2 ** w.depth:
        raise ValueError(
            f"substeps={substeps} cannot refine a depth-{w.depth} grid"
        )
    h = 1.0 / substeps
    k0 = t0 * substeps
    if abs(k0 - round(k0)) > 1e-9 or not 0 <= round(k0) < substeps:
        raise ValueError("t0 must be a substep grid time in [0, 1)")
    k0 = int(round(k0))
    d = w.dim
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (d,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of dimension {d}")
    wv = w.refine(level).values
    if zero_noise:
        db = np.zeros((substeps, d))
    else:
        db = _rng.stream(seed_b, "B").standard_normal((substeps, d)) * np.sqrt(h)
    xs = np.empty((substeps + 1, d))
    xs[: k0 + 1] = x0
    x = x0.copy()
    alpha_cache: dict = {}
    for k in range(k0, substeps):
        t = k * h
        wt = wv[k]
        a_mat = np.atleast_2d(np.asarray(coeffs.diffusion_a(t, x, wt), float))
        s_mat = np.atleast_2d(np.asarray(coeffs.common_sigma(t, x, wt), float))
        key = (a_mat.tobytes(), s_mat.tobytes())
        alpha = alpha_cache.get(key)
        if alpha is None:
            check = parabolicity_and_alpha(a_mat, s_mat)
            if not check.ok:
                if np.all(np.isfinite(x)):
                    raise ParabolicityError(t, x, check.min_eigenvalue)
                break  # diverged: reported below with its first step
            alpha = check.alpha
            alpha_cache[key] = alpha
        b_vec = np.broadcast_to(
            np.asarray(coeffs.drift(t, x, wt), dtype=float), (d,)
        )
        x = x + b_vec * h + alpha @ db[k] + s_mat @ (wv[k + 1] - wt)
        xs[k + 1] = x
    finite = np.isfinite(xs).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite))
        raise DivergenceError(step, step * h, w.seed, seed_b)
    stride = substeps // 2 ** w.depth
    return DyadicPath(w.depth, xs[::stride])


def sfpe_p_energy(
    mu_samples: Sequence[MeasurePathSample],
    b_eval: Callable,
    a_eval: Callable,
    p: float,
    horizon: float = 1.0,
) -> float:
    """p-energy T^{(p-1)/2} E[iint |b|^p dmu dt] + (E[iint |a|^p dmu dt])^{1/2}.

    Expectations are Monte Carlo means over the supplied per-outcome
    measure curves, the time integral is trapezoidal on the curve's grid
    (scaled to [0, T]) and the measure integral averages over atoms.
    b_eval(t, xs) and a_eval(t, xs) receive xs of shape (N, d) and must
    broadcast to (N, d) resp. (N, d, d); |a| is the Frobenius norm.
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    if len(mu_samples) == 0:
        raise ValueError("need at least one sampled curve")
    b_total = 0.0
    a_total = 0.0
    for mp in mu_samples:
        times = horizon * mp.times
        b_t = np.empty(times.size)
        a_t = np.empty(times.size)
        for i, (t, xs) in enumerate(zip(times, mp.atoms)):
            n, d = xs.shape
            bv = np.broadcast_to(
                np.asarray(b_eval(t, xs), dtype=float), (n, d)
            )
            b_t[i] = np.mean(
                np.sqrt(np.einsum("nd,nd->n", bv, bv)) ** p
            )
            av = np.broadcast_to(
                np.asarray(a_eval(t, xs), dtype=float), (n, d, d)
            )
            a_t[i] = np.mean(
                np.sqrt(np.einsum("nij,nij->n", av, av)) ** p
            )
        b_total += np.trapezoid(b_t, times)
        a_total += np.trapezoid(a_t, times)
    n_mc = len(mu_samples)
    return float(
        horizon ** ((p - 1) / 2.0) * (b_total / n_mc)
        + np.sqrt(a_total / n_mc)
    )


@dataclass(frozen=True)
class HolderWindow:
    """Time regularity exponent of the measure curve, with the admissible
    fractional-smoothness window when it is nonempty (p > 3)."""

    gamma: float
    window: Optional[tuple]

    @property
    def window_empty(self) -> bool:
        return self.window is None


def sfpe_holder_exponent(p: float) -> HolderWindow:
    """gamma = 1/2 - 1/(2p); window (1/p, gamma), empty unless p > 3."""
    if not p > 1:
        raise ValueError("p must be > 1")
    gamma = 0.5 - 1.0 / (2.0 * p)
    window = (1.0 / p, gamma) if p > 3 else None
    return HolderWindow(gamma=gamma, window=window)


def _she_form1() -> SdeCoefficients:
    return SdeCoefficients(
        drift=lambda t, x, w: np.zeros_like(x),
        diffusion_a=lambda t, x, w: np.eye(x.size),
        common_sigma=lambda t, x, w: np.eye(x.size),
        name="she-form1",
    )


def _she_form2() -> SdeCoefficients:
    def drift(t, x, w):
        # -1/2 grad log rho_t for rho_t = N(w, t); singular at t = 0
        if t <= 0:
            raise ValueError("form-2 drift is singular at t = 0; start at t0 > 0")
        return (x - w) / (2.0 * t)

    return SdeCoefficients(
        drift=drift,
        diffusion_a=lambda t, x, w: 0.5 * np.eye(x.size),
        common_sigma=lambda t, x, w: np.eye(x.size),
        name="she-form2",
    )


def _heat() -> SdeCoefficients:
    return SdeCoefficients(
        drift=lambda t, x, w: np.zeros_like(x),
        diffusion_a=lambda t, x, w: 0.5 * np.eye(x.size),
        common_sigma=lambda t, x, w: np.zeros((x.size, x.size)),
        name="heat",
    )


def _degenerate() -> SdeCoefficients:
    # 2a - sigma sigma^T = -I: fails parabolicity on purpose
    return SdeCoefficients(
        drift=lambda t, x, w: np.zeros_like(x),
        diffusion_a=lambda t, x, w: np.zeros((x.size, x.size)),
        common_sigma=lambda t, x, w: np.eye(x.size),
        name="degenerate",
    )


_PRESETS = {
    "she-form1": _she_form1,
    "she-form2": _she_form2,
    "heat": _heat,
    "degenerate": _degenerate,
}


def preset_names() -> tuple:
    return tuple(sorted(_PRESETS))


def coefficient_preset(name: str) -> SdeCoefficients:
    try:
        factory = _PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; known: {', '.join(sorted(_PRESETS))}"
        ) from None
    return factory()


def scenario_to_json(s: ScenarioSample) -> dict:
    """Seed, depth, common path W and the marginals, one quantile row per
    grid time (the rows of the curve's atom array)."""
    w = s.common_path.values
    return {
        "seed": int(s.seed),
        "depth": int(s.common_path.depth),
        "W": w[:, 0].tolist() if w.shape[1] == 1 else w.tolist(),
        "marginals": s.measure_path.atoms[:, :, 0].tolist(),
    }
