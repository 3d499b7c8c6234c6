"""Worked stochastic examples and the conditional SDE integrator.

The deterministic heat flow and the stochastic heat equation both admit
closed-form Gaussian marginals (N(0, t) and N(W_t, t)), which makes them
the reference fixtures for everything else in the package: lifts built
from their quantile curves have known energies, and the two particle
representations (independent noise B + W versus quantile trajectories
driven by W alone) bracket the variational problem from above and below.
Each curve is one (K, N) quantile array, W_{t_k} + sqrt(t_k) * c_j, with
no per-slice objects. The heat curve sqrt(t_k) * c_j owes nothing to the
seed: it is built once per (depth, N), kept read-only, and a scenario
adds its W to it in one pass, with the products and sums of one
broadcast.

Brownian paths are generated by dyadic midpoint (bridge) refinement with
one RNG stream per level, so deepening the grid never changes the values
already produced at coarser levels. This is what makes refinement
studies meaningful: level n and level n + 1 describe the same outcome.
All levels are written in place into one buffer, by the operations of a
level-by-level build in the same order, so the values keep their bits.

The Euler-Maruyama integrator targets dX = b dt + alpha dB + sigma dW
with alpha = (2a - sigma sigma^T)^{1/2}. ``euler_flow`` steps n particles
at once, all driven by the same W and the same B increments (a
stochastic flow), through batched coefficients: drift(t, X[n, d], w[d])
returns (n, d), and a and sigma return one (d, d) matrix for every row
or an (n, d, d) stack, one per row. ``euler_maruyama`` is its one-start
case. The parabolicity check that makes alpha well defined runs whenever
(a, sigma) change from the previous step. The noise terms alpha dB and
sigma dW are formed per run of unchanged (a, sigma), in doubling spans of
one stacked product a term, bit-identical to per-step products.

Normal quantiles come from a numpy port of Cephes ``ndtri``, equal to
``scipy.special.ndtri`` bit for bit, so pathlift needs no scipy at run
time. The tail's logs go through ``math.log``, the C library log that
Cephes calls: numpy's vectorized ``np.log`` differs in the last bit.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _rng
from .errors import DivergenceError, ParabolicityError
from .lift_builder import (
    MeasurePathSample,
    PathMeasure,
    build_dyadic_lift,
)
from .path_norms import DyadicPath, _check_depth, _grid_index
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
    "euler_flow",
    "euler_maruyama",
    "parabolicity_and_alpha",
    "sfpe_p_energy",
    "sfpe_holder_exponent",
    "coefficient_preset",
    "preset_names",
]


# Cephes ndtri's (p, q) pairs, q led by 1: the band e^-2 < y < 1 - e^-2,
# then the tails z = sqrt(-2 log y) < 8 and z >= 8
_BAND = ((-59.96335010141079, 98.00107541859997, -56.67628574690703,
          13.931260938727968, -1.2391658386738125),
         (1.0, 1.9544885833814176, 4.676279128988815, 86.36024213908905,
          -225.46268785411937, 200.26021238006066, -82.03722561683334,
          15.90562251262117, -1.1833162112133))
_TAIL = ((4.0554489230596245, 31.525109459989388, 57.16281922464213,
          44.08050738932008, 14.684956192885803, 2.1866330685079025,
          -0.1402560791713545, -0.03504246268278482, -0.0008574567851546854),
         (1.0, 15.779988325646675, 45.39076351288792, 41.3172038254672,
          15.04253856929075, 2.504649462083094, -0.14218292285478779,
          -0.03808064076915783, -0.0009332594808954574))
_FAR = ((3.2377489177694603, 6.915228890689842, 3.9388102529247444,
         1.3330346081580755, 0.20148538954917908, 0.012371663481782003,
         0.00030158155350823543, 2.6580697468673755e-06,
         6.239745391849833e-09),
        (1.0, 6.02427039364742, 3.6798356385616087, 1.3770209948908132,
         0.21623699359449663, 0.013420400608854318, 0.00032801446468212774,
         2.8924786474538068e-06, 6.790194080099813e-09))
_EXP_M2 = 0.1353352832366127
_libm_log = np.vectorize(math.log, otypes=[float])


def _rational(x, pq):
    """x p(x) / q(x), p and q by Horner's rule in Cephes' order."""
    return x * np.polyval(pq[0], x) / np.polyval(pq[1], x)


def gaussian_quantile(q):
    """Standard normal quantile function, sqrt(2) erfinv(2q - 1)."""
    q = np.asarray(q, dtype=float)
    if not np.all((q > 0.0) & (q < 1.0)):  # NaN fails both
        raise ValueError("quantile levels must lie in (0, 1)")
    upper = q.ravel() > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - q.ravel(), q.ravel())
    out, band = np.empty_like(y), y > _EXP_M2
    v = y[band] - 0.5
    out[band] = (v + v * _rational(v * v, _BAND)) * 2.5066282746310007
    z = np.sqrt(-2.0 * _libm_log(y[~band]))
    tail = z - _libm_log(z) / z - np.where(
        z < 8.0, _rational(1.0 / z, _TAIL), _rational(1.0 / z, _FAR))
    out[~band] = np.where(upper[~band], tail, -tail)
    return out.reshape(q.shape)[()]


def _positive_int(value, what: str) -> int:
    """value as an int, refusing zero, negatives, fractions, inf and NaN."""
    if not (1 <= value < math.inf and int(value) == value):
        raise ValueError(f"{what} must be positive")
    return int(value)


@functools.lru_cache(maxsize=16)
def _normal_atoms(n: int) -> np.ndarray:
    """The standard normal quantiles of ``midpoint_grid(n)``, read-only."""
    c = gaussian_quantile(midpoint_grid(n))
    c.setflags(write=False)
    return c


def _bridge_values(seed, stream, depth, dim, count=None):
    """Dyadic bridge construction of Brownian values on [0, 1].

    Level m draws come from the stream f"{stream}/L{m}", so the values on
    the level-m grid are identical for every depth >= m. Returns
    (2^depth + 1, dim), or (count, 2^depth + 1, dim) when count is given
    (count independent paths sharing the stream family).

    Every level is written in place into one zeroed buffer: the parents
    of level m sit s = 2^(depth - m + 1) apart and its midpoints halfway
    between. A midpoint is the sum of its parents, halved, plus the scaled
    draw: the operations of a level-by-level build in the same order, so
    the values keep their bits.
    """
    n = 1 if count is None else count
    size = 2 ** depth
    v = np.zeros((n, size + 1, dim))
    levels = _rng.level_streams(seed, stream, depth)
    v[:, size] = next(levels).standard_normal((n, dim))
    for m, gen in enumerate(levels, start=1):
        s = size >> (m - 1)
        mids = v[:, s // 2::s]
        z = gen.standard_normal(mids.shape)
        # conditional midpoint: mean of the endpoints, variance dt/4
        np.add(v[:, :-1:s], v[:, s::s], out=mids)
        mids *= 0.5
        z *= np.sqrt(2.0 ** -m / 2.0)
        mids += z
    return v[0] if count is None else v


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
    path: DyadicPath = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_depth(self.depth)
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "dim", _positive_int(self.dim, "dim"))
        values = _bridge_values(self.seed, "W", self.depth, self.dim)
        object.__setattr__(self, "path", DyadicPath(self.depth, values))

    @property
    def values(self) -> np.ndarray:
        return self.path.values

    def times(self) -> np.ndarray:
        return self.path.times()

    def refine(self, depth: int) -> "BrownianPath":
        if depth < self.depth:
            raise ValueError("refine only deepens the grid")
        return BrownianPath(seed=self.seed, depth=depth, dim=self.dim)


@dataclass(frozen=True)
class SdeCoefficients:
    """Evaluable coefficient triple (b, a, sigma) of the conditional SDE.

    Each callable receives (t, x, w): x is the (n, d) state of n
    particles, one per row, and w the (d,) common-noise value. drift
    returns (n, d); diffusion_a and common_sigma return a (d, d) matrix
    shared by every row or an (n, d, d) stack, one matrix per row. d is
    read as x.shape[-1].
    """

    drift: Callable
    diffusion_a: Callable
    common_sigma: Callable
    name: str = ""


@dataclass(frozen=True)
class ScenarioSample:
    """One realization of a random measure curve, reproducible from the
    seed of its common path."""

    common_path: BrownianPath
    measure_path: MeasurePathSample
    lift: Optional[PathMeasure] = None


def heat_flow_marginal(t: float, n: int) -> QuantileMeasure:
    """Quantile form of N(0, t), the heat kernel started from a point mass."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return QuantileMeasure(np.sqrt(t) * _normal_atoms(n))


@functools.lru_cache(maxsize=4)
def _heat_curve(depth: int, n: int) -> np.ndarray:
    """The (2^depth + 1, n) heat curve sqrt(t_k) * c_j, built once, read-only."""
    times = np.linspace(0.0, 1.0, 2 ** depth + 1)
    h = np.sqrt(times)[:, None] * _normal_atoms(n)
    h.setflags(write=False)
    return h


def heat_flow_path(depth: int, n: int) -> MeasurePathSample:
    """The curve t -> N(0, t) on the level-`depth` grid, sqrt(t_k) * c_j."""
    return MeasurePathSample(_heat_curve(depth, n))


def stochastic_heat_scenario(
    seed: int, depth: int, n: int, with_lift: bool = False
) -> ScenarioSample:
    """Sample one scenario of the randomly forced heat flow.

    The common noise W is drawn at the requested depth and the marginals
    are N(W_t, t), one (K, n) quantile array (``_she_atoms``): atom j of
    slice k sits at W_{t_k} + sqrt(t_k) * ndtri(u_j). With
    ``with_lift`` the quantile lift (a view of that array) is attached.
    """
    w = BrownianPath(seed=seed, depth=depth)
    mp = MeasurePathSample(_she_atoms(w, n))
    lift = build_dyadic_lift(mp, depth) if with_lift else None
    return ScenarioSample(common_path=w, measure_path=mp, lift=lift)


def _she_atoms(w: BrownianPath, n: int) -> np.ndarray:
    """The (K, n) atoms W_{t_k} + sqrt(t_k) ndtri(u_j): W plus the heat curve."""
    return np.add(_heat_curve(w.depth, n), w.values)


def brownian_bundle(seed: int, depth: int, count: int) -> PathMeasure:
    """count iid Brownian paths in R as an equal-weight path measure."""
    _check_depth(depth)
    depth, count = int(depth), _positive_int(count, "count")
    return PathMeasure(
        depth=depth,
        paths=_bridge_values(seed, "B", depth, 1, count=count),
        weights=np.full(count, 1.0 / count),
    )


def independent_particle_paths(
    scenario: ScenarioSample, seed2: int, count: int
) -> PathMeasure:
    """First particle representation: X^(j) = B^(j) + W, equal weights.

    The B^(j) are iid Brownian paths drawn from seed2. The empirical
    time-t marginal approximates N(W_t, t) as count grows; the coupling
    across times is far from monotone.
    """
    return _independent_paths(scenario.common_path, seed2, count)


def _independent_paths(w: BrownianPath, seed2: int, count: int) -> PathMeasure:
    """``independent_particle_paths`` on the common noise W alone."""
    count = _positive_int(count, "count")
    b = _bridge_values(seed2, "B", w.depth, w.dim, count=count)
    return PathMeasure(
        depth=w.depth,
        paths=b + w.values[None, :, :],
        weights=np.full(count, 1.0 / count),
    )


def quantile_particle_paths(scenario: ScenarioSample, n: int) -> PathMeasure:
    """Second particle representation: gamma_j(t) = c(u_j) sqrt(t) + W_t.

    Exact marginals at quantile resolution and monotone pairwise
    couplings; coincides path-by-path with the quantile lift of
    the scenario's measure curve when n matches its atom count.
    """
    w = scenario.common_path
    if w.dim != 1:
        raise ValueError("quantile representation is one-dimensional")
    curve = MeasurePathSample(_she_atoms(w, n))
    return build_dyadic_lift(curve, w.depth)


@dataclass(frozen=True)
class ParabolicityCheck:
    ok: bool
    alpha: np.ndarray
    min_eigenvalue: float


def parabolicity_and_alpha(a, sigma) -> ParabolicityCheck:
    """Check 2a - sigma sigma^T >= 0 and take its PSD square root.

    a and sigma are (d, d) matrices (scalars count as 1 x 1) or stacks
    (..., d, d) that broadcast, checked by one batched eigh; alpha and
    min_eigenvalue then carry the stack axes. ok iff every smallest
    eigenvalue is >= -1e-10; eigenvalues negative within that tolerance
    are clamped to zero before the root.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if a.shape[-1] != a.shape[-2] or a.shape[-2:] != sigma.shape[-2:]:
        raise ValueError("a and sigma must be square matrices of equal shape")
    scale = max(1.0, float(np.abs(a).max()))
    if np.abs(a - np.swapaxes(a, -1, -2)).max() > 1e-12 * scale:
        raise ValueError("diffusion matrix a must be symmetric")
    m = 2.0 * a - sigma @ np.swapaxes(sigma, -1, -2)
    evals, evecs = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))
    min_eig = evals[..., 0]
    root = np.sqrt(np.clip(evals, 0.0, None))
    return ParabolicityCheck(
        ok=bool(np.all(min_eig >= -1e-10)),
        alpha=(evecs * root[..., None, :]) @ np.swapaxes(evecs, -1, -2),
        min_eigenvalue=float(min_eig) if min_eig.ndim == 0 else min_eig,
    )


def euler_flow(
    coeffs: SdeCoefficients,
    w: BrownianPath,
    seed_b: int,
    x0s,
    substeps: int,
    t0: float = 0.0,
    zero_noise: bool = False,
) -> PathMeasure:
    """Explicit Euler-Maruyama for dX = b dt + alpha dB + sigma dW.

    The n rows of x0s start particles driven by the common path w, refined
    to `substeps` (a power of two) intervals, and by one B stream from
    seed_b: a stochastic flow, returned as an equal-weight path measure on
    w's grid. Values before the grid time t0 are held at the start (the
    hook for drifts singular at 0). alpha and its parabolicity check are
    redone only when (a, sigma) change; a violation names t and the
    state of the row that violates it most. The noise rows alpha dB_k and
    sigma dW_k of a run of unchanged (a, sigma) come in spans of 1, 2, 4,
    ... steps, one stacked product a term, bit-identical to per-step
    products; each step is written in place. A path that leaves the
    finite floats raises DivergenceError naming its first non-finite
    step, t, both seeds and, for n > 1, the row.
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
    try:
        k0 = _grid_index(t0, level)
    except ValueError:
        k0 = substeps  # off the grid: refused below like a time past the end
    if k0 >= substeps:
        raise ValueError(f"t0={t0!r} must be a substep grid time in [0, 1)")
    d = w.dim
    x = np.array(x0s, dtype=float)
    if x.ndim != 2 or x.size == 0 or x.shape[1] != d or not np.isfinite(x).all():
        raise ValueError(f"x0 must hold finite vectors of dimension {d}")
    n = x.shape[0]
    wv = w.refine(level).values
    dw = np.diff(wv, axis=0)
    db = np.zeros((substeps, d))
    if not zero_noise:
        db = _rng.stream(seed_b, "B").standard_normal((substeps, d)) * np.sqrt(h)
    xs = np.empty((substeps + 1, n, d))
    xs[: k0 + 1] = x
    memo, end = None, k0
    for k in range(k0, substeps):
        t, wk = k * h, wv[k]
        a_mat = coeffs.diffusion_a(t, x, wk)
        s_mat = coeffs.common_sigma(t, x, wk)
        key = (a_mat.tobytes(), s_mat.tobytes())
        if key != memo:
            check = parabolicity_and_alpha(a_mat, s_mat)
            if check.alpha.shape not in ((d, d), (n, d, d)):
                raise ValueError(f"a, sigma must be ({d}, {d}) or ({n}, {d}, {d})")
            if not check.ok:
                if not np.all(np.isfinite(x)):
                    break  # diverged: reported below with its first step
                min_eig = np.reshape(check.min_eigenvalue, -1)
                row = int(np.argmin(min_eig))  # the most violated row
                raise ParabolicityError(
                    t, x[row].copy(), min_eig[row], row if n > 1 else None
                )
            alpha, memo, span, end = check.alpha, key, 1, k
        if k == end:
            # (m, 1, d) or (m, n, d) noise rows whose bits are those of
            # alpha @ db[k] (a 2-D db @ alpha.T would not keep them)
            start, end = k, min(k + span, substeps)
            na = np.matmul(alpha, db[start:end, None, :, None])[..., 0]
            ns = np.matmul(s_mat, dw[start:end, None, :, None])[..., 0]
            span *= 2
        x = np.add(
            x + coeffs.drift(t, x, wk) * h + na[k - start], ns[k - start],
            out=xs[k + 1],
        )
    finite = np.isfinite(xs).all(axis=2)
    if not finite.all():
        step = int(np.argmin(finite.all(axis=1)))
        row = int(np.argmin(finite[step])) if n > 1 else None
        raise DivergenceError(step, step * h, w.seed, seed_b, row)
    paths = xs[:: substeps // 2 ** w.depth].transpose(1, 0, 2)
    return PathMeasure(depth=w.depth, paths=paths, weights=np.full(n, 1.0 / n))


def euler_maruyama(
    coeffs: SdeCoefficients,
    w: BrownianPath,
    seed_b: int,
    x0,
    substeps: int,
    t0: float = 0.0,
    zero_noise: bool = False,
) -> DyadicPath:
    """The path of ``euler_flow`` from the one start x0, shape (d,)."""
    x0 = np.asarray(x0, dtype=float).reshape(1, -1)
    return euler_flow(coeffs, w, seed_b, x0, substeps, t0, zero_noise).path(0)


def sfpe_p_energy(
    mu_samples: Sequence[MeasurePathSample],
    b_eval: Callable,
    a_eval: Callable,
    p: float,
) -> float:
    """p-energy E[iint |b|^p dmu dt] + (E[iint |a|^p dmu dt])^{1/2} on [0, 1].

    Expectations are Monte Carlo means over the supplied per-outcome
    measure curves, the time integral is trapezoidal on the curve's grid
    and the measure integral averages over atoms.
    b_eval(t, xs) and a_eval(t, xs) receive xs of shape (N, d) and must
    broadcast to (N, d) resp. (N, d, d); |a| is the Frobenius norm.
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    if len(mu_samples) == 0:
        raise ValueError("need at least one sampled curve")
    b_total = a_total = 0.0
    for mp in mu_samples:
        times = mp.times
        b_t, a_t = np.empty((2, times.size))
        for i, (t, xs) in enumerate(zip(times, mp.atoms)):
            n, d = xs.shape
            bv = np.broadcast_to(np.asarray(b_eval(t, xs), float), (n, d))
            av = np.broadcast_to(np.asarray(a_eval(t, xs), float), (n, d, d))
            b_t[i] = np.mean(np.sqrt(np.einsum("nd,nd->n", bv, bv)) ** p)
            a_t[i] = np.mean(np.sqrt(np.einsum("nij,nij->n", av, av)) ** p)
        b_total += np.trapezoid(b_t, times)
        a_total += np.trapezoid(a_t, times)
    n_mc = len(mu_samples)
    return float(b_total / n_mc + np.sqrt(a_total / n_mc))


@dataclass(frozen=True)
class HolderWindow:
    """Time regularity exponent of the measure curve, with the admissible
    fractional-smoothness window, or None when it is empty (p <= 3)."""

    gamma: float
    window: Optional[tuple]


def sfpe_holder_exponent(p: float) -> HolderWindow:
    """gamma = 1/2 - 1/(2p); window (1/p, gamma), empty unless p > 3."""
    if not p > 1:
        raise ValueError("p must be > 1")
    gamma = 0.5 - 1.0 / (2.0 * p)
    window = (1.0 / p, gamma) if p > 3 else None
    return HolderWindow(gamma=gamma, window=window)


@functools.lru_cache(maxsize=None)
def _identity(c: float, d: int) -> np.ndarray:
    """c I_d, built once per (c, d) and read-only, as the presets share it."""
    m = c * np.eye(d)
    m.setflags(write=False)
    return m


def _preset(name: str, drift: Callable, a_scale: float, s_scale: float):
    """Factory of the preset with a = a_scale I and sigma = s_scale I."""
    return lambda: SdeCoefficients(
        drift=drift,
        diffusion_a=lambda t, x, w: _identity(a_scale, x.shape[-1]),
        common_sigma=lambda t, x, w: _identity(s_scale, x.shape[-1]),
        name=name,
    )


def _zero_drift(t, x, w):
    return np.zeros_like(x)


def _form2_drift(t, x, w):
    # -1/2 grad log rho_t for rho_t = N(w, t); singular at t = 0
    if t <= 0:
        raise ValueError("form-2 drift is singular at t = 0; start at t0 > 0")
    return (x - w) / (2.0 * t)


_PRESETS = {
    "she-form1": _preset("she-form1", _zero_drift, 1.0, 1.0),
    "she-form2": _preset("she-form2", _form2_drift, 0.5, 1.0),
    "heat": _preset("heat", _zero_drift, 0.5, 0.0),
    # 2a - sigma sigma^T = -I: fails parabolicity on purpose
    "degenerate": _preset("degenerate", _zero_drift, 0.0, 1.0),
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
