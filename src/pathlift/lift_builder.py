"""Finitely supported path measures over measure-valued curves.

Given a curve of measures sampled at the dyadic times of level n, a lift
is a weighted family of dyadic paths whose time-t marginals reproduce
the curve. The builder couples consecutive (in fact all) time slices
through either the quantile multi-coupling (d = 1) or a shared particle
label set (nu-based, any d) and interpolates linearly in space, so every
pairwise marginal of the constructed lift is an optimal coupling and the
coupling is nested across all coarser dyadic levels.

Energies use the one set of kernels in ``path_norms``, which serves paths,
lifts and curves: a lift pays the path energy path by path, and a curve
energy is the same kernel applied to the sorted atoms of the slices, with
W_p^p in place of |X_v - X_u|^p. The lift energy never undercuts it.
"""

import csv
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO, Union

import numpy as np

from . import _rng
from .nu_transport import ParticleEnsemble
from .path_norms import (
    DyadicPath,
    NormSpec,
    _besov_energy,
    _grid_index,
    _holder_max,
    _level_costs,
    _PairCost,
    _pvar_dp,
)
from .quantile_transport import (
    _WEIGHT_TOL,
    QuantileMeasure,
    monotone_multicoupling,
    wasserstein_p_clouds,
)

__all__ = [
    "PathMeasure",
    "MeasurePathSample",
    "OptimalityGap",
    "RefineTrackRow",
    "TightnessReport",
    "build_dyadic_lift",
    "build_shuffled_lift",
    "lift_energy",
    "marginal",
    "marginal_cloud",
    "marginal_wasserstein",
    "marginal_curve_energy",
    "pairwise_optimality_gap",
    "refine_and_track",
    "tightness_diagnostic",
    "pm_to_json",
    "pm_from_json",
    "pm_to_csv",
    "pm_from_csv",
    "bound_factor",
]

@dataclass(frozen=True)
class PathMeasure:
    """Weighted collection of dyadic paths on [0, 1] (common depth and dim).

    paths has shape (N, 2^depth + 1, d); weights are nonnegative and sum
    to 1 within 1e-12.
    """

    depth: int
    paths: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.paths, dtype=float)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[0] == 0:
            raise ValueError("paths must be a nonempty (N, K, d) array")
        if arr.shape[1] != 2 ** self.depth + 1:
            raise ValueError(
                f"paths have {arr.shape[1]} grid points, expected "
                f"{2 ** self.depth + 1} for depth {self.depth}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError("path values must be finite")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (arr.shape[0],):
            raise ValueError("weights must be one per path")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to 1 within 1e-12")
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "paths", arr)
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_paths(cls, paths: Sequence[DyadicPath], weights=None) -> "PathMeasure":
        if len(paths) == 0:
            raise ValueError("need at least one path")
        depth = paths[0].depth
        dim = paths[0].dim
        for q in paths:
            if q.depth != depth or q.dim != dim:
                raise ValueError("all paths must share depth and dim")
            if q.horizon != 1.0:
                raise ValueError("path measures live on horizon 1")
        arr = np.stack([q.values for q in paths])
        if weights is None:
            weights = np.full(len(paths), 1.0 / len(paths))
        return cls(depth=depth, paths=arr, weights=weights)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dim(self) -> int:
        return self.paths.shape[2]

    def path(self, j: int) -> DyadicPath:
        return DyadicPath(self.depth, self.paths[j])

    def times(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, 2 ** self.depth + 1)

    def uniform_weights(self) -> bool:
        return bool(
            np.all(np.abs(self.weights - 1.0 / self.n_paths) <= _WEIGHT_TOL)
        )


MeasureLike = Union[QuantileMeasure, ParticleEnsemble]


@dataclass(frozen=True)
class MeasurePathSample:
    """A measure-valued curve sampled at the dyadic times of one level.

    measures are either all QuantileMeasure or all ParticleEnsemble; in
    the latter case they must share the label set.
    """

    times: np.ndarray
    measures: tuple

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        measures = tuple(self.measures)
        if times.ndim != 1 or times.size != len(measures):
            raise ValueError("one measure per time point required")
        if len(measures) < 2:
            raise ValueError("need at least the two endpoint times")
        n_int = len(measures) - 1
        level = n_int.bit_length() - 1
        if 2 ** level != n_int:
            raise ValueError("number of time points must be 2^n + 1")
        grid = np.linspace(0.0, 1.0, n_int + 1)
        if not np.allclose(times, grid, rtol=0, atol=1e-12):
            raise ValueError("times must be the dyadic level-n grid of [0, 1]")
        kinds = {type(m) for m in measures}
        if len(kinds) != 1 or not (
            isinstance(measures[0], (QuantileMeasure, ParticleEnsemble))
        ):
            raise ValueError(
                "measures must be uniformly QuantileMeasure or ParticleEnsemble"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "measures", measures)

    @classmethod
    def from_measures(cls, measures: Sequence[MeasureLike]) -> "MeasurePathSample":
        n = len(measures) - 1
        return cls(np.linspace(0.0, 1.0, n + 1), tuple(measures))

    @property
    def level(self) -> int:
        return (len(self.measures) - 1).bit_length() - 1

    @property
    def is_quantile(self) -> bool:
        return isinstance(self.measures[0], QuantileMeasure)


def build_dyadic_lift(
    mp: MeasurePathSample, coupler: str, n: int
) -> PathMeasure:
    """Assemble the level-n lift of a sampled measure curve.

    coupler "quantile" (d = 1) follows the quantile trajectories, so each
    pairwise dyadic marginal of the result is the monotone, hence
    optimal, coupling, nested across every coarser level m <= n.
    coupler "nu_based" pairs particles by their shared labels. Paths
    interpolate linearly between the coupled points.
    """
    if len(mp.measures) != 2 ** n + 1:
        raise ValueError(
            f"level-{n} lift needs {2 ** n + 1} time points, "
            f"got {len(mp.measures)}"
        )
    if coupler == "quantile":
        if not mp.is_quantile:
            raise ValueError("quantile coupler needs QuantileMeasure slices")
        traj = monotone_multicoupling(mp.measures)  # (N, K)
        paths = traj[:, :, None]
    elif coupler == "nu_based":
        if mp.is_quantile:
            raise ValueError("nu_based coupler needs ParticleEnsemble slices")
        first = mp.measures[0]
        for e in mp.measures[1:]:
            if e.fingerprint != first.fingerprint:
                raise ValueError("ensembles do not share labels")
        paths = np.stack([e.positions for e in mp.measures], axis=1)
    else:
        raise ValueError(f"unknown coupler {coupler!r}")
    n_atoms = paths.shape[0]
    return PathMeasure(
        depth=n,
        paths=paths,
        weights=np.full(n_atoms, 1.0 / n_atoms),
    )


def build_shuffled_lift(mp: MeasurePathSample, seed: int) -> PathMeasure:
    """Control lift: marginals preserved, per-time pairing scrambled.

    Applies an independent random permutation to the atom order of every
    time slice after the first. Marginals are untouched, but the pairwise
    couplings are no longer monotone, so the energy strictly exceeds the
    quantile lift's whenever the slices have distinct atoms. Useful as
    the suboptimal baseline in comparisons.
    """
    if not mp.is_quantile:
        raise ValueError("shuffled lift is a 1d construction")
    traj = monotone_multicoupling(mp.measures).copy()
    n_atoms = traj.shape[0]
    for i in range(1, traj.shape[1]):
        perm = _rng.stream(seed, f"shuffle/{i}").permutation(n_atoms)
        traj[:, i] = traj[perm, i]
    return PathMeasure(
        depth=mp.level,
        paths=traj[:, :, None],
        weights=np.full(n_atoms, 1.0 / n_atoms),
    )


def _sorted_slices(mp: MeasurePathSample) -> np.ndarray:
    """Atoms of every slice of a curve, shape (K, N, d), equal weights.

    In d = 1 row k is sorted, the quantile function of slice k (quantile
    slices are not sorted again); ensembles in d > 1 keep label order.
    """
    rows = [
        m.quantiles[:, None] if mp.is_quantile else m.positions
        for m in mp.measures
    ]
    if len({r.shape for r in rows}) != 1:
        raise ValueError("marginals must share their atom count")
    atoms = np.stack(rows)
    if not mp.is_quantile and atoms.shape[2] == 1:
        atoms.sort(axis=1, kind="stable")
    return atoms


def _slices_cost(slices: np.ndarray, p: float) -> _PairCost:
    """W_p^p between 1-d slices held as sorted equal-weight atoms (K, N, 1)."""
    if slices.shape[2] != 1:
        raise ValueError("exact W_p needs one-dimensional marginals")
    n = slices.shape[1]
    return _PairCost(slices, np.full(n, 1.0 / n), p)


def _lift_cost(pi: PathMeasure, p: float) -> _PairCost:
    """w . |X_j - X_i|^p between the grid times of a lift's paths."""
    return _PairCost(pi.paths.transpose(1, 0, 2), pi.weights, p)


class _CloudCost(_PairCost):
    """Exact W_p^p between weighted time marginals in d = 1, any weights.

    Only cells with j > i are computed (one ``wasserstein_p_clouds`` call
    each); the others are left at zero, which no kernel reads.
    """

    def __call__(self, i, j) -> np.ndarray:
        sites = np.arange(self.k)
        ii, jj = np.broadcast_arrays(sites[i], sites[j])
        out = np.zeros(ii.shape)
        for pos in zip(*np.nonzero(jj > ii)):
            out[pos] = wasserstein_p_clouds(
                self.atoms[ii[pos], :, 0], self.weights,
                self.atoms[jj[pos], :, 0], self.weights, self.p,
            ) ** self.p
        return out


def _curve_energy(cost: _PairCost, spec: NormSpec) -> float:
    """Energy of a measure curve on [0, 1] from the W_p^p between slices.

    * besov:  sum_m 2^{m(alpha p - 1)} sum_k W_p^p(mu_{t_k}, mu_{t_{k+1}})
    * holder: sup_{u<v} W_p^p(mu_u, mu_v) / (v-u)^{gamma p}
    * pvar:   sup over dissections of sum W_p^p along the dissection
    """
    if spec.kind == "besov":
        return _besov_energy(cost, spec.alpha, spec.p)
    if spec.kind == "holder":
        return _holder_max(cost, 1.0 / (cost.k - 1), (spec.gamma * spec.p,))[0]
    if spec.kind == "pvar":
        return _pvar_dp(cost)
    raise ValueError("curve energy supports besov, holder and pvar kinds")


def lift_energy(pi: PathMeasure, spec: NormSpec) -> float:
    """Energy sum_j w_j * seminorm(path_j)^p of the lift."""
    if spec.kind == "besov":
        return _besov_energy(_lift_cost(pi, spec.p), spec.alpha, spec.p)
    total = 0.0
    for j in range(pi.n_paths):
        total += pi.weights[j] * spec.seminorm(pi.path(j)) ** spec.p
    return float(total)


def marginal_cloud(pi: PathMeasure, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Atom positions and weights of the time-t marginal (grid t only)."""
    k = _grid_index(t, pi.depth)
    return pi.paths[:, k, :].copy(), pi.weights.copy()


def marginal(pi: PathMeasure, t: float):
    """Time-t marginal of the lift at a grid time.

    For d = 1 with uniform weights, returns a QuantileMeasure (sorted
    atoms). For d > 1 returns the (positions, weights) cloud. Nonuniform
    1d weights have no equal-weight quantile representation; use
    ``marginal_cloud`` for those.
    """
    values, weights = marginal_cloud(pi, t)
    if pi.dim != 1:
        return values, weights
    if not pi.uniform_weights():
        raise ValueError(
            "nonuniform weights: use marginal_cloud for the weighted atoms"
        )
    return QuantileMeasure(np.sort(values[:, 0], kind="stable"))


def marginal_wasserstein(pi: PathMeasure, s: float, t: float, p: float) -> float:
    """Exact W_p between the time-s and time-t marginals (d = 1)."""
    if pi.dim != 1:
        raise ValueError("marginal W_p is only computed for d = 1")
    xs, wx = marginal_cloud(pi, s)
    ys, wy = marginal_cloud(pi, t)
    return wasserstein_p_clouds(xs[:, 0], wx, ys[:, 0], wy, p)


@dataclass(frozen=True)
class OptimalityGap:
    coupling_cost: float
    wp_cost: float
    gap: float


def pairwise_optimality_gap(
    pi: PathMeasure, s: float, t: float, p: float
) -> OptimalityGap:
    """Cost of the lift's (s, t) coupling against the optimal cost (d = 1).

    gap = coupling_cost - W_p^p(marginal_s, marginal_t) is nonnegative up
    to float noise; zero identifies an optimal pairwise coupling.
    """
    if pi.dim != 1:
        raise ValueError("optimality gap is only computed for d = 1")
    ks, kt = _grid_index(s, pi.depth), _grid_index(t, pi.depth)
    coupling_cost = float(_lift_cost(pi, p)(ks, kt))
    wp_cost = marginal_wasserstein(pi, s, t, p) ** p
    return OptimalityGap(
        coupling_cost=coupling_cost,
        wp_cost=wp_cost,
        gap=coupling_cost - wp_cost,
    )


def marginal_curve_energy(pi: PathMeasure, spec: NormSpec) -> float:
    """Regularity energy of the induced marginal curve t -> mu_t (d = 1).

    The curve metric is W_p between grid-time marginals, exact for
    weighted atoms; the energy is the curve kernel of ``_curve_energy``
    applied to the column-sorted paths (uniform weights) or to the exact
    weighted W_p^p costs. Each energy is dominated by the corresponding
    lift energy.
    """
    if pi.dim != 1:
        raise ValueError("marginal curve energy is only computed for d = 1")
    if pi.uniform_weights():
        slices = np.sort(pi.paths, axis=0).transpose(1, 0, 2)
        cost = _slices_cost(np.ascontiguousarray(slices), spec.p)
    else:
        cost = _CloudCost(pi.paths.transpose(1, 0, 2), pi.weights, spec.p)
    return _curve_energy(cost, spec)


def bound_factor(alpha: float, p: float) -> float:
    """Geometric tail factor 1/(1 - 2^{-(p - alpha p)}) of the lift bound."""
    if not (p >= 1 and 0 < alpha < 1):
        raise ValueError("need p >= 1 and alpha in (0, 1)")
    return 1.0 / (1.0 - 2.0 ** -(p - alpha * p))


@dataclass(frozen=True)
class RefineTrackRow:
    n: int
    energy: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.energy <= self.bound * (1 + 1e-12) + 1e-12


def refine_and_track(
    mp_provider: Callable[[int], MeasurePathSample],
    spec: NormSpec,
    n_max: int,
    coupler: Optional[str] = None,
) -> list[RefineTrackRow]:
    """Lift energies across refinement levels n = 0..n_max, with the bound.

    mp_provider(n) must sample the same underlying curve at level n. The
    reported bound is the geometric-tail factor times the besov energy of
    the marginal curve at the finest level; a violated bound is flagged
    on the row (``ok``), not raised.
    """
    if spec.kind != "besov":
        raise ValueError("refinement tracking is defined for the besov energy")
    rows = []
    finest = None
    for n in range(n_max + 1):
        mp = mp_provider(n)
        if coupler is None:
            use = "quantile" if mp.is_quantile else "nu_based"
        else:
            use = coupler
        pi = build_dyadic_lift(mp, use, n)
        rows.append((n, lift_energy(pi, spec)))
        if n == n_max:
            finest = pi
    bound = bound_factor(spec.alpha, spec.p) * marginal_curve_energy(
        finest, spec
    )
    return [RefineTrackRow(n=n, energy=e, bound=bound) for n, e in rows]


@dataclass(frozen=True)
class TightnessReport:
    sup_ratio: float
    start_moment: float
    level_ratios: tuple


def tightness_diagnostic(
    pis: Sequence[PathMeasure], p: float, gamma: float
) -> TightnessReport:
    """Dyadic-increment moment ratios certifying Holder-type tightness.

    sup over members, levels m and positions k of
    (sum_j w_j |path_j(t_{k+1}^{(m)}) - path_j(t_k^{(m)})|^p) / |dt_m|^{p gamma},
    together with the largest start moment sum_j w_j |path_j(0)|. Finite,
    depth-stable values support tightness of the family; growth across
    levels signals a gamma that is too ambitious.
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    if not 1.0 / p < gamma <= 1:
        raise ValueError("gamma must lie in (1/p, 1]")
    if len(pis) == 0:
        raise ValueError("need at least one path measure")
    start_moment = 0.0
    per_level = np.zeros(max(pi.depth for pi in pis) + 1)
    for pi in pis:
        x0_norms = np.linalg.norm(pi.paths[:, 0, :], axis=1)
        start_moment = max(start_moment, float(pi.weights @ x0_norms))
        levels = _level_costs(_lift_cost(pi, p))
        for m, moments in enumerate(levels):  # one moment per interval k
            ratio = float(np.max(moments)) / (2.0 ** -m) ** (p * gamma)
            per_level[m] = max(per_level[m], ratio)
    return TightnessReport(
        sup_ratio=float(per_level.max()),
        start_moment=start_moment,
        level_ratios=tuple(per_level),
    )


# ---------------------------------------------------------------------------
# serialization


def pm_to_json(pi: PathMeasure) -> dict:
    return {
        "depth": pi.depth,
        "dim": pi.dim,
        "weights": pi.weights.tolist(),
        "paths": pi.paths.tolist(),
    }


def pm_from_json(obj) -> PathMeasure:
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        depth = int(obj["depth"])
        weights = np.asarray(obj["weights"], dtype=float)
        paths = np.asarray(obj["paths"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed path measure object: {exc}") from exc
    pi = PathMeasure(depth=depth, paths=paths, weights=weights)
    if "dim" in obj and int(obj["dim"]) != pi.dim:
        raise ValueError("dim field disagrees with path array")
    return pi


def pm_to_csv(pi: PathMeasure, f: TextIO) -> None:
    """Long format: one row per (path, time), columns path_id, t, x_1..x_d."""
    writer = csv.writer(f, lineterminator="\r\n")
    writer.writerow(["path_id", "t"] + [f"x_{i + 1}" for i in range(pi.dim)])
    times = pi.times()
    for j in range(pi.n_paths):
        for k, t in enumerate(times):
            writer.writerow(
                [j, repr(float(t))]
                + [repr(float(v)) for v in pi.paths[j, k]]
            )


def pm_from_csv(f: TextIO, weights=None) -> PathMeasure:
    """Read the long CSV format back (weights default to uniform)."""
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if header[:2] != ["path_id", "t"]:
        raise ValueError("expected columns path_id, t, x_1..")
    by_path: dict = {}
    for line in reader:
        if not line:
            continue
        try:
            j = int(line[0])
            t = float(line[1])
            xs = [float(v) for v in line[2:]]
        except ValueError as exc:
            raise ValueError(f"malformed CSV row {line!r}") from exc
        by_path.setdefault(j, []).append((t, xs))
    if not by_path:
        raise ValueError("CSV contains no rows")
    ids = sorted(by_path)
    if ids != list(range(len(ids))):
        raise ValueError("path_id values must be 0..N-1")
    arrs = []
    for j in ids:
        rows = sorted(by_path[j])
        arrs.append([xs for _, xs in rows])
    paths = np.asarray(arrs, dtype=float)
    n = paths.shape[1] - 1
    depth = n.bit_length() - 1
    if n <= 0 or 2 ** depth != n:
        raise ValueError("each path must hold 2^M + 1 grid rows")
    if weights is None:
        weights = np.full(len(ids), 1.0 / len(ids))
    return PathMeasure(depth=depth, paths=paths, weights=weights)
