"""Finitely supported path measures over measure-valued curves.

Given a curve of measures sampled at the dyadic times of level n, a lift
is a weighted family of dyadic paths whose time-t marginals reproduce
the curve. A curve is one validated atom array of shape (K, N, d): sorted
quantile rows (d = 1), or particle positions over one shared label set
(nu-based, any d). Either way atom j of every slice is coupled to atom j
of every other, so the lift's paths are the same array read path by path
(a view, not a copy), every pairwise marginal of a quantile lift is an
optimal coupling, and the coupling is nested across all coarser dyadic
levels.

Energies use the one set of kernels in ``path_norms``, which serves paths,
lifts and curves, through one kind dispatch (``_energy``). A lift's paths
are its atoms: the kernels reduce each path on its own and weight last, so
the lift energy is sum_j w_j E(path_j) with no loop over paths. A curve is
one atom of weight 1 whose pair cost is W_p^p between slices, in place of
|X_v - X_u|^p. The lift energy never undercuts the curve energy.
"""

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Optional, Sequence, TextIO

import numpy as np

from . import _rng
from ._codec import grid_depth, json_fields, read_table, write_table
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
    _sobolev_sum,
)
from .quantile_transport import (
    _WEIGHT_TOL,
    QuantileMeasure,
    _sorted_cloud,
    _sorted_clouds_cost,
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
        if arr.ndim != 3 or arr.shape[0] == 0 or arr.shape[2] == 0:
            raise ValueError("paths must be a nonempty (N, K, d) array, d >= 1")
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


def _at(times: np.ndarray, k: int) -> str:
    """Where slice k of a curve sits, for error messages."""
    return f"slice k={k} (t={float(times[k])!r})"


@dataclass(frozen=True)
class MeasurePathSample:
    """A measure-valued curve on the level-n dyadic grid times (K = 2^n + 1).

    atoms (K, N, d) holds the N equal-weight atoms of slice k in row k; a
    (K, N) array is read as d = 1. labels is None for a quantile curve
    (d = 1, rows sorted) or one (N, d) label array shared by every slice
    of an ensemble curve. Validated once, naming the first bad slice; the
    curve keeps read-only views, so its lifts share them without a copy.
    """

    times: np.ndarray
    atoms: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        atoms = np.asarray(self.atoms, dtype=float).view()
        if atoms.ndim == 2:
            atoms = atoms[:, :, None]
        k = times.size
        if atoms.ndim != 3 or atoms.size == 0 or times.shape != (len(atoms),):
            raise ValueError("atoms must be nonempty (K, N, d), K = len(times)")
        if k < 2 or (k - 1) & (k - 2):
            raise ValueError("number of time points must be 2^n + 1")
        if not np.allclose(times, np.linspace(0.0, 1.0, k), rtol=0, atol=1e-12):
            raise ValueError("times must be the dyadic level-n grid of [0, 1]")
        if not np.isfinite(atoms).all():
            where = _at(times, np.argmin(np.isfinite(atoms).all(axis=(1, 2))))
            raise ValueError(f"{where}: atoms must be finite")
        labels = self.labels
        if labels is None:
            if atoms.shape[2] != 1:
                raise ValueError("a quantile curve is one-dimensional")
            unsorted = (np.diff(atoms[:, :, 0], axis=1) < 0).any(axis=1)
            if unsorted.any():
                where = _at(times, np.argmax(unsorted))
                raise ValueError(f"{where}: quantiles must be nondecreasing")
        else:
            labels = np.asarray(labels, dtype=float).view()
            if labels.shape != atoms.shape[1:] or not np.isfinite(labels).all():
                raise ValueError("labels must be finite, one (d,) row per atom")
            labels.flags.writeable = False
        atoms.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_measures(cls, measures: Sequence) -> "MeasurePathSample":
        """Stack per-slice QuantileMeasure or ParticleEnsemble objects that
        share their atom count (and, for ensembles, their labels)."""
        if all(isinstance(m, QuantileMeasure) for m in measures):
            rows, labels = [m.quantiles[:, None] for m in measures], None
        elif all(isinstance(m, ParticleEnsemble) for m in measures):
            rows, labels = [m.positions for m in measures], measures[0].labels
        else:
            raise ValueError("measures must be uniformly QuantileMeasure or "
                             "ParticleEnsemble")
        times = np.linspace(0.0, 1.0, len(rows))
        for k, (m, row) in enumerate(zip(measures, rows)):
            if row.shape != rows[0].shape:
                raise ValueError(
                    f"{_at(times, k)}: {row.shape[0]} atoms in dimension "
                    f"{row.shape[1]}, slice 0 has {rows[0].shape}"
                )
            if labels is not None and not np.array_equal(m.labels, labels):
                raise ValueError(f"{_at(times, k)}: labels differ from slice 0")
        return cls(times, np.stack(rows), labels)

    @property
    def level(self) -> int:
        return (self.times.size - 1).bit_length() - 1

    @property
    def is_quantile(self) -> bool:
        return self.labels is None


def build_dyadic_lift(
    mp: MeasurePathSample, coupler: str, n: int
) -> PathMeasure:
    """Assemble the level-n lift of a sampled measure curve.

    coupler "quantile" (d = 1) follows the quantile trajectories, so each
    pairwise dyadic marginal of the result is the monotone, hence
    optimal, coupling, nested across every coarser level m <= n.
    coupler "nu_based" pairs particles by their shared labels. Paths
    interpolate linearly between the coupled points. Either way the paths
    are a read-only transposed view of the curve's atoms, not a copy.
    """
    if mp.level != n:
        raise ValueError(f"level-{n} lift needs {2 ** n + 1} time points, "
                         f"got {mp.times.size}")
    if coupler not in ("quantile", "nu_based"):
        raise ValueError(f"unknown coupler {coupler!r}")
    if (coupler == "quantile") != mp.is_quantile:
        raise ValueError(f"{coupler} coupler does not fit this curve's kind")
    n_atoms = mp.atoms.shape[1]
    return PathMeasure(
        depth=n,
        paths=mp.atoms.transpose(1, 0, 2),
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
    traj = mp.atoms[:, :, 0].T.copy()  # (N, K), writable
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
    rows are sorted already); ensembles in d > 1 keep label order.
    """
    if mp.is_quantile or mp.atoms.shape[2] > 1:
        return mp.atoms
    return np.sort(mp.atoms, axis=1, kind="stable")


def _lift_cost(pi: PathMeasure, p: float) -> _PairCost:
    """|X_j - X_i|^p per path between the grid times of a lift's paths."""
    return _PairCost(pi.paths.transpose(1, 0, 2), pi.weights, p)


class _CurveCost(_PairCost):
    """W_p^p between the 1-d slices of a curve, one column of weight 1.

    slices (K, N, 1) holds equal-weight atoms sorted within each site, so
    W_p^p is the mean of |X_j - X_i|^p over matched atoms.
    """

    def __init__(self, slices: np.ndarray, p: float):
        if slices.shape[2] != 1:
            raise ValueError("exact W_p needs one-dimensional marginals")
        super().__init__(slices, np.ones(1), p)
        self.atom_weights = np.full(slices.shape[1], 1.0 / slices.shape[1])

    def __call__(self, i, j) -> np.ndarray:
        return (super().__call__(i, j) @ self.atom_weights)[..., None]


class _CloudCost(_CurveCost):
    """Exact W_p^p between weighted time marginals in d = 1, any weights.

    Each site's cloud is checked and sorted once. Only cells with j > i
    are computed (one merge of two sorted clouds each); the others are
    left at zero, which no kernel reads.
    """

    def __init__(self, atoms: np.ndarray, weights: np.ndarray, p: float):
        super().__init__(atoms, p)
        self.clouds = [_sorted_cloud(site[:, 0], weights) for site in atoms]

    def __call__(self, i, j) -> np.ndarray:
        sites = np.arange(self.k)
        ii, jj = np.broadcast_arrays(sites[i], sites[j])
        out = np.zeros(ii.shape + (1,))
        for pos in zip(*np.nonzero(jj > ii)):
            out[pos] = _sorted_clouds_cost(
                *self.clouds[ii[pos]], *self.clouds[jj[pos]], self.p
            )
        return out


def _energy(cost: _PairCost, spec: NormSpec) -> float:
    """Energy on [0, 1] of a lift's paths or of a curve, from its pair cost.

    * besov:  sum_m 2^{m(alpha p - 1)} sum_k cost(t_k^{(m)}, t_{k+1}^{(m)})
    * holder: sup_{u<v} cost(u, v) / (v-u)^{gamma p}
    * pvar:   sup over dissections of the sum of cost along the dissection
    * frac_sobolev (lifts only): the W^{alpha,p} energy by midpoint
      quadrature on the grid cells, as in ``frac_sobolev_seminorm``

    Each path's energy is taken on its own and weighted last, so a lift
    pays sum_j w_j seminorm(path_j)^p; a curve pays its W_p energy.
    """
    h = 1.0 / (cost.k - 1)
    if spec.kind == "besov":
        return _besov_energy(cost, spec.alpha, spec.p)
    if spec.kind == "holder":
        return _holder_max(cost, h, (spec.gamma * spec.p,))[0]
    if spec.kind == "pvar":
        return _pvar_dp(cost)
    if isinstance(cost, _CurveCost):
        raise ValueError("curve energy supports besov, holder and pvar kinds")
    return _sobolev_sum(cost, h, spec.alpha)


def lift_energy(pi: PathMeasure, spec: NormSpec) -> float:
    """Energy sum_j w_j * seminorm(path_j)^p of the lift."""
    return _energy(_lift_cost(pi, spec.p), spec)


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
    cost = _lift_cost(pi, p)
    coupling_cost = float(cost(ks, kt) @ cost.weights)
    wp_cost = marginal_wasserstein(pi, s, t, p) ** p
    return OptimalityGap(
        coupling_cost=coupling_cost,
        wp_cost=wp_cost,
        gap=coupling_cost - wp_cost,
    )


def marginal_curve_energy(pi: PathMeasure, spec: NormSpec) -> float:
    """Regularity energy of the induced marginal curve t -> mu_t (d = 1).

    The curve metric is W_p between grid-time marginals, exact for
    weighted atoms; the energy is the kernel of ``_energy`` run on the
    column-sorted paths (uniform weights) or on the exact weighted W_p^p
    costs. Each energy is dominated by the corresponding lift energy.
    """
    if pi.dim != 1:
        raise ValueError("marginal curve energy is only computed for d = 1")
    if pi.uniform_weights():
        slices = np.sort(pi.paths, axis=0).transpose(1, 0, 2)
        cost = _CurveCost(np.ascontiguousarray(slices), spec.p)
    else:
        cost = _CloudCost(pi.paths.transpose(1, 0, 2), pi.weights, spec.p)
    return _energy(cost, spec)


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
        kind = "quantile" if mp.is_quantile else "nu_based"
        pi = build_dyadic_lift(mp, coupler or kind, n)
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
    depth, dim, weights, paths = json_fields(
        obj, "path measure", depth=int, dim=(int, None), weights=list,
        paths=list,
    )
    pi = PathMeasure(depth=depth, paths=paths, weights=weights)
    if dim is not None and dim != pi.dim:
        raise ValueError("dim field disagrees with path array")
    return pi


def pm_to_csv(pi: PathMeasure, f: TextIO) -> None:
    """Long format: one row per (path, time), columns path_id, t, x_1..x_d."""
    header = ["path_id", "t"] + [f"x_{i + 1}" for i in range(pi.dim)]
    times = pi.times().tolist()
    write_table(f, header, chain.from_iterable(
        zip(repeat(j), times, *x.T.tolist()) for j, x in enumerate(pi.paths)
    ))


def pm_from_csv(f: TextIO, weights=None) -> PathMeasure:
    """Read the long CSV format back (weights default to uniform)."""
    header, arr = read_table(f)
    if header[:2] != ["path_id", "t"] or len(header) < 3:
        raise ValueError("expected columns path_id, t, x_1..")
    ids, counts = np.unique(arr[:, 0], return_counts=True)
    if not np.array_equal(ids, np.arange(ids.size)):
        raise ValueError("path_id values must be the integers 0..N-1")
    if np.any(counts != counts[0]):
        raise ValueError("every path_id must have the same number of rows")
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    rows = arr[order].reshape(ids.size, -1, len(header))
    if weights is None:
        weights = np.full(ids.size, 1.0 / ids.size)
    return PathMeasure(grid_depth(rows[:, :, 1], 1.0), rows[:, :, 2:], weights)
