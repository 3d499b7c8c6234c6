"""Finitely supported path measures over measure-valued curves.

Given a curve of measures on R sampled at the dyadic times of level n, a
lift is a weighted family of dyadic paths whose time-t marginals
reproduce the curve. A curve is one validated array of sorted quantile
rows, shape (K, N, 1). Its quantile lift couples atom j of every slice to
atom j of every other, so the lift's paths are the same array read path
by path (a view, not a copy), every pairwise marginal is an optimal
coupling, and the coupling is nested across all coarser dyadic levels.
A lift in R^d is a ``PathMeasure`` of its particle paths; the lift
energies take any d.

Energies go through ``path_norms._energy``, the one kind dispatch of the
kernels that serve paths, lifts and curves; this module builds the pair
costs of lifts and curves. A lift's paths are its atoms: the kernels
reduce each path on its own and weight last, so the lift energy is
sum_j w_j E(path_j) with no loop over paths. A curve is one atom of
weight 1 whose pair cost is W_p^p between slices, in place of
|X_v - X_u|^p. The lift energy never undercuts the curve energy.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from typing import Callable, Sequence, TextIO

import numpy as np

from . import _rng
from ._codec import _ROW_BLOCK, grid_depth, read_table, write_table
from .path_norms import (
    _BLOCK_CELLS,
    DyadicPath,
    NormSpec,
    _check_depth,
    _energy,
    _grid_index,
    _level_blocks,
    _PairCost,
)
from .quantile_transport import (
    _WEIGHT_TOL,
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
    "marginal_cloud",
    "marginal_wasserstein",
    "marginal_curve_energy",
    "pairwise_optimality_gap",
    "refine_and_track",
    "tightness_diagnostic",
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
        _check_depth(self.depth)
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
    """A measure curve on R at the level-n dyadic grid times (K = 2^n + 1).

    atoms (K, N, 1) holds the N equal-weight atoms of slice k in row k,
    sorted: the quantile function of slice k at t_k = k/2^n. A (K, N)
    array is read as (K, N, 1). Validated once with no float copy, naming
    the first bad slice; it keeps a read-only view, which its quantile
    lift shares.
    """

    atoms: np.ndarray

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float).view()
        if atoms.ndim == 2:
            atoms = atoms[:, :, None]
        if atoms.ndim != 3 or atoms.size == 0:
            raise ValueError("atoms must be a nonempty (K, N, 1) array")
        k = len(atoms)
        if k < 2 or (k - 1) & (k - 2):
            raise ValueError("number of time points must be 2^n + 1")
        object.__setattr__(self, "atoms", atoms)
        # between finite end columns a NaN or infinite atom makes some step
        # fail >=: one pass clears a good curve, and only a bad one pays
        # for the checks that name its first bad slice
        q = atoms[:, :, 0]
        ok = np.isfinite(q[:, [0, -1]]).all() and (q[:, 1:] >= q[:, :-1]).all()
        if atoms.shape[2] != 1 or not ok:
            if not np.isfinite(atoms).all():
                bad = np.argmin(np.isfinite(atoms).all(axis=(1, 2)))
                raise ValueError(f"{_at(self.times, bad)}: "
                                 "atoms must be finite")
            if atoms.shape[2] != 1:
                raise ValueError(
                    "a quantile curve has one-dimensional marginals")
            unsorted = (q[:, 1:] < q[:, :-1]).any(axis=1)
            raise ValueError(f"{_at(self.times, np.argmax(unsorted))}: "
                             "quantiles must be nondecreasing")
        atoms.flags.writeable = False

    @property
    def times(self) -> np.ndarray:
        """The grid times k/2^n, k = 0..K-1."""
        return np.linspace(0.0, 1.0, len(self.atoms))

    @property
    def level(self) -> int:
        return (len(self.atoms) - 1).bit_length() - 1


def build_dyadic_lift(mp: MeasurePathSample, n: int) -> PathMeasure:
    """Assemble the level-n quantile lift of a sampled measure curve.

    The paths follow the quantile trajectories, so each pairwise dyadic
    marginal of the result is the monotone, hence optimal, coupling,
    nested across every coarser level m <= n. Paths interpolate linearly
    between the coupled points. They are a read-only transposed view of
    the curve's atoms, not a copy.
    """
    if mp.level != n:
        raise ValueError(f"level-{n} lift needs {2 ** n + 1} time points, "
                         f"got {len(mp.atoms)}")
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
    traj = mp.atoms[:, :, 0].T.copy()  # (N, K), writable
    n_atoms = traj.shape[0]
    names = (f"shuffle/{i}" for i in range(1, traj.shape[1]))
    for i, gen in enumerate(_rng.streams(seed, names), start=1):
        traj[:, i] = traj[gen.permutation(n_atoms), i]
    return PathMeasure(
        depth=mp.level,
        paths=traj[:, :, None],
        weights=np.full(n_atoms, 1.0 / n_atoms),
    )


def _lift_cost(pi: PathMeasure, p: float) -> _PairCost:
    """|X_j - X_i|^p per path between the grid times of a lift's paths."""
    return _PairCost(pi.paths.transpose(1, 0, 2), pi.weights, p)


class _CurveCost(_PairCost):
    """W_p^p between the 1-d slices of a curve, one column of weight 1.

    slices (K, N, 1) holds equal-weight atoms sorted within each site, so
    W_p^p is the mean of |X_j - X_i|^p over matched atoms. It has no
    midpoint slices yet, so the Sobolev energy refuses a curve.
    """

    def __init__(self, slices: np.ndarray, p: float):
        super().__init__(slices, np.ones(1), p)
        self.atom_weights = np.full(slices.shape[1], 1.0 / slices.shape[1])

    def __call__(self, i, j) -> np.ndarray:
        return (super().__call__(i, j) @ self.atom_weights)[..., None]

    def midpoints(self):
        raise ValueError("curve energy supports besov, holder and pvar kinds")

    def pvar_sites(self):
        # every site: one dissection serves all atoms of a slice, so the
        # turning points of each atom's own path need not hold one
        return self

    def flat(self) -> bool:
        return bool(np.all(self.atoms == self.atoms[:1]))

    def offset_blocks(self):
        # one offset row a block, from __call__ on runs of at most
        # _BLOCK_CELLS cells split at the wrap K - o, each pair as i < j
        k, step = self.k, max(1, _BLOCK_CELLS // self.atoms[0].size)
        for o in range(1, k // 2 + 1):
            cuts = sorted({*range(0, k, step), k - o, k})
            runs = [self(slice(a, b), slice(a + o, b + o)) if b <= k - o else
                    self(slice(a + o - k, b + o - k), slice(a, b))
                    for a, b in zip(cuts, cuts[1:])]
            yield 0, o, np.concatenate(runs).reshape(1, 1, k)


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

    def flat(self) -> bool:
        # equal measures: the same values, each run of ties carrying the
        # same cumulative weight at its last atom (the order of tied atoms,
        # and so the weights within a run, may differ from site to site)
        def measure(v, c):
            last = np.append(v[1:] != v[:-1], True)
            return v[last], c[last]

        first = measure(*self.clouds[0])
        return all(np.array_equal(a, b) for cloud in self.clouds[1:]
                   for a, b in zip(measure(*cloud), first))


def lift_energy(pi: PathMeasure, spec: NormSpec) -> float:
    """Energy sum_j w_j * seminorm(path_j)^p of the lift."""
    return _energy(_lift_cost(pi, spec.p), spec, 1.0)


def marginal_cloud(pi: PathMeasure, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Atom positions and weights of the time-t marginal (grid t only)."""
    k = _grid_index(t, pi.depth)
    return pi.paths[:, k, :].copy(), pi.weights.copy()


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
    return _energy(cost, spec, 1.0)


def bound_factor(alpha: float, p: float) -> float:
    """Geometric tail factor 1/(1 - 2^{-(p - alpha p)}) of the lift bound."""
    if not (p >= 1 and 0 < alpha < 1):
        raise ValueError("need p >= 1 and alpha in (0, 1)")
    return 1.0 / (1.0 - 2.0 ** -(p - alpha * p))


@dataclass(frozen=True)
class RefineTrackRow:
    """Lift energy at level n; bound = bound_factor * marginal_energy."""

    n: int
    energy: float
    bound: float
    marginal_energy: float

    @property
    def ok(self) -> bool:
        return self.energy <= self.bound * (1 + 1e-12) + 1e-12


def refine_and_track(
    mp_provider: Callable[[int], MeasurePathSample],
    spec: NormSpec,
    n_max: int,
) -> list[RefineTrackRow]:
    """Lift energies across refinement levels n = 0..n_max, with the bound.

    mp_provider(n) must sample the same underlying curve at level n. The
    reported bound is the geometric-tail factor times the besov energy of
    the marginal curve at the finest level, which every row carries too;
    a violated bound is flagged on the row (``ok``), not raised.
    """
    if spec.kind != "besov":
        raise ValueError("refinement tracking is defined for the besov energy")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    rows = []
    for n in range(n_max + 1):
        pi = build_dyadic_lift(mp_provider(n), n)
        rows.append((n, lift_energy(pi, spec)))
    marg = marginal_curve_energy(pi, spec)  # the finest level's lift
    bound = bound_factor(spec.alpha, spec.p) * marg
    return [RefineTrackRow(n, e, bound, marg) for n, e in rows]


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
        cost = _lift_cost(pi, p)
        for m in range(pi.depth + 1):
            top = max(np.max(c @ cost.weights) for c in _level_blocks(cost, m))
            ratio = float(top) / (2.0 ** -m) ** (p * gamma)
            per_level[m] = max(per_level[m], ratio)
    return TightnessReport(
        sup_ratio=float(per_level.max()),
        start_moment=start_moment,
        level_ratios=tuple(per_level),
    )


# ---------------------------------------------------------------------------
# serialization


def pm_to_csv(pi: PathMeasure, f: TextIO) -> None:
    """Long format: one row per (path, time), columns path_id, t, x_1..x_d."""
    header = ["path_id", "t"] + [f"x_{i + 1}" for i in range(pi.dim)]
    times, blocks = pi.times(), range(0, pi.paths.shape[1], _ROW_BLOCK)
    # cells go a block of times at a time; a grid of depth <= 12 (two
    # blocks) has its time cells formatted once per file
    time_cells = lru_cache(2)(
        lambda k: list(map(repr, times[k : k + _ROW_BLOCK].tolist())))
    write_table(f, header, chain.from_iterable(
        zip(repeat(str(j)), time_cells(k),
            *[map(repr, c) for c in x[k : k + _ROW_BLOCK].T.tolist()])
        for j, x in enumerate(pi.paths) for k in blocks
    ))


def pm_from_csv(f: TextIO) -> PathMeasure:
    """Read the long CSV format back as an equal-weight path measure."""
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
    weights = np.full(ids.size, 1.0 / ids.size)
    return PathMeasure(grid_depth(rows[:, :, 1], 1.0), rows[:, :, 2:], weights)
