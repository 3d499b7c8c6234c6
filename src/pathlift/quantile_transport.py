"""One-dimensional optimal transport through quantile functions.

A measure on R is stored by the values of its generalized inverse CDF on
the midpoint grid u_j = (j - 1/2)/N, that is, as N equal-weight atoms in
sorted order. On this representation the W_p distance is a plain L^p
mean of matched quantile differences, the optimal coupling pairs equal
quantile levels (comonotone coupling, unique for p > 1), and every
finite family of measures admits a multi-coupling whose pairwise
marginals are all optimal: follow the quantile trajectories.

``wasserstein_p_clouds`` handles the general weighted-atom case exactly
by integrating the quantile difference over the merged CDF breakpoints;
it backs the marginal checks for path measures with nonuniform weights.
"""

from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from ._codec import array_rows, json_fields, read_table, write_table
from .path_norms import _pow_dist

__all__ = [
    "QuantileMeasure",
    "MonotoneCoupling",
    "from_samples",
    "generalized_inverse_eval",
    "cdf_eval",
    "wasserstein_p",
    "wasserstein_p_clouds",
    "monotone_coupling",
    "monotone_multicoupling",
    "regrid",
    "midpoint_grid",
    "qm_to_json",
    "qm_from_json",
    "qm_to_csv",
    "qm_from_csv",
]


# how far a weight vector may sum from 1, shared by every weighted input
_WEIGHT_TOL = 1e-12


def midpoint_grid(n: int) -> np.ndarray:
    """Quantile levels u_j = (j - 1/2)/n, j = 1..n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (np.arange(n) + 0.5) / n


@dataclass(frozen=True)
class QuantileMeasure:
    """Equal-weight atoms = quantile values at the midpoint grid."""

    quantiles: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quantiles, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise ValueError("quantiles must be a nonempty 1d array")
        if not np.all(np.isfinite(q)):
            raise ValueError("quantiles must be finite")
        if np.any(np.diff(q) < 0):
            raise ValueError("quantiles must be nondecreasing")
        object.__setattr__(self, "quantiles", q)

    @property
    def grid_size(self) -> int:
        return self.quantiles.size

    def mean(self) -> float:
        return float(np.mean(self.quantiles))


def from_samples(samples) -> QuantileMeasure:
    """Empirical measure of the samples, as sorted equal-weight atoms.

    Ties keep their input order (stable sort), matching the
    left-continuous inverse convention.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("samples must be a nonempty 1d array")
    return QuantileMeasure(np.sort(arr, kind="stable"))


def generalized_inverse_eval(m: QuantileMeasure, u: float) -> float:
    """Left-continuous generalized inverse F^{-1}(u) = inf{x : F(x) >= u}.

    On the atom representation this is quantiles[ceil(u N)] (1-based).
    """
    if not 0 < u < 1:
        raise ValueError("u must lie in (0, 1)")
    n = m.grid_size
    idx = int(np.ceil(u * n))
    idx = min(max(idx, 1), n)
    return float(m.quantiles[idx - 1])


def cdf_eval(m: QuantileMeasure, x: float) -> float:
    """CDF F(x) of the atom measure (right-continuous)."""
    return float(np.searchsorted(m.quantiles, x, side="right")) / m.grid_size


def wasserstein_p(mu: QuantileMeasure, nu: QuantileMeasure, p: float) -> float:
    """W_p distance between same-size quantile measures.

    Equals ((1/N) sum_j |x_j - y_j|^p)^{1/p} over matched quantile
    indices, which integrates |F_mu^{-1} - F_nu^{-1}|^p over the unit
    interval exactly for this representation.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if mu.grid_size != nu.grid_size:
        raise ValueError(
            f"grid sizes differ ({mu.grid_size} vs {nu.grid_size}); "
            "regrid one measure first"
        )
    diff = (mu.quantiles - nu.quantiles)[:, None]
    return float(np.mean(_pow_dist(diff, p)) ** (1.0 / p))


def _sorted_cloud(vals, weights) -> tuple[np.ndarray, np.ndarray]:
    """Sorted values and cumulative weights of a weighted atom cloud on R,
    zero-weight atoms dropped; weights are >= 0 and sum to 1 within 1e-12."""
    v = np.asarray(vals, dtype=float).ravel()
    w = np.asarray(weights, dtype=float).ravel()
    if v.size != w.size or v.size == 0:
        raise ValueError("values/weights size mismatch or empty cloud")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    if abs(w.sum() - 1.0) > _WEIGHT_TOL:
        raise ValueError("weights must sum to 1")
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    keep = w > 0
    return v[keep], np.cumsum(w[keep])


def _sorted_clouds_cost(xv, xc, yv, yc, p: float) -> float:
    """W_p^p between two sorted clouds (values, cumulative weights).

    Integrates |F_x^{-1}(u) - F_y^{-1}(u)|^p du by splitting [0,1] at the
    merged cumulative weights of both clouds; inside each segment both
    quantile functions are constant, so the result is exact.
    """
    edges = np.clip(np.unique(np.concatenate((xc, yc, (0.0, 1.0)))), 0.0, 1.0)
    lengths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    # quantile at level u: first atom whose cumulative weight reaches u
    xi = np.minimum(np.searchsorted(xc, mids, side="left"), xv.size - 1)
    yi = np.minimum(np.searchsorted(yc, mids, side="left"), yv.size - 1)
    return float(np.sum(lengths * np.abs(xv[xi] - yv[yi]) ** p))


def wasserstein_p_clouds(x, wx, y, wy, p: float) -> float:
    """Exact W_p between weighted atom clouds on R (weights summing to 1)."""
    if not p >= 1:
        raise ValueError("p must be >= 1")
    cost = _sorted_clouds_cost(*_sorted_cloud(x, wx), *_sorted_cloud(y, wy), p)
    return cost ** (1.0 / p)


@dataclass(frozen=True)
class MonotoneCoupling:
    """Comonotone pairing (F_mu^{-1}(u_j), F_nu^{-1}(u_j)) on the grid."""

    pairs: np.ndarray  # (N, 2)

    def __post_init__(self):
        arr = np.asarray(self.pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("pairs must be an (N, 2) array")
        if np.any(np.diff(arr, axis=0) < 0):
            raise ValueError("both coordinates must be nondecreasing")
        object.__setattr__(self, "pairs", arr)

    @property
    def grid_size(self) -> int:
        return self.pairs.shape[0]

    def cost(self, p: float) -> float:
        """Transport cost (1/N) sum |x_j - y_j|^p of the pairing."""
        diff = np.diff(self.pairs, axis=1)
        return float(np.mean(_pow_dist(diff, p)))


def monotone_coupling(mu: QuantileMeasure, nu: QuantileMeasure) -> MonotoneCoupling:
    if mu.grid_size != nu.grid_size:
        raise ValueError("grid sizes differ")
    return MonotoneCoupling(np.column_stack([mu.quantiles, nu.quantiles]))


def monotone_multicoupling(measures: Sequence[QuantileMeasure]) -> np.ndarray:
    """Particle trajectories of the quantile multi-coupling.

    Row j of the returned (N, J) array visits F_{t_1}^{-1}(u_j), ...,
    F_{t_J}^{-1}(u_j). Every pairwise 2d marginal of the induced coupling
    is the monotone one, hence W_p-optimal.
    """
    if len(measures) == 0:
        raise ValueError("need at least one measure")
    n = measures[0].grid_size
    for m in measures:
        if m.grid_size != n:
            raise ValueError("all measures must share the grid size")
    return np.column_stack([m.quantiles for m in measures])


def regrid(m: QuantileMeasure, n: int) -> QuantileMeasure:
    """Re-express the measure on an n-point midpoint grid.

    Evaluates the generalized inverse at the target levels; monotone by
    construction, and the identity when n equals the current grid size.
    """
    grid = midpoint_grid(n)
    idx = np.ceil(grid * m.grid_size).astype(int)
    idx = np.clip(idx, 1, m.grid_size)
    return QuantileMeasure(m.quantiles[idx - 1])


# ---------------------------------------------------------------------------
# serialization


def qm_to_json(m: QuantileMeasure) -> dict:
    return {"n": m.grid_size, "quantiles": m.quantiles.tolist()}


def qm_from_json(obj) -> QuantileMeasure:
    n, quantiles = json_fields(obj, "quantile measure", n=int, quantiles=list)
    if quantiles.size != n:
        raise ValueError("n field disagrees with quantile count")
    return QuantileMeasure(quantiles)


def qm_to_csv(m: QuantileMeasure, f: TextIO) -> None:
    write_table(f, None, array_rows(m.quantiles[:, None]))


def qm_from_csv(f: TextIO) -> QuantileMeasure:
    _, arr = read_table(f, width=1)
    return QuantileMeasure(arr[:, 0])
