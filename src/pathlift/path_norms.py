"""Regularity seminorms of dyadically sampled paths in R^d.

A path is stored by its values on the dyadic grid t_k = k/2^M of [0,1]
(scaled by a physical horizon T) and is understood as the piecewise
linear interpolant of those values. Four seminorms are provided:

* ``holder_seminorm``    -- sup over grid pairs of |X_v - X_u| / (v-u)^gamma
* ``p_variation``        -- sup over dissections of (sum |dX|^p)^(1/p)
* ``frac_sobolev_seminorm`` -- quadrature of the double integral
  (iint |X_u - X_v|^p / |u-v|^(1+alpha p) du dv)^(1/p)
* ``besov_seminorm``     -- dyadic-increment sum
  (sum_m 2^(m(alpha p - 1)) sum_k |X_{t_{k+1}} - X_{t_k}|^p)^(1/p)

For 1 < p and 1/p < alpha < 1 the last two are equivalent seminorms; the
explicit Garsia-Rodemich-Rumsey constant and the Holder embeddings are
exposed through ``grr_constant`` and ``embedding_report``.

The module is also the one home of the energy kernels, which serve paths,
lifts and measure curves alike: the dyadic level walk, the Holder maximum,
the Sobolev pair sum and the p-variation dynamic program. Each reads a
pair cost between the K grid sites, cost(i, j) = sum_n w_n |X_{j,n} -
X_{i,n}|^p over N weighted atoms per site. A path is one atom of weight 1
and a lift is its paths with their weights. A 1-d measure curve is its
sorted slice atoms with weights 1/N, for which cost(i, j) is exactly W_p^p
between slices i and j, so a curve energy is the kernel applied to the
sorted atoms. The pairwise kernels run over row blocks of bounded size,
so memory stays bounded at every grid size.
"""

import csv
import json
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "DyadicPath",
    "NormSpec",
    "EmbeddingReport",
    "holder_seminorm",
    "p_variation",
    "besov_seminorm",
    "frac_sobolev_seminorm",
    "grr_constant",
    "embedding_report",
    "path_to_json",
    "path_from_json",
    "path_to_csv",
    "path_from_csv",
]

NORM_KINDS = ("holder", "pvar", "frac_sobolev", "besov")


@dataclass(frozen=True)
class DyadicPath:
    """Path sampled at t_k = k/2^depth (times scaled by ``horizon``).

    Parameters
    ----------
    depth : int
        Dyadic level M >= 0; the grid has 2^M + 1 points.
    values : array_like, shape (2^M + 1,) or (2^M + 1, d)
        Path values; one row per grid point.
    horizon : float
        Physical length T > 0 of the time interval. Defaults to 1.
    """

    depth: int
    values: np.ndarray
    horizon: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2:
            raise ValueError("values must be a 1d or 2d array")
        if self.depth < 0 or int(self.depth) != self.depth:
            raise ValueError("depth must be a nonnegative integer")
        if vals.shape[0] != 2 ** self.depth + 1:
            raise ValueError(
                f"expected {2 ** self.depth + 1} grid values for depth "
                f"{self.depth}, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be a positive real")
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    def times(self) -> np.ndarray:
        """Physical grid times k/2^M * horizon."""
        return np.linspace(0.0, self.horizon, self.n_points)

    def level_values(self, m: int) -> np.ndarray:
        """Values on the coarser level-m dyadic grid, m <= depth."""
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} not in [0, {self.depth}]")
        return self.values[:: 2 ** (self.depth - m)]

    def scaled(self, lam: float) -> "DyadicPath":
        return DyadicPath(self.depth, lam * self.values, self.horizon)


@dataclass(frozen=True)
class NormSpec:
    """Which seminorm to evaluate, with its parameters.

    kind is one of {"holder", "pvar", "frac_sobolev", "besov"}; alpha is
    used by frac_sobolev/besov, gamma by holder, p by all four kinds
    (for holder, p only sets the energy power).
    """

    kind: str
    p: float
    alpha: Optional[float] = None
    gamma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if not self.p >= 1:
            raise ValueError("p must be >= 1")
        if self.kind in ("frac_sobolev", "besov"):
            if self.alpha is None or not 0 < self.alpha < 1:
                raise ValueError("alpha must lie in (0, 1)")
        if self.kind == "holder":
            if self.gamma is None or not 0 < self.gamma <= 1:
                raise ValueError("gamma must lie in (0, 1]")

    def in_equivalence_range(self) -> bool:
        """True when 1 < p and 1/p < alpha < 1 (Sobolev/Besov equivalence)."""
        return (
            self.alpha is not None
            and self.p > 1
            and 1.0 / self.p < self.alpha < 1.0
        )

    def seminorm(self, path: DyadicPath) -> float:
        if self.kind == "holder":
            return holder_seminorm(path, self.gamma)
        if self.kind == "pvar":
            return p_variation(path, self.p)
        if self.kind == "besov":
            return besov_seminorm(path, self.alpha, self.p)
        return frac_sobolev_seminorm(path, self.alpha, self.p)


# ---------------------------------------------------------------------------
# energy kernels (see the module docstring)

# cells (rows x columns x atom coordinates) of one pairwise cost block. On
# a 2-core Xeon with 2 MiB L2 per core the path-kernels benchmark operation
# took 18.8 ms of CPU time at 2^14 and 2^15 cells, 27.4 ms at 2^16 (medians
# of 60 interleaved runs).
_BLOCK_CELLS = 2 ** 15


def _pow_dist(diff: np.ndarray, p: float) -> np.ndarray:
    """|diff|^p, the Euclidean norm taken over the last (space) axis."""
    if diff.shape[-1] == 1:
        # |x| equals sqrt(x * x) bit for bit and skips the slow reduction
        dist = np.abs(diff[..., 0])
    else:
        dist = np.sqrt(np.einsum("...d,...d->...", diff, diff))
    return np.power(dist, p, out=dist)


class _PairCost:
    """cost(i, j) = sum_n w_n |X_{j,n} - X_{i,n}|^p between grid sites.

    atoms has shape (K, N, d), the N atoms of each of K sites, and weights
    shape (N,). i and j are site indices, index arrays or slices.
    """

    def __init__(self, atoms: np.ndarray, weights: np.ndarray, p: float):
        self.atoms, self.weights, self.p = atoms, weights, p
        self.k = atoms.shape[0]

    def __call__(self, i, j) -> np.ndarray:
        pw = _pow_dist(self.atoms[j] - self.atoms[i], self.p)
        if pw.shape[-1] == 1:  # matmul is slow on a length-1 axis
            return pw[..., 0] * self.weights[0]
        return pw @ self.weights


def _path_cost(values: np.ndarray, p: float) -> _PairCost:
    """|X_j - X_i|^p between the grid points of one path, values (K, d)."""
    return _PairCost(values[:, None, :], np.ones(1), p)


def _level_costs(cost):
    """For m = 0..M, the costs of the 2^m intervals of the level-m grid."""
    depth = (cost.k - 1).bit_length() - 1
    for m in range(depth + 1):
        s = 2 ** (depth - m)
        yield cost(slice(0, -1, s), slice(s, None, s))


def _besov_energy(cost, alpha: float, p: float) -> float:
    """sum_m 2^{m(alpha p - 1)} sum_k cost(t_k^{(m)}, t_{k+1}^{(m)})."""
    return sum(
        2.0 ** (m * (alpha * p - 1)) * float(np.sum(level))
        for m, level in enumerate(_level_costs(cost))
    )


def _cost_blocks(cost):
    """The pair costs above the diagonal, in row blocks of bounded size.

    Yields (i0, c) with c[r, s] = cost(i0 + r, i0 + s) for a run of rows
    and every column from i0 on, at most _BLOCK_CELLS cells a block (at
    least one row). Cells with s <= r are never read by the kernels.
    """
    i0 = 0
    while i0 < cost.k - 1:
        rows = max(1, _BLOCK_CELLS // ((cost.k - i0) * cost.atoms[0].size))
        i1 = min(cost.k - 1, i0 + rows)
        yield i0, cost(np.arange(i0, i1)[:, None], slice(i0, None))
        i0 = i1


def _gap_weighted(cost, h: float, expos):
    """Per row block, cost(i, j) / (h (j - i))^expo for each exponent.

    The gap of a cell depends on its offset j - i alone, so one table per
    exponent serves every block as a strided view; its zeros at offsets
    <= 0 blank the cells no kernel may read.
    """
    k = cost.k
    tables = [
        np.concatenate([np.zeros(k), (h * np.arange(1, k)) ** -e])
        for e in expos
    ]
    for _, c in _cost_blocks(cost):
        yield [
            c * as_strided(t[k - 1 :], c.shape, (-t.itemsize, t.itemsize))
            for t in tables
        ]


def _holder_max(cost, h: float, expos) -> list:
    """max_{i<j} cost(i, j) / (h (j - i))^expo, one maximum per exponent."""
    best = [0.0] * len(expos)
    for block in _gap_weighted(cost, h, expos):
        best = [max(b, float(np.max(q))) for b, q in zip(best, block)]
    return best


def _sobolev_sum(cost, h: float, expo: float) -> float:
    """h^2 sum_{i != j} cost(i, j) / (h |j - i|)^expo, by symmetry."""
    total = sum(float(np.sum(q)) for (q,) in _gap_weighted(cost, h, (expo,)))
    return 2.0 * total * h * h


def _pvar_dp(cost) -> float:
    """Largest sum of cost over the consecutive points of a dissection.

    Exact O(K^2) dynamic program: best[j] is the largest sum over
    dissections of sites 0..j that end at j. Rows come in order, so
    best[i] is final when row i pushes best[i] + cost(i, j) to every j > i.
    """
    best = np.zeros(cost.k)
    for i0, c in _cost_blocks(cost):
        for r in range(c.shape[0]):
            tail = best[i0 + r + 1 :]
            np.maximum(tail, best[i0 + r] + c[r, r + 1 :], out=tail)
    return float(best[-1])


def _grid_index(t: float, depth: int, horizon: float = 1.0) -> int:
    """Index of the time t on the level-depth dyadic grid of [0, horizon]."""
    k = t / (horizon / 2 ** depth)
    k_round = round(k)
    if abs(k - k_round) > 1e-9 or not 0 <= k_round <= 2 ** depth:
        raise ValueError(f"t={t} is not a level-{depth} dyadic time")
    return int(k_round)


def _window_indices(path: DyadicPath, window) -> tuple[int, int]:
    if window is None:
        return 0, path.n_points - 1
    s, t = window
    if not s <= t:
        raise ValueError("window must satisfy s <= t")
    return tuple(_grid_index(x, path.depth, path.horizon) for x in (s, t))


def holder_seminorm(path: DyadicPath, gamma: float, window=None) -> float:
    """gamma-Holder seminorm over grid pairs, optionally on a window.

    Returns max over grid pairs u < v (physical times) inside the window
    of |X_v - X_u| / (v - u)^gamma. An empty window (s == t) gives 0.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    i0, i1 = _window_indices(path, window)
    if i1 <= i0:
        return 0.0
    h = path.horizon / (path.n_points - 1)
    cost = _path_cost(path.values[i0 : i1 + 1], 1.0)
    return _holder_max(cost, h, (gamma,))[0]


def p_variation(path: DyadicPath, p: float) -> float:
    """p-variation over all dissections made of grid points.

    Exact O(K^2) dynamic program over the grid points (see ``_pvar_dp``).
    """
    if not p >= 1:
        raise ValueError("p must be >= 1")
    return _pvar_dp(_path_cost(path.values, p)) ** (1.0 / p)


def besov_seminorm(path: DyadicPath, alpha: float, p: float) -> float:
    """Dyadic Besov seminorm, truncated at the path's depth.

    (sum_{m=0}^{M} 2^{m(alpha p - 1)} sum_k |X_{t_{k+1}^{(m)}} -
    X_{t_k^{(m)}}|^p)^{1/p} with t_k^{(m)} = k/2^m. Levels deeper than M
    are not observable from the data, so the sum stops at M (the caller
    knows the truncation level: it is ``path.depth``). Defined on [0,1]
    only; paths with another horizon must be rescaled first.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    if path.horizon != 1.0:
        raise ValueError("besov seminorm requires horizon 1")
    return _besov_energy(_path_cost(path.values, p), alpha, p) ** (1.0 / p)


def _fs_energy(path: DyadicPath, alpha: float, p: float) -> float:
    """W^{alpha,p} energy (seminorm to the p) by midpoint quadrature."""
    h = path.horizon / (path.n_points - 1)
    mid_vals = 0.5 * (path.values[:-1] + path.values[1:])
    return _sobolev_sum(_path_cost(mid_vals, p), h, 1.0 + alpha * p)


def frac_sobolev_seminorm(path: DyadicPath, alpha: float, p: float) -> float:
    """Fractional Sobolev W^{alpha,p} seminorm by midpoint quadrature.

    The double integral iint |X_u - X_v|^p / |u-v|^{1+alpha p} du dv over
    [0,T]^2 is evaluated on the grid cells, midpoint rule per cell, with
    the diagonal cells dropped (the integrand is singular there but
    integrable; dropping them underestimates by O(grid)). Path values at
    cell midpoints come from the piecewise linear interpolant.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if not p >= 1:
        raise ValueError("p must be >= 1")
    return _fs_energy(path, alpha, p) ** (1.0 / p)


def grr_constant(alpha: float, p: float) -> float:
    """Explicit constant in the Garsia-Rodemich-Rumsey embeddings.

    c = (32 (alpha p + 1) / (alpha p - 1))^{1/p}, valid for p > 1 and
    1/p < alpha < 1 (the constant blows up as alpha p -> 1).
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    if not alpha < 1:
        raise ValueError("alpha must be < 1")
    if alpha * p <= 1:
        raise ValueError("alpha * p must exceed 1 (constant undefined)")
    return (32.0 * (alpha * p + 1) / (alpha * p - 1)) ** (1.0 / p)


@dataclass(frozen=True)
class EmbeddingReport:
    """Both sides of the Holder / variation / Sobolev embeddings.

    holder_lhs <= cbar_rhs is the (alpha - 1/p)-Holder embedding,
    pvar_lhs <= pvar_rhs the (1/alpha)-variation embedding, and
    w_energy <= holder_to_ws_bound the Holder-into-Sobolev bound
    |X|_W^p <= |X|_{gamma-Hol}^p * 2 T^{(gamma-alpha)p+1} /
    ((gamma-alpha)p ((gamma-alpha)p+1)).
    """

    alpha: float
    p: float
    gamma: float
    cbar: float
    w_seminorm: float
    holder_lhs: float
    cbar_rhs: float
    pvar_lhs: Optional[float]
    pvar_rhs: Optional[float]
    w_energy: float
    holder_to_ws_bound: float
    violations: tuple = field(default=())

    @property
    def ok(self) -> bool:
        return not self.violations


def _leq(lhs: float, rhs: float) -> bool:
    # comparison with a little float slack; both sides are O(1) sums
    return lhs <= rhs * (1 + 1e-12) + 1e-12


def embedding_report(
    path: DyadicPath,
    alpha: float,
    p: float,
    gamma: Optional[float] = None,
    include_pvar: bool = True,
) -> EmbeddingReport:
    """Evaluate the embedding inequalities on one path and flag violations.

    gamma is the Holder exponent for the Holder-into-Sobolev bound and
    must exceed alpha; it defaults to (alpha + 1)/2.
    """
    if gamma is None:
        gamma = 0.5 * (alpha + 1.0)
    if not alpha < gamma <= 1:
        raise ValueError("need alpha < gamma <= 1")
    cbar = grr_constant(alpha, p)
    w_energy = _fs_energy(path, alpha, p)
    w = w_energy ** (1.0 / p)
    t_hor = path.horizon

    # both Holder maxima come from one pass over the pairwise distances
    holder_lhs, holder_gamma = _holder_max(
        _path_cost(path.values, 1.0),
        t_hor / (path.n_points - 1),
        (alpha - 1.0 / p, gamma),
    )
    cbar_rhs = cbar * w

    pvar_lhs = pvar_rhs = None
    if include_pvar:
        pvar_lhs = p_variation(path, 1.0 / alpha)
        pvar_rhs = cbar * t_hor ** (alpha - 1.0 / p) * w

    dpow = (gamma - alpha) * p
    bound = (
        holder_gamma ** p * 2.0 * t_hor ** (dpow + 1) / (dpow * (dpow + 1))
    )

    violations = []
    if not _leq(holder_lhs, cbar_rhs):
        violations.append("holder")
    if include_pvar and not _leq(pvar_lhs, pvar_rhs):
        violations.append("pvar")
    if not _leq(w_energy, bound):
        violations.append("holder_to_ws")

    return EmbeddingReport(
        alpha=alpha,
        p=p,
        gamma=gamma,
        cbar=cbar,
        w_seminorm=w,
        holder_lhs=holder_lhs,
        cbar_rhs=cbar_rhs,
        pvar_lhs=pvar_lhs,
        pvar_rhs=pvar_rhs,
        w_energy=w_energy,
        holder_to_ws_bound=bound,
        violations=tuple(violations),
    )


# ---------------------------------------------------------------------------
# serialization


def path_to_json(path: DyadicPath) -> dict:
    return {
        "depth": path.depth,
        "horizon": path.horizon,
        "dim": path.dim,
        "values": path.values.tolist(),
    }


def path_from_json(obj) -> DyadicPath:
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        depth = obj["depth"]
        horizon = obj.get("horizon", 1.0)
        values = np.asarray(obj["values"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed path object: {exc}") from exc
    if values.ndim == 2 and "dim" in obj and values.shape[1] != obj["dim"]:
        raise ValueError("dim field disagrees with values shape")
    return DyadicPath(depth=depth, values=values, horizon=horizon)


def path_to_csv(path: DyadicPath, f: TextIO) -> None:
    """Write columns t, x_1..x_d (RFC 4180, '.' decimal)."""
    writer = csv.writer(f, lineterminator="\r\n")
    writer.writerow(["t"] + [f"x_{i + 1}" for i in range(path.dim)])
    for t, row in zip(path.times(), path.values):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def path_from_csv(f: TextIO) -> DyadicPath:
    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty CSV") from None
    if not header or header[0].strip() != "t":
        raise ValueError("first CSV column must be t")
    rows = []
    for line in reader:
        if not line:
            continue
        try:
            rows.append([float(v) for v in line])
        except ValueError as exc:
            raise ValueError(f"malformed CSV row {line!r}") from exc
    if not rows:
        raise ValueError("CSV contains no data rows")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] != len(header):
        raise ValueError("CSV rows disagree with header width")
    n = arr.shape[0] - 1
    depth = n.bit_length() - 1
    if n <= 0 or 2 ** depth != n:
        raise ValueError("CSV must hold 2^M + 1 grid rows")
    times = arr[:, 0]
    horizon = times[-1]
    if horizon <= 0:
        raise ValueError("final time must be positive")
    expected = np.linspace(0.0, horizon, n + 1)
    if not np.allclose(times, expected, rtol=0, atol=1e-9 * max(1.0, horizon)):
        raise ValueError("times must form a uniform dyadic grid from 0")
    return DyadicPath(depth=depth, values=arr[:, 1:], horizon=horizon)
