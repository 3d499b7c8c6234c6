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
pair cost between the K grid sites, |X_{j,n} - X_{i,n}|^p for each of N
weighted atoms per site, reduces every atom on its own and applies the
weights last: the energy is sum_n w_n E(atom n). A path is one atom of
weight 1 and a lift is its paths with their weights, so a lift energy is
the weighted sum of its path energies. A measure curve is one atom of
weight 1 whose pair cost is W_p^p between slices i and j, so a curve
energy is the same kernel run on that cost. Holder and Sobolev reduce by
offset j - i, p-variation by rows, in blocks of bounded size, so memory
stays bounded and a freed block stays under the heap's trim threshold.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._codec import array_rows, grid_depth, json_fields
from ._codec import read_table, write_table

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
        if vals.ndim != 2 or vals.shape[1] == 0:
            raise ValueError("values must be a 1d or a (K, d >= 1) array")
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

# cells (rows x columns x atom coordinates) of one pair or level cost block.
# On a 2-core Xeon with 2 MiB L2 per core path-kernels took 18.8 ms of CPU
# time at 2^14 and 2^15 cells, 27.4 ms at 2^16 (60 interleaved runs). A freed
# 256 KiB block stays under glibc's heap trim threshold; a 2 MiB one did not.
_BLOCK_CELLS = 2 ** 15


def _pow_dist(diff: np.ndarray, p: float) -> np.ndarray:
    """|diff|^p, the Euclidean norm taken over the last (space) axis.

    diff is a temporary of the caller's: in d = 1 it is overwritten, so a
    cost block allocates no second full-size array. An even integer
    p >= 4 multiplies out the squared norm, a few ulp from np.power and
    about four times faster; p = 1 and 2 skip np.power's pass (x * x is
    twice as fast), and every other p stays on np.power.
    """
    if p >= 4 and p % 2 == 0:
        if diff.shape[-1] == 1:
            sq = np.multiply(diff, diff, out=diff)[..., 0]
        else:
            sq = np.einsum("...d,...d->...", diff, diff)
        return _int_power(sq, int(p) // 2)
    if diff.shape[-1] == 1:
        # |x| equals sqrt(x * x) bit for bit and skips the slow reduction
        dist = np.abs(diff, out=diff)[..., 0]
    else:
        dist = np.sqrt(np.einsum("...d,...d->...", diff, diff))
    if p == 1:
        return dist
    if p == 2:
        return np.multiply(dist, dist, out=dist)
    return np.power(dist, p, out=dist)


def _int_power(x: np.ndarray, n: int) -> np.ndarray:
    """x^n for an integer n >= 1 by repeated squaring; x is overwritten."""
    out = None
    while True:
        if n & 1:
            if n == 1:
                return x if out is None else np.multiply(out, x, out=out)
            out = x.copy() if out is None else np.multiply(out, x, out=out)
        n >>= 1
        np.multiply(x, x, out=x)


class _PairCost:
    """cost(i, j) = |X_{j,n} - X_{i,n}|^p between grid sites, per atom n.

    atoms has shape (K, N, d), the N atoms of each of K sites. i and j are
    site indices, index arrays or slices; the result keeps the atom axis
    last. weights holds one weight per column of the result, which the
    kernels apply after reducing each column on its own.
    """

    def __init__(self, atoms: np.ndarray, weights: np.ndarray, p: float):
        self.atoms, self.weights, self.p = atoms, weights, p
        self.k = atoms.shape[0]

    def __call__(self, i, j) -> np.ndarray:
        return _pow_dist(self.atoms[j] - self.atoms[i], self.p)

    def offset_blocks(self):
        """Yields (n, o, c), c[q, r, i] = cost(i, (i + o + r) mod K)[n + q],
        rows 1..K//2 of circular offsets in blocks of at most _BLOCK_CELLS
        cells; a cost that overrides __call__ builds them from its cells."""
        sites, k, half = self.atoms.transpose(1, 0, 2), self.k, self.k // 2
        g = min(sites.shape[0], max(1, _BLOCK_CELLS // sites[0].size))
        rows = max(1, _BLOCK_CELLS // (g * sites[0].size))
        for n in range(0, sites.shape[0], g):
            # the run in C order, then its first K//2 sites again
            run = np.ascontiguousarray(sites[n : n + g])
            x = np.concatenate([run, run[:, :half]], axis=1)
            ahead = as_strided(x[:, 1:], x.shape[:1] + (half, k) + x.shape[2:],
                               x.strides[:2] + x.strides[1:])
            for o in range(1, half + 1, rows):
                diff = ahead[:, o - 1 : o - 1 + rows] - x[:, None, :k]
                yield n, o, _pow_dist(diff, self.p)


def _path_cost(values: np.ndarray, p: float) -> _PairCost:
    """|X_j - X_i|^p between the grid points of one path, values (K, d)."""
    return _PairCost(values[:, None, :], np.ones(1), p)


def _level_blocks(cost, m: int):
    """Level-m interval costs cost(t_k, t_{k+1}) in fresh row blocks of at
    most _BLOCK_CELLS cells; a power-of-two row count splits a level evenly
    and groups a curve's product over the atoms as one call over it would."""
    s = (cost.k - 1) >> m
    rows = 1 << max(0, (_BLOCK_CELLS // cost.atoms[0].size).bit_length() - 1)
    step = min(cost.k - 1, s * rows)
    for i0 in range(0, cost.k - 1, step):
        yield cost(slice(i0, i0 + step, s), slice(i0 + s, i0 + step + s, s))


def _besov_sums(cost, alpha: float, p: float) -> np.ndarray:
    """Per column, sum_m 2^{m(alpha p - 1)} sum_k cost(t_k^{(m)}, t_{k+1}^{(m)}).

    Each level adds up as numpy adds a whole level: the rows of atoms stored
    site by site in turn (the sum so far goes into the next block's first
    row), one column or paths stored one by one pairwise (a column's blocks
    are joined; such paths go a group at a time, a level in one block).
    """
    n, g = cost.weights.size, max(1, _BLOCK_CELLS // cost.atoms[:, 0].size)
    if g < n and cost.atoms.strides[0] < cost.atoms.strides[1]:
        return np.concatenate([_besov_sums(_PairCost(
            cost.atoms[:, i : i + g], cost.weights[i : i + g], cost.p),
            alpha, p) for i in range(0, n, g)])
    total = np.zeros(n)
    for m in range((cost.k - 1).bit_length()):  # m = 0..M
        parts = []
        for c in _level_blocks(cost, m):
            if parts and n > 1:
                c[0] += parts.pop().sum(axis=0)
            parts.append(c)
        level = parts[0] if len(parts) == 1 else np.concatenate(parts)
        total += 2.0 ** (m * (alpha * p - 1)) * level.sum(axis=0)
    return total


def _cost_blocks(cost):
    """The pair costs above the diagonal, in row blocks of bounded size.

    Yields (i0, c) with c[r, s] = cost(i0 + r, i0 + s) for a run of rows
    and every column from i0 on, at most _BLOCK_CELLS cells a block (at
    least one row). Cells with s <= r are never read by the p-variation DP.
    """
    i0 = 0
    while i0 < cost.k - 1:
        rows = max(1, _BLOCK_CELLS // ((cost.k - i0) * cost.atoms[0].size))
        i1 = min(cost.k - 1, i0 + rows)
        yield i0, cost(np.arange(i0, i1)[:, None], slice(i0, None))
        i0 = i1


def _offset_reduce(cost, ufunc) -> tuple:
    """ufunc.reduce of cost(i, j) over the pairs of each offset j - i.

    Row o of an offset block holds cost(i, (i + o) mod K) for every i: its
    first K - o cells are the pairs at offset o, the other o those at K - o
    (the cost is symmetric), so rows 1..K//2 hold every pair once (row K/2
    of an even K twice, kept once). Returns (m, offs): m[n, t] reduces
    column n at offset offs[t].
    """
    k, half = cost.k, cost.k // 2
    m = np.empty((cost.weights.size, 2 * half))
    starts = {}  # per block height: where rows and, at o = 0, wraps start
    for n, o, c in cost.offset_blocks():
        g, r = c.shape[:2]
        if r not in starts:
            starts[r] = np.array([(k * i, k * i + k - i) for i in range(r)])
        ufunc.reduceat(c.reshape(g, -1), (starts[r] - (0, o)).ravel(), axis=1,
                       out=m[n : n + g, 2 * o - 2 : 2 * (o + r) - 2])
    offs = np.arange(1, half + 1)
    return m[:, : k - 1], np.stack([offs, k - offs], axis=1).ravel()[: k - 1]


def _holder_max(cost, h: float, expos) -> list:
    """w . max_{i<j} cost(i, j) / (h (j - i))^expo, one per exponent.

    Each offset's maximum is weighted once: max fl(g c_i) = fl(g max c_i).
    """
    m, offs = _offset_reduce(cost, np.maximum)
    gaps = [(h * offs) ** -e for e in expos]
    quots = [m * g for g in gaps[:-1]] + [np.multiply(m, gaps[-1], out=m)]
    return [float(cost.weights @ np.max(q, axis=1, initial=0.0))
            for q in quots]


def _sobolev_sum(cost, h: float, alpha: float) -> float:
    """Midpoint-rule W^{alpha,p} energy of a cost on a grid of spacing h.

    h^2 sum_{i != j} w . cost(m_i, m_j) / (h |j - i|)^{1 + alpha p} over
    the cell midpoints m_i, by symmetry.
    """
    mids = _PairCost(0.5 * (cost.atoms[:-1] + cost.atoms[1:]), cost.weights,
                     cost.p)
    m, offs = _offset_reduce(mids, np.add)
    total = m @ (h * offs) ** -(1.0 + alpha * cost.p)
    return 2.0 * float(cost.weights @ total) * h * h


def _pvar_dp(cost) -> float:
    """w . the largest sum of cost along the points of a dissection.

    Exact O(K^2) dynamic program, each column on its own: best[j] is the
    largest sum over dissections of sites 0..j that end at j. Rows come in
    order, so best[i] is final when row i pushes best[i] + cost(i, j) to
    every j > i.
    """
    best = np.zeros((cost.k, cost.weights.size))
    for i0, c in _cost_blocks(cost):
        for r in range(c.shape[0]):
            tail = best[i0 + r + 1 :]
            np.maximum(tail, best[i0 + r] + c[r, r + 1 :], out=tail)
    return float(cost.weights @ best[-1])


def _grid_index(t: float, depth: int, horizon: float = 1.0) -> int:
    """Index of the time t on the level-depth dyadic grid of [0, horizon]."""
    k = t / (horizon / 2 ** depth)
    k_round = round(k) if math.isfinite(k) else -1  # inf and nan: off grid
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
    return float(_besov_sums(_path_cost(path.values, p), alpha, p)[0]) ** (1 / p)


def _fs_energy(path: DyadicPath, alpha: float, p: float) -> float:
    """W^{alpha,p} energy (seminorm to the p) by midpoint quadrature."""
    h = path.horizon / (path.n_points - 1)
    return _sobolev_sum(_path_cost(path.values, p), h, alpha)


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
    depth, horizon, dim, values = json_fields(
        obj, "path", depth=int, horizon=(float, 1.0), dim=(int, None),
        values=list,
    )
    path = DyadicPath(depth=depth, values=values, horizon=horizon)
    if dim is not None and dim != path.dim:
        raise ValueError("dim field disagrees with values shape")
    return path


def path_to_csv(path: DyadicPath, f: TextIO) -> None:
    """Write columns t, x_1..x_d (RFC 4180, '.' decimal)."""
    header = ["t"] + [f"x_{i + 1}" for i in range(path.dim)]
    write_table(f, header, array_rows(path.times()[:, None], path.values))


def path_from_csv(f: TextIO) -> DyadicPath:
    header, arr = read_table(f)
    if header[0].strip() != "t":
        raise ValueError("first CSV column must be t")
    horizon = arr[-1, 0]
    return DyadicPath(grid_depth(arr[:, 0], horizon), arr[:, 1:], horizon)
