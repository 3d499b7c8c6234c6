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
stays bounded; the offset blocks of one call share one buffer. For p > 1
the p-variation DP of a d = 1 path or lift visits only its turning points
(``_PairCost.pvar_sites``), and a ``DyadicPath`` computes its Holder offset
maxima, which do not depend on p, once for all its reports.

``_energy`` is the one place that maps a norm kind to its kernel: the
seminorms of a path, the lift energies and the curve energies all go
through it, each with its own pair cost.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, TextIO

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._codec import array_rows, grid_depth, read_table, write_table

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
    "path_to_csv",
    "path_from_csv",
]

NORM_KINDS = ("holder", "pvar", "frac_sobolev", "besov")


def _check_depth(depth) -> None:
    """Refuses a negative, non-integral or non-finite dyadic depth."""
    if not (0 <= depth < math.inf and int(depth) == depth):
        raise ValueError("depth must be a nonnegative integer")


@dataclass(frozen=True)
class DyadicPath:
    """Path sampled at t_k = k/2^depth (times scaled by ``horizon``).

    Parameters
    ----------
    depth : int
        Dyadic level M >= 0; the grid has 2^M + 1 points.
    values : array_like, shape (2^M + 1,) or (2^M + 1, d)
        Path values; one row per grid point. The path keeps a read-only
        copy, so a later write to the caller's array changes nothing here.
    horizon : float
        Physical length T > 0 of the time interval. Defaults to 1.

    The path's Holder offset maxima, which depend on its values alone, are
    computed on first use and kept (read-only) for every later report.
    """

    depth: int
    values: np.ndarray
    horizon: float = 1.0

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[1] == 0:
            raise ValueError("values must be a 1d or a (K, d >= 1) array")
        _check_depth(self.depth)
        if vals.shape[0] != 2 ** self.depth + 1:
            raise ValueError(
                f"expected {2 ** self.depth + 1} grid values for depth "
                f"{self.depth}, got {vals.shape[0]}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("path values must be finite")
        if not (self.horizon > 0 and np.isfinite(self.horizon)):
            raise ValueError("horizon must be a positive real")
        vals.flags.writeable = False
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "horizon", float(self.horizon))

    @cached_property
    def _holder_maxima(self) -> tuple:
        """(m, offs): max |X_j - X_i| at each offset j - i, as
        ``_offset_reduce`` returns it; read-only, since every later report
        on the path reads it."""
        maxima = _offset_reduce(_path_cost(self.values, 1.0), np.maximum)
        for a in maxima:
            a.flags.writeable = False
        return maxima

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    def times(self) -> np.ndarray:
        """Physical grid times k/2^M * horizon."""
        return np.linspace(0.0, self.horizon, self.n_points)


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

    def seminorm(self, path: DyadicPath) -> float:
        """The seminorm of a path: its energy with cost |X_v - X_u|^q, to
        the power 1/q, where q = 1 for holder and q = p otherwise."""
        q = 1.0 if self.kind == "holder" else self.p
        energy = _energy(_path_cost(path.values, q), self, path.horizon)
        return energy ** (1 / q)


# ---------------------------------------------------------------------------
# energy kernels (see the module docstring)

# cells (rows x columns x atom coordinates) of one pair or level cost block.
# On a 2-core Xeon with 2 MiB L2 per core path-kernels took 18.8 ms of CPU
# time at 2^14 and 2^15 cells, 27.4 ms at 2^16 (60 interleaved runs). glibc
# maps a fresh 256 KiB block and faults it in anew, hence one offset buffer
# a call of 1.5 blocks: the block and a half-height tile of the run, which
# makes the block's subtraction contiguous (about twice as fast); the tile
# as a second allocation a call faulted its pages in again on every op.
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

    def midpoints(self) -> "_PairCost":
        """The same cost between the midpoints of neighbouring sites."""
        return _PairCost(0.5 * (self.atoms[:-1] + self.atoms[1:]),
                         self.weights, self.p)

    def pvar_sites(self) -> "_PairCost":
        """The cost on the sites the p-variation DP must visit.

        For d = 1 and p > 1 these are, in the union over columns, the two
        ends, every strict sign change of the increment and the first site
        of each flat run entered by a nonzero step. Take an interior point
        of a dissection inside a monotone run: if its value lies between
        its neighbours in the dissection, dropping it gains, as
        |a + b|^p > |a|^p + |b|^p; if not, moving it to the run's end gains
        on both sides. So an optimal dissection of each column keeps to
        its turning points, and a union of such sets serves every column.
        p = 1 (where dropping a point of a monotone run is an equality,
        so another dissection could round differently) and d > 1 keep
        every site.
        """
        if self.p == 1 or self.atoms.shape[2] != 1:
            return self
        s = np.sign(np.diff(self.atoms[..., 0], axis=0))
        turns = (s[:-1] * s[1:] < 0) | ((s[:-1] != 0) & (s[1:] == 0))
        keep = np.concatenate([[True], turns.any(axis=1), [True]])
        if keep.all():
            return self
        return _PairCost(self.atoms[keep], self.weights, self.p)

    def flat(self) -> bool:
        """Whether every weighted column holds one value at all sites, so
        that every pair cost is exactly 0."""
        a = self.atoms[:, self.weights > 0]
        return bool(np.all(a == a[:1]))

    def offset_blocks(self):
        """Yields (n, o, c), c[q, r, i] = cost(i, (i + o + r) mod K)[n + q],
        rows 1..K//2 of circular offsets in blocks of at most _BLOCK_CELLS
        cells; a cost that overrides __call__ builds them from its cells.

        One buffer made per call holds the block, each overwriting the
        last, and a tile of the run repeated over ceil(rows/2) rows: 1.5
        blocks (2 for blocks of one row). A block is its window of sites
        copied in, minus the tile twice over: the same subtractions as the
        window minus the broadcast run, but on contiguous operands, which
        is about twice as fast. A tile allocated on its own faulted its
        pages in anew on every call.
        """
        sites, k, half = self.atoms.transpose(1, 0, 2), self.k, self.k // 2
        g = min(sites.shape[0], max(1, _BLOCK_CELLS // sites[0].size))
        rows = max(1, min(half, _BLOCK_CELLS // (g * sites[0].size)))
        tile_rows = (rows + 1) // 2
        buf = np.empty(g * (rows + tile_rows) * sites[0].size)
        for n in range(0, sites.shape[0], g):
            # the run in C order, then its first K//2 sites again
            run = np.ascontiguousarray(sites[n : n + g])
            x = np.concatenate([run, run[:, :half]], axis=1)
            ahead = as_strided(x[:, 1:], x.shape[:1] + (half, k) + x.shape[2:],
                               x.strides[:2] + x.strides[1:])
            tile = buf[buf.size - tile_rows * run.size :].reshape(
                run.shape[:1] + (tile_rows,) + run.shape[1:])
            np.copyto(tile, run[:, None])
            for o in range(1, half + 1, rows):
                a = ahead[:, o - 1 : o - 1 + rows]
                diff = buf[: a.size].reshape(a.shape)
                np.copyto(diff, a)
                for r0 in range(0, diff.shape[1], tile_rows):
                    part = diff[:, r0 : r0 + tile_rows]
                    part -= tile[:, : part.shape[1]]
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


def _holder_max(maxima: tuple, weights: np.ndarray, h: float, expos) -> list:
    """w . max_{i<j} cost(i, j) / (h (j - i))^expo, one per exponent, from
    the offset maxima (m, offs) of ``_offset_reduce``, which it only reads.

    Each offset's maximum is weighted once: max fl(g c_i) = fl(g max c_i).
    """
    m, offs = maxima
    return [float(weights @ np.max(m * (h * offs) ** -e, axis=1, initial=0.0))
            for e in expos]


def _sobolev_sum(cost, h: float, alpha: float) -> float:
    """Midpoint-rule W^{alpha,p} energy of a cost on a grid of spacing h.

    h^2 sum_{i != j} w . cost(m_i, m_j) / (h |j - i|)^{1 + alpha p} over
    the cell midpoints m_i, by symmetry.
    """
    mids = cost.midpoints()
    m, offs = _offset_reduce(mids, np.add)
    total = m @ (h * offs) ** -(1.0 + alpha * cost.p)
    return _nonzero(2.0 * float(cost.weights @ total) * h * h, mids,
                    "frac_sobolev")


def _pvar_dp(cost) -> float:
    """w . the largest sum of cost along the points of a dissection.

    Exact O(K^2) dynamic program, each column on its own, over the sites
    ``cost.pvar_sites`` keeps (about half of a random walk's): best[j] is
    the largest sum over dissections of the kept sites 0..j that end at j.
    Rows come in order, so best[i] is final when row i pushes
    best[i] + cost(i, j) to every j > i.
    """
    cost = cost.pvar_sites()
    best = np.zeros((cost.k, cost.weights.size))
    for i0, c in _cost_blocks(cost):
        for r in range(c.shape[0]):
            tail = best[i0 + r + 1 :]
            np.maximum(tail, best[i0 + r] + c[r, r + 1 :], out=tail)
    return float(cost.weights @ best[-1])


def _nonzero(energy: float, cost, kind: str) -> float:
    """energy, refused with FloatingPointError when it is 0.0 although the
    sites of the cost differ: their pair costs underflowed (a large p on
    small increments). Sites are compared only for a 0.0 energy."""
    if energy == 0.0 and not cost.flat():
        raise FloatingPointError(
            f"the {kind} energy underflows to 0.0 at p={cost.p!r}: the "
            f"sites differ, but their pair costs |dX|^p leave the float range"
        )
    return energy


def _energy(cost: _PairCost, spec: NormSpec, horizon: float) -> float:
    """Energy of a path, a lift's paths or a curve, from its pair cost.

    With K grid sites spaced h = horizon/(K - 1):

    * besov:  sum_m 2^{m(alpha p - 1)} sum_k cost(t_k^{(m)}, t_{k+1}^{(m)}),
      on [0, 1] only
    * holder: sup_{u<v} cost(u, v) / (v-u)^{gamma p}, p the cost's power
    * pvar:   sup over dissections of the sum of cost along the dissection
    * frac_sobolev: the W^{alpha,p} energy by midpoint quadrature on the
      grid cells, as in ``frac_sobolev_seminorm``; a cost with no
      midpoints (a curve's) refuses it

    Each atom's energy is taken on its own and weighted last, so a lift
    pays sum_j w_j seminorm(path_j)^p; a curve pays its W_p energy. An
    energy that underflows to 0.0 raises (see ``_nonzero``).
    """
    h = horizon / (cost.k - 1)
    if spec.kind == "frac_sobolev":
        return _sobolev_sum(cost, h, spec.alpha)
    if spec.kind == "besov":
        if horizon != 1.0:
            raise ValueError("besov seminorm requires horizon 1")
        energy = float(cost.weights @ _besov_sums(cost, spec.alpha, spec.p))
    elif spec.kind == "holder":
        maxima = _offset_reduce(cost, np.maximum)
        energy = _holder_max(maxima, cost.weights, h,
                             (spec.gamma * cost.p,))[0]
    else:
        energy = _pvar_dp(cost)
    return _nonzero(energy, cost, spec.kind)


def _grid_index(t: float, depth: int) -> int:
    """Index of the time t on the level-depth dyadic grid of [0, 1]."""
    k = t * 2 ** depth
    k_round = round(k) if math.isfinite(k) else -1  # inf and nan: off grid
    if abs(k - k_round) > 1e-9 or not 0 <= k_round <= 2 ** depth:
        raise ValueError(f"t={t} is not a level-{depth} dyadic time")
    return int(k_round)


def holder_seminorm(path: DyadicPath, gamma: float) -> float:
    """gamma-Holder seminorm over grid pairs.

    Returns max over grid pairs u < v (physical times) of
    |X_v - X_u| / (v - u)^gamma.
    """
    return NormSpec(kind="holder", p=1.0, gamma=gamma).seminorm(path)


def p_variation(path: DyadicPath, p: float) -> float:
    """p-variation over all dissections made of grid points.

    Exact O(K^2) dynamic program over the grid points (see ``_pvar_dp``);
    for p > 1 and d = 1 an optimal dissection keeps to the path's turning
    points, and the program visits only those.
    """
    return NormSpec(kind="pvar", p=p).seminorm(path)


def besov_seminorm(path: DyadicPath, alpha: float, p: float) -> float:
    """Dyadic Besov seminorm, truncated at the path's depth.

    (sum_{m=0}^{M} 2^{m(alpha p - 1)} sum_k |X_{t_{k+1}^{(m)}} -
    X_{t_k^{(m)}}|^p)^{1/p} with t_k^{(m)} = k/2^m. Levels deeper than M
    are not observable from the data, so the sum stops at M (the caller
    knows the truncation level: it is ``path.depth``). Defined on [0,1]
    only; paths with another horizon must be rescaled first.
    """
    return NormSpec(kind="besov", p=p, alpha=alpha).seminorm(path)


def frac_sobolev_seminorm(path: DyadicPath, alpha: float, p: float) -> float:
    """Fractional Sobolev W^{alpha,p} seminorm by midpoint quadrature.

    The double integral iint |X_u - X_v|^p / |u-v|^{1+alpha p} du dv over
    [0,T]^2 is evaluated on the grid cells, midpoint rule per cell, with
    the diagonal cells dropped (the integrand is singular there but
    integrable; dropping them underestimates by O(grid)). Path values at
    cell midpoints come from the piecewise linear interpolant.
    """
    return NormSpec(kind="frac_sobolev", p=p, alpha=alpha).seminorm(path)


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
    path: DyadicPath, alpha: float, p: float, include_pvar: bool = True
) -> EmbeddingReport:
    """Evaluate the embedding inequalities on one path and flag violations.

    The Holder-into-Sobolev bound uses the Holder exponent
    gamma = (alpha + 1)/2, which the report records. A bound that leaves
    the float range raises OverflowError naming it and p.
    """
    cbar = grr_constant(alpha, p)
    gamma = 0.5 * (alpha + 1.0)
    t_hor = path.horizon
    h = t_hor / (path.n_points - 1)
    w_energy = _sobolev_sum(_path_cost(path.values, p), h, alpha)
    w = w_energy ** (1.0 / p)

    # both Holder quotients weight the path's one set of offset maxima
    holder_lhs, holder_gamma = _holder_max(
        path._holder_maxima, np.ones(1), h, (alpha - 1.0 / p, gamma)
    )
    cbar_rhs = cbar * w

    pvar_lhs = pvar_rhs = None
    if include_pvar:
        pvar_lhs = p_variation(path, 1.0 / alpha)
        pvar_rhs = cbar * t_hor ** (alpha - 1.0 / p) * w

    dpow = (gamma - alpha) * p
    try:
        bound = (
            holder_gamma ** p * 2.0 * t_hor ** (dpow + 1) / (dpow * (dpow + 1))
        )
    except OverflowError as exc:
        raise OverflowError(
            f"holder_to_ws_bound (the gamma-Holder seminorm to the power p) "
            f"overflows at p={p!r}, gamma={gamma!r}: {exc}"
        ) from exc

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
