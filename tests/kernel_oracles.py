"""Loop forms of the energy kernels, kept as references for the tests.

These are the row loops, per-level walks, pair loops and the per-path
lift loop that the library once ran for each input kind (paths, lifts,
curves) before they became one set of blocked kernels in
``pathlift.path_norms``. Each restates its energy one row, level, pair or
path at a time. ``pow_dist_power`` is the pair cost |diff|^p as
``np.power`` computes it for every p. ``level_cost`` and ``besov_levels``
are the level walk on a pair cost as it ran before levels came in row
blocks: one array per level, summed whole. ``gap_weighted``,
``holder_max_rows`` and ``sobolev_sum_rows`` are the Holder and Sobolev
kernels as they ran before they reduced by offset: row blocks of the pair
cost, every cell weighted by its gap. ``offset_blocks_broadcast`` is
``_PairCost.offset_blocks`` as it ran before its blocks subtracted a
contiguous tile of the run: the window of sites minus the broadcast run,
written straight into the block. ``seminorm_formula`` is each path
seminorm as its own public function computed it before one dispatch
priced paths, lifts and curves: its kernel called directly, with its own
grid spacing, Holder exponent and root. ``pvar_dp_all_sites`` is
``_pvar_dp`` as it ran before it visited only the turning points: the
same dynamic program over every grid site.
"""

import numpy as np
from numpy.lib.stride_tricks import as_strided

from pathlift import wasserstein_p_clouds
from pathlift.lift_builder import _CurveCost
from pathlift.path_norms import (
    _besov_sums,
    _BLOCK_CELLS,
    _cost_blocks,
    _holder_max,
    _offset_reduce,
    _PairCost,
    _path_cost,
    _pow_dist,
    _pvar_dp,
    _sobolev_sum,
)


def pow_dist_power(diff, p):
    """|diff|^p over the last axis by np.power; diff is overwritten in d = 1."""
    if diff.shape[-1] == 1:
        dist = np.abs(diff, out=diff)[..., 0]
    else:
        dist = np.sqrt(np.einsum("...d,...d->...", diff, diff))
    return np.power(dist, p, out=dist)


def seminorm_formula(path, spec):
    """spec's seminorm of a DyadicPath, one formula per kind.

    holder takes |X_v - X_u| itself (p = 1) with exponent gamma, whatever
    spec.p is; the others take |X_v - X_u|^p and the p-th root.
    """
    h = path.horizon / (path.n_points - 1)
    p = spec.p
    if spec.kind == "holder":
        maxima = _offset_reduce(_path_cost(path.values, 1.0), np.maximum)
        return _holder_max(maxima, np.ones(1), h, (spec.gamma,))[0]
    if spec.kind == "pvar":
        return _pvar_dp(_path_cost(path.values, p)) ** (1.0 / p)
    if spec.kind == "besov":
        sums = _besov_sums(_path_cost(path.values, p), spec.alpha, p)
        return float(sums[0]) ** (1 / p)
    return _sobolev_sum(_path_cost(path.values, p), h, spec.alpha) ** (1.0 / p)


def holder_rows(values, h, gamma):
    """max_{i<j} |X_j - X_i| / (h (j - i))^gamma, one row at a time."""
    n = values.shape[0] - 1
    gap_pow2 = np.concatenate(
        [[np.inf], (h * np.arange(1, n + 1)) ** (2.0 * gamma)]
    )
    best = 0.0
    for i in range(n):
        diff = values[i + 1 :] - values[i]
        d2 = np.einsum("jd,jd->j", diff, diff)
        best = max(best, float(np.max(d2 / gap_pow2[1 : n - i + 1])))
    return float(np.sqrt(best))


def sobolev_rows(values, h, alpha, p):
    """Midpoint-rule W^{alpha,p} energy, rows i < j doubled by symmetry."""
    mid_vals = 0.5 * (values[:-1] + values[1:])
    k = mid_vals.shape[0]
    gap_pow = np.concatenate(
        [[np.inf], (h * np.arange(1, k)) ** (1.0 + alpha * p)]
    )
    total = 0.0
    for i in range(k - 1):
        diff = mid_vals[i + 1 :] - mid_vals[i]
        d2 = np.einsum("jd,jd->j", diff, diff)
        total += 2.0 * float(np.sum(d2 ** (0.5 * p) / gap_pow[1 : k - i]))
    return total * h * h


def offset_blocks_broadcast(cost):
    """The (n, o, c) offset blocks of a _PairCost, each c the window of
    sites ahead minus the broadcast run, subtracted into one buffer."""
    sites, k, half = cost.atoms.transpose(1, 0, 2), cost.k, cost.k // 2
    g = min(sites.shape[0], max(1, _BLOCK_CELLS // sites[0].size))
    rows = max(1, _BLOCK_CELLS // (g * sites[0].size))
    buf = np.empty(g * min(rows, half) * sites[0].size)
    for n in range(0, sites.shape[0], g):
        run = np.ascontiguousarray(sites[n : n + g])
        x = np.concatenate([run, run[:, :half]], axis=1)
        ahead = as_strided(x[:, 1:], x.shape[:1] + (half, k) + x.shape[2:],
                           x.strides[:2] + x.strides[1:])
        for o in range(1, half + 1, rows):
            a, b = ahead[:, o - 1 : o - 1 + rows], x[:, None, :k]
            diff = buf[: a.size].reshape(a.shape)
            yield n, o, _pow_dist(np.subtract(a, b, out=diff), cost.p)


def gap_weighted(cost, h, expos):
    """Per row block, cost(i, j) / (h (j - i))^expo per exponent, last in place.

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
        gaps = [as_strided(t[k - 1 :], c.shape, (-t.itemsize, t.itemsize, 0))
                for t in tables]
        yield [c * g for g in gaps[:-1]] + [np.multiply(c, gaps[-1], out=c)]


def holder_max_rows(cost, h, expos):
    """w . max_{i<j} cost(i, j) / (h (j - i))^expo, one per exponent."""
    best = [np.zeros(cost.weights.size)] * len(expos)
    for block in gap_weighted(cost, h, expos):
        best = [np.maximum(b, q.max(axis=(0, 1)))
                for b, q in zip(best, block)]
    return [float(cost.weights @ b) for b in best]


def sobolev_sum_rows(cost, h, alpha):
    """Midpoint-rule W^{alpha,p} energy of a cost, summed cell by cell."""
    mids = _PairCost(0.5 * (cost.atoms[:-1] + cost.atoms[1:]), cost.weights,
                     cost.p)
    total = np.zeros(cost.weights.size)
    for (q,) in gap_weighted(mids, h, (1.0 + alpha * cost.p,)):
        total += q.sum(axis=(0, 1))
    return 2.0 * float(cost.weights @ total) * h * h


def pvar_dp_all_sites(cost):
    """w . the largest sum of cost along a dissection, over every site."""
    best = np.zeros((cost.k, cost.weights.size))
    for i0, c in _cost_blocks(cost):
        for r in range(c.shape[0]):
            tail = best[i0 + r + 1 :]
            np.maximum(tail, best[i0 + r] + c[r, r + 1 :], out=tail)
    return float(cost.weights @ best[-1])


def pvar_pull(values, p):
    """p-th power p-variation: cum[j] = max_{m<j} cum[m] + |X_j - X_m|^p."""
    k = values.shape[0]
    cum = np.zeros(k)
    for j in range(1, k):
        diff = values[:j] - values[j]
        dist = np.sqrt(np.einsum("md,md->m", diff, diff))
        cum[j] = np.max(cum[:j] + dist ** p)
    return float(cum[-1])


def level_walk(paths, weights, p):
    """Per-level interval moments sum_j w_j |dX_j|^p, paths (N, K, d)."""
    depth = (paths.shape[1] - 1).bit_length() - 1
    out = []
    for m in range(depth + 1):
        sub = paths[:, :: 2 ** (depth - m), :]
        diff = np.diff(sub, axis=1)
        dist = np.sqrt(np.einsum("jkd,jkd->jk", diff, diff))
        out.append(weights @ dist ** p)
    return out


def level_cost(cost, m):
    """The costs of the 2^m level-m intervals in one array, shape (2^m, N)."""
    s = (cost.k - 1) >> m
    return cost(slice(0, -1, s), slice(s, None, s))


def besov_levels(cost, alpha, p):
    """w . sum_m 2^{m(alpha p - 1)} sum_k cost, each level summed whole."""
    total = np.zeros(cost.weights.size)
    for m in range((cost.k - 1).bit_length()):
        total += 2.0 ** (m * (alpha * p - 1)) * level_cost(cost, m).sum(axis=0)
    return float(cost.weights @ total)


def besov_walk(paths, weights, alpha, p):
    """sum_m 2^{m(alpha p - 1)} sum_j w_j sum_k |dX_j|^p, per path."""
    depth = (paths.shape[1] - 1).bit_length() - 1
    total = 0.0
    for m in range(depth + 1):
        sub = paths[:, :: 2 ** (depth - m), :]
        diff = np.diff(sub, axis=1)
        dist = np.sqrt(np.einsum("jkd,jkd->jk", diff, diff))
        per_path = np.sum(dist ** p, axis=1)
        total += 2.0 ** (m * (alpha * p - 1)) * float(weights @ per_path)
    return total


def marginal_distances(paths, weights, p):
    """W_p between every pair of grid-time marginals, paths (N, K, 1).

    Equal weights compare the column-sorted atoms; other weights go
    through ``wasserstein_p_clouds`` pair by pair.
    """
    k = paths.shape[1]
    n = paths.shape[0]
    uniform = bool(np.all(np.abs(weights - 1.0 / n) <= 1e-12))
    sorted_cols = np.sort(paths[:, :, 0], axis=0)
    dmat = np.zeros((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            if uniform:
                d = float(
                    np.mean(np.abs(sorted_cols[:, i] - sorted_cols[:, j]) ** p)
                    ** (1.0 / p)
                )
            else:
                d = wasserstein_p_clouds(
                    paths[:, i, 0], weights, paths[:, j, 0], weights, p
                )
            dmat[i, j] = dmat[j, i] = d
    return dmat


def curve_energy_pairs(dmat, kind, p, alpha=None, gamma=None):
    """Besov, Holder or p-variation energy of a curve from its W_p matrix."""
    k = dmat.shape[0]
    times = np.linspace(0.0, 1.0, k)
    if kind == "besov":
        depth = (k - 1).bit_length() - 1
        total = 0.0
        for m in range(depth + 1):
            step = 2 ** (depth - m)
            cost = sum(
                dmat[i * step, (i + 1) * step] ** p for i in range(2 ** m)
            )
            total += 2.0 ** (m * (alpha * p - 1)) * cost
        return total
    if kind == "holder":
        best = 0.0
        for i in range(k - 1):
            quot = dmat[i, i + 1 :] / (times[i + 1 :] - times[i]) ** gamma
            best = max(best, float(quot.max()))
        return best ** p
    cum = np.zeros(k)
    powd = dmat ** p
    for j in range(1, k):
        cum[j] = np.max(cum[:j] + powd[:j, j])
    return float(cum[-1])


def lift_energy_loop(pi, spec):
    """sum_j w_j E(path_j) of a PathMeasure, one DyadicPath at a time.

    E is seminorm(path_j)^p, as the per-path loop of ``lift_energy``
    computed it; for pvar it is the p-th power DP (``pvar_pull``) itself,
    so that no p-th root and power blur a bit-for-bit comparison.
    """
    energies = [
        pvar_pull(pi.paths[j], spec.p) if spec.kind == "pvar"
        else spec.seminorm(pi.path(j)) ** spec.p
        for j in range(pi.n_paths)
    ]
    return float(pi.weights @ np.array(energies))


class CloudCostLoop(_CurveCost):
    """Weighted-marginal W_p^p cell by cell, wasserstein_p_clouds(...) ** p.

    Each call validates and sorts both clouds again; only cells with
    j > i are filled, as the kernels read no others.
    """

    def __init__(self, atoms, weights, p):
        super().__init__(atoms, p)
        self.cloud_weights = weights

    def __call__(self, i, j):
        sites = np.arange(self.k)
        ii, jj = np.broadcast_arrays(sites[i], sites[j])
        out = np.zeros(ii.shape + (1,))
        for pos in zip(*np.nonzero(jj > ii)):
            out[pos] = wasserstein_p_clouds(
                self.atoms[ii[pos], :, 0], self.cloud_weights,
                self.atoms[jj[pos], :, 0], self.cloud_weights, self.p,
            ) ** self.p
        return out
