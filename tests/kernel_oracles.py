"""Loop forms of the energy kernels, kept as references for the tests.

These are the row loops, per-level walks, pair loops and the per-path
lift loop that the library once ran for each input kind (paths, lifts,
curves) before they became one set of blocked kernels in
``pathlift.path_norms``. Each restates its energy one row, level, pair or
path at a time.
"""

import numpy as np

from pathlift import wasserstein_p_clouds
from pathlift.lift_builder import _CurveCost


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
