"""Reference computations for the benchmark's checks.

Nothing here imports pathlift. Each function restates the mathematics from
its definition (a closed form, a plain loop or a numpy sum), so a check
compares the program with a computation made apart from it.
"""

from statistics import NormalDist

import numpy as np

# the closed forms quoted by the acceptance suite (criteria 03 and 04):
# depth 8, alpha 0.3, p 4, population atom moments 1 and 3
SHE_QUANTILE_ENERGY = 20.2504948822665
SHE_INDEPENDENT_ENERGY = 28.000382601514833


def normal_atoms(n):
    """Standard normal quantiles at the midpoint levels (j + 1/2)/n."""
    dist = NormalDist()
    return np.array([dist.inv_cdf((j + 0.5) / n) for j in range(n)])


def _cells(depth, alpha, p):
    """All dyadic cells [k 2^-m, (k+1) 2^-m], m <= depth, with level weights.

    Returns (lo, hi, weight, overlap) where overlap[i, j] = |I_i ∩ I_j|,
    the covariance of the Brownian increments over cells i and j.
    """
    lo, hi, w = [], [], []
    for m in range(depth + 1):
        k = np.arange(2 ** m)
        lo.append(k / 2 ** m)
        hi.append((k + 1) / 2 ** m)
        w.append(np.full(2 ** m, 2.0 ** (m * (alpha * p - 1.0))))
    lo, hi, w = np.concatenate(lo), np.concatenate(hi), np.concatenate(w)
    overlap = np.clip(
        np.minimum.outer(hi, hi) - np.maximum.outer(lo, lo), 0.0, None
    )
    return lo, hi, w, overlap


def she_quantile_energy(depth, alpha, m2=1.0, m4=3.0):
    """Mean and standard deviation of the p = 4 besov energy of the SHE curve.

    On a cell of length s the quantile atoms move by dW + a c_j, with
    dW ~ N(0, s) and a = sqrt(hi) - sqrt(lo). Averaging (dW + a c)^4 over
    symmetric atoms with moments m2 and m4 gives
    f = dW^4 + 6 a^2 m2 dW^2 + a^4 m4, so E f = 3 s^2 + 6 a^2 m2 s + a^4 m4.
    Increments over two cells are jointly Gaussian with covariance
    c = |I ∩ J|, and Isserlis' theorem gives Cov(X^4, Y^4) =
    72 s t c^2 + 24 c^4, Cov(X^4, Y^2) = 12 s c^2, Cov(X^2, Y^2) = 2 c^2.
    """
    lo, hi, w, c = _cells(depth, alpha, 4.0)
    s = hi - lo
    a2 = (np.sqrt(hi) - np.sqrt(lo)) ** 2
    mean = float(np.sum(w * (3.0 * s ** 2 + 6.0 * a2 * m2 * s + a2 ** 2 * m4)))
    c2 = c * c
    cov = (
        72.0 * np.outer(s, s) * c2
        + 24.0 * c2 * c2
        + 72.0 * m2 * (np.outer(s, a2) + np.outer(a2, s)) * c2
        + 72.0 * m2 * m2 * np.outer(a2, a2) * c2
    )
    return mean, float(np.sqrt(w @ cov @ w))


def she_independent_energy(depth, alpha, particles):
    """Mean and standard deviation of the p = 4 energy of the W + B lift.

    Each particle path W + B_j has N(0, 2s) increments, so a cell
    contributes 3 (2s)^2 on average. Two increments of one particle have
    covariance 2c; of two particles, c (through W alone). The energy
    averages the particles, so its variance is V(2c)/P + (1 - 1/P) V(c)
    with V(k) = sum w_i w_j (72 (2 s_i)(2 s_j) k_ij^2 + 24 k_ij^4).
    """
    lo, hi, w, c = _cells(depth, alpha, 4.0)
    s2 = 2.0 * (hi - lo)
    mean = float(np.sum(w * 3.0 * s2 ** 2))

    def v(k):
        k2 = k * k
        return float(w @ (72.0 * np.outer(s2, s2) * k2 + 24.0 * k2 * k2) @ w)

    var = v(2.0 * c) / particles + (1.0 - 1.0 / particles) * v(c)
    return mean, float(np.sqrt(var))


def she_curve_energy(w_values, alpha, atoms):
    """p = 4 besov energy of the SHE quantile curve for each row of W values.

    w_values has shape (scenarios, 2^depth + 1). Slice k holds the atoms
    W_k + sqrt(t_k) c_j, so a cell moves atom j by d + a c_j, and the
    binomial expansion of the atom mean of (d + a c)^4 needs only the
    atom moments m1..m4.
    """
    m1, m2, m3, m4 = (float(np.mean(atoms ** r)) for r in (1, 2, 3, 4))
    depth = (w_values.shape[1] - 1).bit_length() - 1
    total = np.zeros(w_values.shape[0])
    for m in range(depth + 1):
        d = np.diff(w_values[:, :: 2 ** (depth - m)], axis=1)
        a = np.diff(np.sqrt(np.linspace(0.0, 1.0, 2 ** m + 1)))
        cell = (
            d ** 4 + 4.0 * d ** 3 * a * m1 + 6.0 * d ** 2 * a ** 2 * m2
            + 4.0 * d * a ** 3 * m3 + a ** 4 * m4
        )
        total += 2.0 ** (m * (alpha * 4.0 - 1.0)) * cell.sum(axis=1)
    return total


def sobolev_energy_loop(values, alpha, p):
    """W^{alpha,p} energy of a piecewise linear path, one cell pair at a time.

    Midpoint rule on the grid cells of [0, 1], diagonal cells dropped:
    h^2 sum_{i != j} |x_i - x_j|^p / (h |i - j|)^{1 + alpha p}, where x_i
    is the path value at the midpoint of cell i.
    """
    k = len(values) - 1
    h = 1.0 / k
    mids = [0.5 * (float(values[i]) + float(values[i + 1])) for i in range(k)]
    gap = [0.0] + [(h * d) ** -(1.0 + alpha * p) for d in range(1, k)]
    total = 0.0
    for i in range(k):
        xi = mids[i]
        for j in range(i + 1, k):
            total += abs(xi - mids[j]) ** p * gap[j - i]
    return 2.0 * total * h * h


def p_variation_loop(values, p):
    """p-th power p-variation over grid dissections, by plain loops.

    best[j] is the largest sum of |X_b - X_a|^p over dissections of
    [t_0, t_j] ending at j; every dissection's last step comes from some
    i < j.
    """
    xs = [float(v) for v in values]
    best = [0.0] * len(xs)
    for j in range(1, len(xs)):
        best[j] = max(best[i] + abs(xs[j] - xs[i]) ** p for i in range(j))
    return best[-1]


def dyadic_level_sums(values, p):
    """sum_k |X(t_{k+1}) - X(t_k)|^p over the level-m grid, for each m."""
    depth = (len(values) - 1).bit_length() - 1
    return [
        float(np.sum(np.abs(np.diff(values[:: 2 ** (depth - m)])) ** p))
        for m in range(depth + 1)
    ]


def besov_seminorm(values, alpha, p):
    """Dyadic besov seminorm of a path on [0, 1], truncated at its depth."""
    sums = dyadic_level_sums(values, p)
    return sum(
        2.0 ** (m * (alpha * p - 1.0)) * s for m, s in enumerate(sums)
    ) ** (1.0 / p)
