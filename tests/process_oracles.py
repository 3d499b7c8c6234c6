"""The per-step Euler loop, kept as a reference for the tests.

``pathlift.processes.euler_flow`` once formed both noise terms of every
step with its own small matrix-vector products, alpha @ dB_k and
sigma @ dW_k, and stored each new state with a separate copy into the
output. It now forms them for each run of unchanged (a, sigma) in one
stacked product and writes each step in place; ``euler_flow_loop``
restates the step-by-step form, whose paths the library must reproduce
byte for byte.
"""

import numpy as np

from pathlift import _rng
from pathlift.errors import DivergenceError, ParabolicityError
from pathlift.lift_builder import PathMeasure
from pathlift.processes import parabolicity_and_alpha


def euler_flow_loop(coeffs, w, seed_b, x0s, substeps, t0=0.0,
                    zero_noise=False):
    """``euler_flow`` with two matrix-vector products per step."""
    substeps = int(substeps)
    level = substeps.bit_length() - 1
    if substeps <= 0 or 2 ** level != substeps:
        raise ValueError("substeps must be a power of two")
    if substeps < 2 ** w.depth:
        raise ValueError(
            f"substeps={substeps} cannot refine a depth-{w.depth} grid"
        )
    h = 1.0 / substeps
    k0 = t0 * substeps
    if abs(k0 - round(k0)) > 1e-9 or not 0 <= round(k0) < substeps:
        raise ValueError("t0 must be a substep grid time in [0, 1)")
    k0 = int(round(k0))
    d = w.dim
    x = np.array(x0s, dtype=float)
    if x.ndim != 2 or x.size == 0 or x.shape[1] != d or not np.isfinite(x).all():
        raise ValueError(f"x0 must hold finite vectors of dimension {d}")
    n = x.shape[0]
    wv = w.refine(level).values
    dw = np.diff(wv, axis=0)
    db = np.zeros((substeps, d))
    if not zero_noise:
        db = _rng.stream(seed_b, "B").standard_normal((substeps, d)) * np.sqrt(h)
    xs = np.empty((substeps + 1, n, d))
    xs[: k0 + 1] = x
    memo = None
    for k in range(k0, substeps):
        t = k * h
        a_mat = coeffs.diffusion_a(t, x, wv[k])
        s_mat = coeffs.common_sigma(t, x, wv[k])
        key = (a_mat.tobytes(), s_mat.tobytes())
        if key != memo:
            check = parabolicity_and_alpha(a_mat, s_mat)
            if check.alpha.shape not in ((d, d), (n, d, d)):
                raise ValueError(f"a, sigma must be ({d}, {d}) or ({n}, {d}, {d})")
            if not check.ok:
                if not np.all(np.isfinite(x)):
                    break  # diverged: reported below with its first step
                min_eig = np.reshape(check.min_eigenvalue, -1)
                row = int(np.argmin(min_eig))  # the most violated row
                raise ParabolicityError(
                    t, x[row], min_eig[row], row if n > 1 else None
                )
            alpha, memo = check.alpha, key
        x = x + coeffs.drift(t, x, wv[k]) * h + alpha @ db[k] + s_mat @ dw[k]
        xs[k + 1] = x
    finite = np.isfinite(xs).all(axis=2)
    if not finite.all():
        step = int(np.argmin(finite.all(axis=1)))
        row = int(np.argmin(finite[step])) if n > 1 else None
        raise DivergenceError(step, step * h, w.seed, seed_b, row)
    paths = xs[:: substeps // 2 ** w.depth].transpose(1, 0, 2)
    return PathMeasure(depth=w.depth, paths=paths, weights=np.full(n, 1.0 / n))
