"""Per-slice builds of the fixture curves, kept as references for the tests.

The library once built a curve as a tuple of ``QuantileMeasure`` objects,
one per grid time and each validated on its own, and stacked them again
for every energy and lift. It now builds one (K, N) quantile array in a
single broadcast; these functions restate the slice-by-slice build.
"""

import numpy as np
from scipy.special import ndtri

from pathlift import (
    BrownianPath,
    MeasurePathSample,
    QuantileMeasure,
    midpoint_grid,
)


def from_measures(measures):
    """Stack per-slice QuantileMeasure objects of one atom count."""
    rows = [m.quantiles for m in measures]
    times = np.linspace(0.0, 1.0, len(rows))
    for k, row in enumerate(rows):
        if row.size != rows[0].size:
            raise ValueError(f"slice k={k} (t={float(times[k])!r}): "
                             f"{row.size} atoms, slice 0 has {rows[0].size}")
    return MeasurePathSample(np.stack(rows))


def she_slices(seed, depth, n):
    """N(W_t, t) slice by slice: QuantileMeasure(W_k + sqrt(t_k) c)."""
    w = BrownianPath(seed=seed, depth=depth)
    c = ndtri(midpoint_grid(n))
    wv = w.values[:, 0]
    return tuple(
        QuantileMeasure(wv[k] + np.sqrt(t) * c) for k, t in enumerate(w.times())
    )


def heat_slices(depth, n):
    """N(0, t) slice by slice: QuantileMeasure(sqrt(t_k) c)."""
    c = ndtri(midpoint_grid(n))
    return tuple(
        QuantileMeasure(np.sqrt(t) * c)
        for t in np.linspace(0.0, 1.0, 2 ** depth + 1)
    )
