"""Transport geometry through a fixed base measure on R^d.

A family of measures is represented by where a common set of base points
(samples of a reference measure nu) is sent by each transport map. The
L^p(nu) distance between two such position arrays is the nu-based
Wasserstein distance; linear interpolation of positions gives the
generalized geodesic. Families built over the same labels are trivially
compatible: pair particles by label.

The optimal maps themselves are caller-supplied (solving d > 1 Monge
problems is out of scope); the label fingerprint only enforces that two
ensembles actually share their base sample.
"""

import hashlib
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from ._codec import array_rows, json_fields, read_table, write_table
from .path_norms import _pow_dist
from .quantile_transport import QuantileMeasure, midpoint_grid

__all__ = [
    "ParticleEnsemble",
    "w_p_nu",
    "generalized_geodesic",
    "from_quantile_measure",
    "ensemble_to_json",
    "ensemble_from_json",
    "ensemble_to_csv",
    "ensemble_from_csv",
]


def _as_points(arr, name: str) -> np.ndarray:
    a = np.asarray(arr, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty (N, d) array")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be finite")
    return a


@dataclass(frozen=True)
class ParticleEnsemble:
    """N labeled points: label y_i (base sample) mapped to position T(y_i)."""

    labels: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        labels = _as_points(self.labels, "labels")
        positions = _as_points(self.positions, "positions")
        if labels.shape != positions.shape:
            raise ValueError("labels and positions must share shape")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "positions", positions)

    @property
    def size(self) -> int:
        return self.labels.shape[0]

    @property
    def dim(self) -> int:
        return self.labels.shape[1]

    @property
    def fingerprint(self) -> str:
        """Order-sensitive hash of the label array."""
        h = hashlib.sha256()
        h.update(str(self.labels.shape).encode())
        h.update(np.ascontiguousarray(self.labels).tobytes())
        return h.hexdigest()

    def as_quantile_measure(self) -> QuantileMeasure:
        """Sorted position cloud as a 1d quantile measure (d = 1 only)."""
        if self.dim != 1:
            raise ValueError("quantile view requires dim 1")
        return QuantileMeasure(np.sort(self.positions[:, 0], kind="stable"))


def _check_shared_labels(a: ParticleEnsemble, b: ParticleEnsemble) -> None:
    if a.fingerprint != b.fingerprint:
        raise ValueError(
            "ensembles do not share labels; the coupling through the base "
            "measure is only defined over a common label set"
        )


def w_p_nu(a: ParticleEnsemble, b: ParticleEnsemble, p: float) -> float:
    """nu-based Wasserstein distance ((1/N) sum_i |a_i - b_i|^p)^{1/p}.

    This is the L^p(nu) norm of the difference of the two transport maps
    over the shared base sample. Requires p > 1 (where the monotone
    rearrangement argument gives uniqueness of optimal couplings).
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    _check_shared_labels(a, b)
    dist = _pow_dist(a.positions - b.positions, p)
    return float(np.mean(dist) ** (1.0 / p))


def generalized_geodesic(
    a: ParticleEnsemble, b: ParticleEnsemble, t: float
) -> ParticleEnsemble:
    """Generalized geodesic ((1-t) T_a + t T_b)_# nu at time t in [0,1]."""
    if not 0 <= t <= 1:
        raise ValueError("t must lie in [0, 1]")
    _check_shared_labels(a, b)
    return ParticleEnsemble(
        labels=a.labels,
        positions=(1.0 - t) * a.positions + t * b.positions,
    )


def from_quantile_measure(m: QuantileMeasure) -> ParticleEnsemble:
    """View a quantile measure as an ensemble labeled by its grid levels."""
    return ParticleEnsemble(
        labels=midpoint_grid(m.grid_size)[:, None],
        positions=m.quantiles[:, None],
    )


# ---------------------------------------------------------------------------
# serialization


def ensemble_to_json(e: ParticleEnsemble) -> dict:
    return {
        "dim": e.dim,
        "labels": e.labels.tolist(),
        "positions": e.positions.tolist(),
    }


def ensemble_from_json(obj) -> ParticleEnsemble:
    dim, labels, positions = json_fields(
        obj, "ensemble", dim=(int, None), labels=list, positions=list
    )
    e = ParticleEnsemble(labels=labels, positions=positions)
    if dim is not None and dim != e.dim:
        raise ValueError("dim field disagrees with point arrays")
    return e


def ensemble_to_csv(e: ParticleEnsemble, f: TextIO) -> None:
    """One row per particle: y_1..y_d, x_1..x_d (labels then positions)."""
    header = [f"{c}_{i + 1}" for c in "yx" for i in range(e.dim)]
    write_table(f, header, array_rows(e.labels, e.positions))


def ensemble_from_csv(f: TextIO) -> ParticleEnsemble:
    header, arr = read_table(f)
    if len(header) % 2 != 0:
        raise ValueError("expected 2d columns (labels then positions)")
    d = len(header) // 2
    return ParticleEnsemble(labels=arr[:, :d], positions=arr[:, d:])
