"""Dyadic path regularity, 1d optimal transport and lifts of measure curves.

The package follows one storyline: measure a path's regularity through
Hölder, p-variation, fractional Sobolev and dyadic Besov seminorms
(:mod:`pathlift.path_norms`), couple the time slices of a measure curve
on R optimally through their quantile functions
(:mod:`pathlift.quantile_transport`), assemble the coupled slices into a
measure on path space and compare its energy with the curve's own
(:mod:`pathlift.lift_builder`), generate the worked heat-flow and
stochastic-heat examples with closed-form marginals
(:mod:`pathlift.processes`), and average everything over scenarios
(:mod:`pathlift.mc_estimator`). The ``pathlift`` CLI drives the same
machinery from JSON configs.
"""

from . import lift_builder, mc_estimator, path_norms, processes
from . import quantile_transport
from .errors import DivergenceError, MathPreconditionError, ParabolicityError
from .lift_builder import *
from .mc_estimator import *
from .path_norms import *
from .processes import *
from .quantile_transport import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__ = [
    "__version__",
    "MathPreconditionError",
    "ParabolicityError",
    "DivergenceError",
    *path_norms.__all__,
    *quantile_transport.__all__,
    *lift_builder.__all__,
    *processes.__all__,
    *mc_estimator.__all__,
]
