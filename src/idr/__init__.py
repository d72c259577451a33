"""Isotonic distributional regression: conditional CDF estimation
under partial-order constraints, with subsample aggregation and proper
scoring rules.

The package root re-exports the public names (``__all__``) of each
module below; ``idr.oracles``, the synthetic gamma benchmark, is
imported on its own."""

from . import fitting, orders, prediction, scoring, serialize, solvers, stepfun, subagging
from .fitting import *  # noqa: F403
from .orders import *  # noqa: F403
from .prediction import *  # noqa: F403
from .scoring import *  # noqa: F403
from .serialize import *  # noqa: F403
from .solvers import *  # noqa: F403
from .stepfun import *  # noqa: F403
from .subagging import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (orders, stepfun, solvers, fitting, prediction, scoring, subagging, serialize)
    for name in module.__all__
]
