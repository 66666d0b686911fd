"""Count random fields on regular 2-D grids.

Simulation, estimation (moment, least-squares, and likelihood based), and
diagnostics for unilateral thinning-based count autoregressions with
Poisson or negative-binomial marginals, plus a censored (signed) variant.
"""

from .errors import *  # noqa: F403 (each module's __all__ is its public API)
from .model import *  # noqa: F403
from .innovations import *  # noqa: F403
from .simulate import *  # noqa: F403
from .acf import *  # noqa: F403
from .estimate import *  # noqa: F403
from .diagnose import *  # noqa: F403
from .gridio import *  # noqa: F403
from .simstudy import *  # noqa: F403
from . import (acf, diagnose, errors, estimate, gridio, innovations, model,
               simstudy, simulate)

__all__ = [name for module in (errors, model, innovations, simulate, acf, estimate,
                               diagnose, gridio, simstudy) for name in module.__all__]

__version__ = "0.1.0"
