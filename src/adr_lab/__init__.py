"""Numerical laboratory for advection-diffusion-reaction equations.

Explicit finite-difference solvers in two and three dimensions, an exact
separable-series reference solution on the unit square, bounded reaction
networks (the bundled ozone-3d config defines NO/NO2/O3 photochemistry), and
diagnostics for error, convergence order, positivity and L2 norms.
"""

__version__ = "0.1.0"

from .analytic2d import *
from .chemistry import *
from .diagnostics import *
from .errors import *
from .grid import *
from .snapshots import *
from .solver2d import *
from .solver3d import *

# importing a submodule binds its name here, so its list can be read
__all__ = [*analytic2d.__all__, *chemistry.__all__, *diagnostics.__all__, *errors.__all__,
           *grid.__all__, *snapshots.__all__, *solver2d.__all__, *solver3d.__all__]
