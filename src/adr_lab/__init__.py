"""Numerical laboratory for advection-diffusion-reaction equations.

Explicit finite-difference solvers in two and three dimensions, an exact
separable-series reference solution on the unit square, bounded reaction
networks (the bundled ozone-3d config defines NO/NO2/O3 photochemistry), and
diagnostics for error, convergence order, positivity and L2 norms.
"""

__version__ = "0.1.0"

from .analytic2d import (
    SeriesSolution,
    build_series,
    default_quad_points,
    sample_series,
)
from .chemistry import (
    ConstantRate,
    PhotolysisK1,
    PointSource,
    ReactionNetwork,
)
from .diagnostics import (
    ErrorReport,
    TrajectoryLog,
    convergence_order,
    estimate_order,
    l2_norm,
    max_error_vs_analytic,
    positivity_check,
)
from .errors import (
    AdrLabError,
    ConfigurationError,
    DivergenceError,
    InputError,
    NumericError,
    StabilityError,
)
from .grid import Field, Grid, TransportParams, sample_initial_2d, zero_dirichlet
from .snapshots import SnapshotSeries, Stability, snapshot_steps
from .solver2d import run2d, stability2d, step2d
from .solver3d import run3d, stability3d, step3d

__all__ = [
    "AdrLabError",
    "ConfigurationError",
    "ConstantRate",
    "DivergenceError",
    "ErrorReport",
    "Field",
    "Grid",
    "InputError",
    "NumericError",
    "PhotolysisK1",
    "PointSource",
    "ReactionNetwork",
    "SeriesSolution",
    "SnapshotSeries",
    "Stability",
    "StabilityError",
    "TrajectoryLog",
    "TransportParams",
    "build_series",
    "convergence_order",
    "default_quad_points",
    "estimate_order",
    "l2_norm",
    "max_error_vs_analytic",
    "positivity_check",
    "run2d",
    "run3d",
    "sample_initial_2d",
    "sample_series",
    "snapshot_steps",
    "stability2d",
    "stability3d",
    "step2d",
    "step3d",
    "zero_dirichlet",
]
