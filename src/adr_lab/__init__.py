"""Numerical laboratory for advection-diffusion-reaction equations.

Explicit finite-difference solvers in two and three dimensions, an exact
separable-series reference solution on the unit square, bounded reaction
networks (including NO/NO2/O3 photochemistry), and diagnostics for error,
convergence order, positivity and norm growth.
"""

__version__ = "0.1.0"

from .analytic2d import (
    SeriesSolution,
    build_series,
    default_quad_points,
    eval_series,
    fourier_coefficient,
    sample_series,
)
from .chemistry import (
    ConstantRate,
    PhotolysisK1,
    PointSource,
    ReactionNetwork,
    classify_H,
    compute_dbar,
    ozone_network,
    photolysis_k1,
    reaction_rates,
)
from .diagnostics import (
    ErrorReport,
    TrajectoryLog,
    boundedness_check,
    convergence_order,
    estimate_order,
    l2_norm,
    max_error_vs_analytic,
    max_pairwise_distance,
    positivity_check,
)
from .errors import (
    AdrLabError,
    ConfigurationError,
    DivergenceError,
    InputError,
    NumericError,
    StabilityError,
    UnsupportedNetworkError,
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
    "UnsupportedNetworkError",
    "boundedness_check",
    "build_series",
    "classify_H",
    "compute_dbar",
    "convergence_order",
    "default_quad_points",
    "estimate_order",
    "eval_series",
    "fourier_coefficient",
    "l2_norm",
    "max_error_vs_analytic",
    "max_pairwise_distance",
    "ozone_network",
    "photolysis_k1",
    "positivity_check",
    "reaction_rates",
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
