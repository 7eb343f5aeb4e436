"""Numerical verification tools: error norms, convergence order, positivity
and the per-cell trajectory log.

All diagnostics are pure functions over snapshots and logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .analytic2d import SeriesSolution, sample_series
from .errors import ConfigurationError
from .grid import Field, TransportParams, sample_initial_2d
from .snapshots import SnapshotSeries
from .solver2d import run2d

__all__ = [
    "ErrorReport",
    "TrajectoryLog",
    "l2_norm",
    "max_error_vs_analytic",
    "estimate_order",
    "convergence_order",
    "positivity_check",
]


def l2_norm(field: Field, box=None, squares: np.ndarray | None = None) -> float:
    """Cell-volume-weighted discrete L2 norm, summed over species.

    sqrt( sum_j sum_cells c_j(cell)^2 * cell_volume ).  Boundary cells are
    included with full weight; they are zero under Dirichlet anyway.

    With box, per-axis slices of the grid outside which every value is
    +0.0, only the box is squared, into squares: an array of the field's
    shape holding +0.0 outside box.  squares is then values**2 element for
    element, so summing it whole gives the bits of the whole-field sum.
    """
    if box is None:
        squares = field.values**2
    else:
        inside = (slice(None), *box)
        np.square(field.values[inside], out=squares[inside])
    return math.sqrt(float(squares.sum()) * field.grid.cell_volume)


@dataclass(frozen=True)
class ErrorReport:
    t: float
    max_abs_error: float
    l2_error: float
    grid_shape: tuple[int, ...]


def max_error_vs_analytic(numeric: Field, sol: SeriesSolution, t: float) -> ErrorReport:
    """Pointwise max and L2 difference between a numeric field and the series."""
    grid = numeric.grid
    if grid.ndim != 2:
        raise ConfigurationError("analytic comparison requires a 2-D field")
    exact = sample_series(sol, grid, t)
    diff = Field(grid, numeric.values - exact.values)
    return ErrorReport(
        t=t,
        max_abs_error=float(np.abs(diff.values).max()),
        l2_error=l2_norm(diff),
        grid_shape=grid.shape,
    )


def estimate_order(spacings, errors) -> float:
    """Least-squares slope of log(error) vs log(spacing)."""
    h = np.log(np.asarray(spacings, dtype=float))
    e = np.log(np.asarray(errors, dtype=float))
    if h.size < 2:
        raise ConfigurationError("order estimation needs at least 2 levels")
    slope = np.polyfit(h, e, 1)[0]
    return float(slope)


def convergence_order(
    configs,
    sol: SeriesSolution,
    t: float,
    initial_profile,
) -> tuple[float, list[ErrorReport]]:
    """Measured spatial order of the 2-D solver against the series oracle.

    configs is a list of (grid, dt) refinement levels with dt scaled
    proportionally to dx^2 (the caller's responsibility; this isolates the
    second-order spatial term).  Each level runs from initial_profile(x, y),
    the profile the series was built from, sampled on its grid, to time t;
    then the max error is measured.  Any unstable level aborts with its
    stability report.
    """
    if len(configs) < 3:
        raise ConfigurationError("convergence study needs >= 3 refinement levels")
    reports: list[ErrorReport] = []
    spacings: list[float] = []
    params = TransportParams(u=(sol.u, sol.u), k=(sol.k, sol.k))
    for grid, dt in configs:
        init = sample_initial_2d(grid, initial_profile)
        series = run2d(init, params, dt, t_end=t, snapshot_times=[t])
        reports.append(max_error_vs_analytic(series.fields[-1], sol, series.times[-1]))
        spacings.append(grid.spacing[0])
    order = estimate_order(spacings, [r.max_abs_error for r in reports])
    return order, reports


def positivity_check(series: SnapshotSeries) -> tuple[bool, dict | None]:
    """True iff every snapshot value is >= -tol, tol = 1e-12 * field max.

    On failure returns the first violating (snapshot index, species, cell,
    value), where value is that snapshot's min; read from series.negatives,
    which the series records at capture.
    """
    for idx, found in enumerate(series.negatives):
        if found is not None:
            return False, {"snapshot": idx, "t": series.times[idx], **found}
    return True, None


@dataclass
class TrajectoryLog:
    """Per-cell species trajectories sampled every `stride` steps."""

    cells: list[tuple[int, ...]]
    stride: int
    times: list[float] = dc_field(default_factory=list)
    data: list[np.ndarray] = dc_field(default_factory=list)  # (n_cells, s) each

    def append(self, t: float, sample: np.ndarray) -> None:
        if self.times and t <= self.times[-1]:
            raise ConfigurationError("trajectory samples must be time-ordered")
        self.times.append(t)
        self.data.append(np.asarray(sample, dtype=float).copy())
