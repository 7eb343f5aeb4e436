"""Explicit centered finite-difference scheme for 2-D advection-diffusion.

With diffusion numbers R = k dt/dx^2 and cell Peclet numbers P = u dx/(2k),
the grouped-coefficient update for each interior node is

    c_new[i,j] = (1 - 2Rx - 2Ry) c[i,j]
               + (Rx - Px Rx) c[i+1,j] + (Rx + Px Rx) c[i-1,j]
               + (Ry - Py Ry) c[i,j+1] + (Ry + Py Ry) c[i,j-1]

which is stable (all coefficients positive, discrete maximum principle) when
1 - 2Rx - 2Ry > 0 and Px, Py < 1.  Steps are double-buffered: every new value
reads only the previous buffer, so results are independent of sweep order.
"""

from __future__ import annotations

from . import _native
from .errors import ConfigurationError
from .grid import Field, Grid, TransportParams
from .grid import zero_dirichlet  # noqa: F401 (patched by perfbench/tracing.py)
from .snapshots import SnapshotSeries, Stability, run_steps

__all__ = ["stability2d", "step2d", "run2d"]


def _peclet(u: float, spacing: float, k: float) -> float:
    # u = 0 is advection-free regardless of k; k = 0 with u > 0 is unbounded.
    if u == 0.0:
        return 0.0
    return u * spacing / (2.0 * k) if k > 0 else float("inf")


def stability2d(params: TransportParams, grid: Grid, dt: float) -> Stability:
    """Diffusion/Peclet numbers and weights (c0, xp, xm, yp, ym); failure is data.

    The weights multiply c[i,j], c[i+1,j] (downwind), c[i-1,j], c[i,j+1], c[i,j-1].
    """
    if not (dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt}")
    ux, uy = params.u
    kx, ky = params.k
    dx, dy = grid.spacing
    rx = kx * dt / dx**2
    ry = ky * dt / dy**2
    px = _peclet(ux, dx, kx)
    py = _peclet(uy, dy, ky)
    c0 = 1.0 - 2.0 * rx - 2.0 * ry
    violated = None
    if not (c0 > 0.0):
        violated = "1-2Rx-2Ry > 0"
    elif not (px < 1.0):
        violated = "Px < 1"
    elif not (py < 1.0):
        violated = "Py < 1"
    return Stability("centered-2d", {"Rx": rx, "Ry": ry, "Px": px, "Py": py}, violated,
                     (c0, rx - px * rx, rx + px * rx, ry - py * ry, ry + py * ry))


def step2d(field: Field, report: Stability, out: Field | None = None) -> Field:
    """One double-buffered step of field with report's weights; returns the Field written.

    The new state goes to the interior of out, whose boundary nodes are
    left as they are, or else to a new Field with a zero boundary.  A
    compiled loop groups the update as in the module docstring, read left
    to right; see _native.check_step_buffers for the values it takes.
    """
    if out is None:
        out = Field.zeros(field.grid, field.species_count)
    old, new = field.values, out.values
    _native.check_step_buffers(old, new)
    _native.library().adr_step2d(old.ctypes.data, new.ctypes.data, *old.shape,
                                 *report.coefficients)
    return out


def run2d(
    initial: Field,
    params: TransportParams,
    dt: float,
    t_end: float,
    snapshot_times,
    override_stability: bool = False,
) -> SnapshotSeries:
    """Step initial.grid from t=0 to t_end, capturing snapshots at the requested times."""
    report = stability2d(params, initial.grid, dt)
    report.require(override_stability, "Rx", "Ry", "Px", "Py")
    series = SnapshotSeries(requested_times=list(snapshot_times), stability=report)

    def advance(old: Field, new: Field, t: float, box: None) -> None:
        step2d(old, report, new)

    return run_steps(initial, advance, dt, t_end, series)
