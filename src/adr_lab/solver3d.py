"""Explicit first-order upwind scheme for 3-D advection-diffusion-reaction.

Advection uses backward (upwind) differences, valid for nonnegative
velocities; diffusion uses centered differences; chemistry is unsplit
forward Euler evaluated on the previous-step state, so one step is

    c_new = c + dt * ( -sum_i u_i (c[i] - c[i-1]) / d_i
                       + sum_i k_i (c[i+1] - 2 c[i] + c[i-1]) / d_i^2
                       + R(t, c) )

on every interior node, with boundaries re-zeroed afterwards.  Stability
requires the combined constraint

    2(Rx + Ry + Rz) + Px Rx + Py Ry + Pz Rz < 1,   R = k dt/d^2, P = u d/k

(note P R = u dt/d, the Courant ratio per axis) together with the CFL
condition max_i(u_i dt / d_i) <= alpha < 1.
"""

from __future__ import annotations

import logging

import numpy as np

from .chemistry import ReactionNetwork, reaction_rates_field
from .errors import ConfigurationError
from .grid import Field, Grid, TransportParams, zero_dirichlet
from .snapshots import SnapshotSeries, Stability, run_steps

__all__ = ["stability3d", "step3d", "run3d"]

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.9

_AXES = {"x": 0, "y": 1, "z": 2}


def stability3d(
    params: TransportParams,
    grid: Grid,
    dt: float,
    alpha: float = DEFAULT_ALPHA,
) -> Stability:
    if not (dt > 0):
        raise ValueError(f"dt must be positive, got {dt}")
    if not (0 < alpha < 1):
        raise ConfigurationError(f"CFL threshold alpha must be in (0, 1), got {alpha}")
    spacing = grid.spacing
    r = [k * dt / d**2 for k, d in zip(params.k, spacing)]
    # P = u d / k; the product P*R is computed as u dt / d directly, which is
    # the same number algebraically but stays finite when k = 0.
    p = [0.0 if u == 0.0 else (u * d / k if k > 0 else float("inf"))
         for u, k, d in zip(params.u, params.k, spacing)]
    courant = [u * dt / d for u, d in zip(params.u, spacing)]
    combined = 2.0 * sum(r) + sum(courant)
    cfl = max(courant)
    violated = None
    if not (combined < 1.0):
        violated = "2Rx+2Ry+2Rz+PxRx+PyRy+PzRz < 1"
    elif not (cfl <= alpha):
        violated = "max(u*dt/d) <= alpha"
    numbers = {
        "Rx": r[0], "Ry": r[1], "Rz": r[2], "Px": p[0], "Py": p[1], "Pz": p[2],
        "cfl": cfl, "combined": combined, "alpha": alpha,
    }
    return Stability("upwind-3d", numbers, violated)


def _check_velocities(params: TransportParams) -> None:
    # Upwind differencing is derived for u >= 0; negative components would
    # need the mirrored stencil and are rejected rather than silently flipped.
    if any(u < 0 for u in params.u):
        raise ConfigurationError(
            f"upwind solver requires nonnegative velocities, got {params.u}"
        )


def _transport_increment(cs: np.ndarray, adv, dif, out: np.ndarray) -> None:
    """Write the upwind + diffusion increment for one species into out[1:-1,...]."""
    I = (slice(1, -1),) * 3
    out[I] = (
        -adv[0] * (cs[1:-1, 1:-1, 1:-1] - cs[:-2, 1:-1, 1:-1])
        - adv[1] * (cs[1:-1, 1:-1, 1:-1] - cs[1:-1, :-2, 1:-1])
        - adv[2] * (cs[1:-1, 1:-1, 1:-1] - cs[1:-1, 1:-1, :-2])
        + dif[0] * (cs[2:, 1:-1, 1:-1] - 2.0 * cs[1:-1, 1:-1, 1:-1] + cs[:-2, 1:-1, 1:-1])
        + dif[1] * (cs[1:-1, 2:, 1:-1] - 2.0 * cs[1:-1, 1:-1, 1:-1] + cs[1:-1, :-2, 1:-1])
        + dif[2] * (cs[1:-1, 1:-1, 2:] - 2.0 * cs[1:-1, 1:-1, 1:-1] + cs[1:-1, 1:-1, :-2])
    )


def step3d(
    field: Field,
    params: TransportParams,
    grid: Grid,
    network: ReactionNetwork | None,
    t: float,
    dt: float,
    override_stability: bool = False,
    _report: Stability | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> Field:
    """One explicit step at time t; returns a new Field, boundary re-zeroed.

    network=None means pure transport.  Chemistry is evaluated on the
    previous-step state, simultaneously with transport.
    """
    _check_velocities(params)
    rep = _report if _report is not None else stability3d(params, grid, dt, alpha)
    rep.require(override_stability, "combined", "cfl", "alpha")
    spacing = grid.spacing
    adv = [u * dt / d for u, d in zip(params.u, spacing)]
    dif = [k * dt / d**2 for k, d in zip(params.k, spacing)]
    old = field.values
    new = old.copy()
    incr = np.empty(grid.shape)
    for s in range(field.species_count):
        _transport_increment(old[s], adv, dif, incr)
        new[s, 1:-1, 1:-1, 1:-1] += incr[1:-1, 1:-1, 1:-1]
    if network is not None:
        rates = reaction_rates_field(network, t, old)
        new[:, 1:-1, 1:-1, 1:-1] += dt * rates[:, 1:-1, 1:-1, 1:-1]
    return zero_dirichlet(Field(grid, new))


def _reaction_rate_warning(network: ReactionNetwork, initial: Field, dt: float) -> float:
    """Crude chemistry stiffness estimate: dt * max_j |dR_j/dc| from bounds.

    The transport constraint says nothing about reaction stiffness; this is
    logged as a warning only, never enforced.
    """
    cmax = np.maximum(initial.values.reshape(initial.species_count, -1).max(axis=1), 0.0)
    worst = 0.0
    sto = np.abs(network.stoichiometry)
    for nu in range(network.species_count):
        total = 0.0
        for kappa in range(network.reaction_count):
            l_nu = network.loss[nu, kappa]
            if l_nu == 0:
                continue
            deriv = network.rates[kappa].bound * l_nu
            if cmax[nu] > 0:
                deriv *= cmax[nu] ** (l_nu - 1)
            elif l_nu > 1:
                deriv = 0.0
            for mu in range(network.species_count):
                if mu != nu and network.loss[mu, kappa]:
                    deriv *= cmax[mu] ** network.loss[mu, kappa]
            total += sto[:, kappa].max() * deriv
        worst = max(worst, total)
    scale = dt * worst
    if scale > 0.5:
        logger.warning(
            "explicit chemistry may be under-resolved: dt*|dR/dc| estimate "
            "= %.3g > 0.5", scale,
        )
    return scale


def run3d(
    initial: Field,
    params: TransportParams,
    grid: Grid,
    network: ReactionNetwork | None,
    dt: float,
    t_end: float,
    snapshot_times,
    slice_axis: str = "z",
    slice_index: int = 1,
    trajectory_cells=None,
    trajectory_stride: int = 10,
    override_stability: bool = False,
    alpha: float = DEFAULT_ALPHA,
):
    """Run the 3-D scheme, returning (SnapshotSeries, TrajectoryLog).

    Snapshots keep the full field plus the requested 2-D slice.  When
    trajectory_cells is given (a list of interior (i, j, k) tuples), the
    per-species state of those cells is appended every trajectory_stride
    steps.
    """
    from .diagnostics import TrajectoryLog  # local import: avoids module cycle

    _check_velocities(params)
    if slice_axis not in _AXES:
        raise ConfigurationError(f"slice axis must be one of x, y, z; got {slice_axis}")
    axis = _AXES[slice_axis]
    if not (0 <= slice_index < grid.shape[axis]):
        raise ConfigurationError(
            f"slice index {slice_index} outside axis {slice_axis} "
            f"of size {grid.shape[axis]}"
        )
    report = stability3d(params, grid, dt, alpha)
    scale = _reaction_rate_warning(network, initial, dt) if network is not None else 0.0
    series = SnapshotSeries(requested_times=list(snapshot_times), stability=report,
                            chemistry_rate_scale=scale)

    log = TrajectoryLog(
        cells=[grid.interior_cell(c, f"trajectories.cells[{n}]")
               for n, c in enumerate(trajectory_cells or [])],
        stride=trajectory_stride,
        species=list(network.species) if network is not None
        else [f"c{j+1}" for j in range(initial.species_count)],
    )
    cell_idx = tuple(np.array([c[a] for c in log.cells]) for a in range(3))
    plane_idx = (slice(None),) * (axis + 1) + (slice_index,)

    def take_slice(values: np.ndarray) -> np.ndarray:
        return values[plane_idx].copy()

    def sample(step: int, t: float, values: np.ndarray) -> None:
        if step % log.stride == 0:
            log.append(t, values[:, cell_idx[0], cell_idx[1], cell_idx[2]].T)

    def advance(field: Field, t: float) -> Field:
        return step3d(field, params, grid, network, t, dt,
                      override_stability=override_stability, _report=report)

    run_steps(initial, advance, dt, t_end, series, take_slice=take_slice,
              sample=sample if log.cells else None)
    return series, log
