"""Explicit first-order upwind scheme for 3-D advection-diffusion-reaction.

Advection uses backward (upwind) differences, valid for nonnegative
velocities; diffusion uses centered differences; chemistry is unsplit
forward Euler evaluated on the previous-step state, so one step is

    c_new = c + dt * ( -sum_i u_i (c[i] - c[i-1]) / d_i
                       + sum_i k_i (c[i+1] - 2 c[i] + c[i-1]) / d_i^2
                       + R(t, c) )

on every interior node, while boundary nodes stay zero.  Stability
requires the combined constraint

    2(Rx + Ry + Rz) + Px Rx + Py Ry + Pz Rz < 1,   R = k dt/d^2, P = u d/k

(note P R = u dt/d, the Courant ratio per axis) together with the CFL
condition max_i(u_i dt / d_i) <= alpha < 1.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from . import _native
from .chemistry import ReactionNetwork, reaction_rates_field
from .diagnostics import TrajectoryLog
from .errors import ConfigurationError, InputError
from .grid import Field, Grid, TransportParams
from .grid import zero_dirichlet  # noqa: F401 (patched by perfbench/tracing.py)
from .snapshots import SnapshotSeries, Stability, run_steps

if TYPE_CHECKING:
    from concurrent.futures import Executor

__all__ = ["stability3d", "step3d", "run3d", "step_threads"]

logger = logging.getLogger(__name__)

DEFAULT_ALPHA = 0.9
# x-planes per block, one unit of a step's work.  Each block costs one
# chemistry call and one kernel call; smaller blocks leave less for the last
# thread to finish alone at the end of a step.  On a 2-vCPU host neither a
# full-interior 101^3 step nor the snapshots3d benchmark ran faster with 1,
# 2, 4 or 16 planes than with 8, at 1 or 2 threads (ROADMAP item 2).
BLOCK_PLANES = 8


def stability3d(
    params: TransportParams,
    grid: Grid,
    dt: float,
    alpha: float = DEFAULT_ALPHA,
) -> Stability:
    if not (dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt}")
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
    # the step's weights: u dt/d on the upwind and k dt/d^2 on the diffusion terms
    return Stability("upwind-3d", numbers, violated, (courant, r))


def step_threads(nx: int, threads: int) -> int:
    """Threads for an nx-plane grid: min(threads, usable CPUs, interior blocks), at least 1."""
    return max(1, min(threads, _usable_cpus(), len(range(1, nx - 1, BLOCK_PLANES))))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _advance_blocks(old: np.ndarray, new: np.ndarray, todo: deque, box: tuple, adv, dif,
                    network: ReactionNetwork | None, t: float, dt: float) -> None:
    """Step the x-planes [lo, hi) taken from the left of todo until it is empty.

    A block's cells inside the y and z ranges of box go from old to new,
    all species at once.  Its chemistry lands in new first; the compiled
    kernel then writes the transport update in its place, with dt*rates
    added last, grouped as in the formula of the module docstring read left
    to right, so any blocks give the same bytes.  The kernel runs without
    the GIL, so the threads that share todo step their blocks in parallel.
    """
    ys, zs = box[1:]
    geom = np.array([*old.shape, ys.start, ys.stop, zs.start, zs.stop], dtype=np.int64)
    weights = np.array([-adv[0], adv[1], adv[2], *dif, dt])
    kernel = _native.library().adr_step3d_block
    while True:
        try:
            lo, hi = todo.popleft()
        except IndexError:
            return
        if network is not None:
            inner = (slice(None), slice(lo, hi), ys, zs)
            reaction_rates_field(network, t, old[inner], out=new[inner],
                                 offset=(lo, ys.start, zs.start))
        kernel(old.ctypes.data, new.ctypes.data, geom.ctypes.data, weights.ctypes.data,
               lo, hi, network is not None)


def step3d(
    field: Field,
    report: Stability,
    network: ReactionNetwork | None,
    t: float,
    dt: float,
    out: Field | None = None,
    pool: Executor | None = None,
    threads: int = 1,
    box: tuple[slice, slice, slice] | None = None,
) -> Field:
    """One explicit step at time t with report's weights; returns the Field written.

    network=None means pure transport.  Chemistry is evaluated on the
    previous-step state, simultaneously with transport.  The new state goes
    to the interior of out, whose boundary nodes are left as they are, or
    else to a new Field with a zero boundary.  box, per-axis slices inside
    the interior, limits the cells written to those it covers (None: the
    whole interior); every other cell of out is left as it is.  The x-planes
    of box, cut into blocks of BLOCK_PLANES planes from its first one, wait
    in one queue, which this thread empties together with threads - 1 tasks
    on pool when pool is given: each thread takes the next block when it is
    free, so a thread that the machine slows down takes fewer blocks instead
    of holding up the step.  The first call in a process loads the compiled
    library (see _native.library), which raises ConfigurationError when it
    cannot be built.
    """
    adv, dif = report.coefficients
    if out is None:
        out = Field.zeros(field.grid, field.species_count)
    shape = field.grid.shape
    box = tuple(slice(*s.indices(n)) for s, n in zip(box or (slice(1, -1),) * 3, shape))
    _check_species(field, network)
    # the kernel reads one cell past each side of box and trusts these
    old, new = field.values, out.values
    _native.check_step_buffers(old, new)
    if not all(s.step == 1 and 1 <= s.start and s.stop <= n - 1 for s, n in zip(box, shape)):
        raise InputError(f"box {box} is not inside the interior of the grid {shape}")
    _native.library()  # built or loaded here, before any thread needs it
    xs = box[0]
    todo = deque((lo, min(lo + BLOCK_PLANES, xs.stop))
                 for lo in range(xs.start, xs.stop, BLOCK_PLANES))

    def drain() -> None:
        _advance_blocks(old, new, todo, box, adv, dif, network, t, dt)

    helpers = [pool.submit(drain) for _ in range(threads - 1)] if pool is not None else []
    drain()
    for helper in helpers:
        helper.result()
    return out


def _check_species(field: Field, network: ReactionNetwork | None) -> None:
    if network is not None and network.species_count != field.species_count:
        raise InputError(f"the network has {network.species_count} species, "
                         f"the field {field.species_count}")


def _initial_box(initial: Field, network: ReactionNetwork | None) -> tuple[slice, ...]:
    """Per-axis slices of the grid bounding every cell that may be non-zero before the first step.

    These are the cells of bitwise non-zero values of initial, boundary
    included (so -0.0, NaN and inf count), and the source cells.  A reaction
    without reactants has a non-zero rate everywhere, so then the box is the
    whole grid.
    """
    shape = initial.grid.shape
    if network is not None and not network.loss.any(axis=0).all():
        return tuple(slice(0, n) for n in shape)
    v = initial.values
    occupied = v.view(np.uint64).any(axis=0)  # bitwise non-zero, in one pass
    sources = network.sources if network is not None else ()
    box = []
    for axis, n in enumerate(shape):
        hits = np.flatnonzero(occupied.any(axis=tuple(b for b in range(3) if b != axis)))
        ends = hits[[0, -1]].tolist() if hits.size else []
        ends += [src.cell[axis] for src in sources]
        lo, hi = (min(ends), max(ends) + 1) if ends else (0, 0)
        box.append(slice(min(max(lo, 0), n), min(max(hi, 0), n)))
    return tuple(box)


def _grow(box: tuple[slice, ...], shape: tuple[int, ...]) -> tuple[slice, ...]:
    """box widened by one cell per side and clipped to the interior."""
    return tuple(slice(max(s.start - 1, 1), min(s.stop + 1, n - 1)) for s, n in zip(box, shape))


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
            deriv = network.rates[kappa].bound * l_nu * cmax[nu] ** (l_nu - 1)
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
    threads: int = 1,
) -> SnapshotSeries:
    """Run the 3-D scheme on initial.grid and return its SnapshotSeries.

    A snapshot keeps its reductions and, in series.slices, a copy of the
    requested 2-D slice; no full field is kept.  When trajectory_cells is
    given (a list of interior (i, j, k) tuples), the per-species state of
    those cells is appended to series.trajectories every trajectory_stride
    steps.  Each step runs its blocks on step_threads(nx, threads)
    threads, this one and the rest from a pool that lives for the run; the
    result does not depend on threads.
    """
    grid = initial.grid
    if slice_axis not in ("x", "y", "z"):
        raise ConfigurationError(f"slice.axis: expected x, y or z, got {slice_axis!r}")
    axis = "xyz".index(slice_axis)
    if not (0 <= slice_index < grid.shape[axis]):
        raise ConfigurationError(
            f"slice.index: {slice_index} outside axis {slice_axis} "
            f"of size {grid.shape[axis]}"
        )
    report = stability3d(params, grid, dt, alpha)
    _check_species(initial, network)
    scale = _reaction_rate_warning(network, initial, dt) if network is not None else 0.0
    log = TrajectoryLog(
        cells=[grid.interior_cell(c, f"trajectories.cells[{n}]")
               for n, c in enumerate(trajectory_cells or [])],
        stride=trajectory_stride,
    )
    series = SnapshotSeries(requested_times=list(snapshot_times), stability=report,
                            chemistry_rate_scale=scale, trajectories=log,
                            plane=(slice(None),) * (axis + 1) + (slice_index,))
    cell_idx = tuple(np.array([c[a] for c in log.cells]) for a in range(3))

    def sample(step: int, t: float, values: np.ndarray) -> None:
        if step % log.stride == 0:
            log.append(t, values[:, cell_idx[0], cell_idx[1], cell_idx[2]].T)

    workers = step_threads(grid.shape[0], threads)
    # Each step reaches one cell along each axis, so a cell outside the box
    # grown by one per step has an all-zero neighbourhood and steps to +0.0:
    # it is left as the buffer holds it, which is zero (see run_steps).
    box = _initial_box(initial, network)

    def advance(old: Field, new: Field, t: float) -> tuple[slice, ...]:
        nonlocal box
        box = _grow(box, grid.shape)
        step3d(old, report, network, t, dt, out=new, pool=pool, threads=workers, box=box)
        return box

    report.require(override_stability, "combined", "cfl", "alpha")
    pool = None
    if workers > 1:
        # imported here, so that a run on one thread skips its time and memory
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(workers - 1)
    try:
        return run_steps(initial, advance, dt, t_end, series,
                         sample=sample if log.cells else None)
    finally:
        if pool is not None:
            pool.shutdown()
