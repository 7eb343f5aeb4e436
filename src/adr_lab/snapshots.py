"""The time loop and stability report shared by the 2-D and 3-D solvers.

Snapshot timing is step-aligned: a requested time is satisfied by the first
step whose time t = step * dt is at or after it, and the exact step index and
time are recorded so output files never need interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import grid
from .errors import ConfigurationError, DivergenceError, StabilityError
from .grid import Field

if TYPE_CHECKING:
    from .diagnostics import TrajectoryLog

__all__ = ["SnapshotSeries", "Stability", "run_steps", "snapshot_steps", "step_count"]


@dataclass(frozen=True)
class Stability:
    """A scheme's dimensionless stability numbers and its verdict.

    violated names the first constraint that fails, or is None when the
    step is stable.  coefficients holds the stencil weights the scheme's
    step applies; as_dict() leaves them out.
    """

    scheme: str
    numbers: dict[str, float]
    violated: str | None
    coefficients: tuple

    @property
    def ok(self) -> bool:
        return self.violated is None

    def as_dict(self) -> dict:
        return {"scheme": self.scheme, **self.numbers,
                "ok": self.ok, "violated": self.violated}

    def require(self, override: bool, *shown: str) -> None:
        """Raise StabilityError unless stable or overridden; quote `shown` numbers."""
        if not self.ok and not override:
            detail = ", ".join(f"{name}={self.numbers[name]}" for name in shown)
            raise StabilityError(
                f"step rejected: stability constraint '{self.violated}' fails "
                f"({detail})",
                self,
            )


def step_count(t_end: float, dt: float) -> int:
    """Index of the first step whose time step * dt is at or after t_end."""
    return int(np.ceil(t_end / dt - 1e-9)) if t_end > 0 else 0


def snapshot_steps(snapshot_times, dt: float, t_end: float) -> list[int]:
    """Map requested times to step indices (first step with t >= requested)."""
    times = list(snapshot_times)
    if any(times[i] > times[i + 1] for i in range(len(times) - 1)):
        raise ConfigurationError(f"time.snapshots: must be sorted ascending, got {times}")
    if times and (times[0] < 0 or times[-1] > t_end + 1e-12 * max(t_end, dt)):
        raise ConfigurationError(
            f"time.snapshots: must lie within [0, time.t_end={t_end}], got {times}"
        )
    return [step_count(t, dt) for t in times]


@dataclass
class SnapshotSeries:
    """What a run records at its requested times, reduced as each is captured.

    Per capture: steps, times, each species' maxima and minima, l2_norms and
    negatives, the first value below -1e-12 times the largest |value| (a
    dict of species, cell and the field's min; None if there is none).  A
    2-D series keeps a copy of each field in fields; a 3-D one sets plane,
    the index of the 2-D slice it reports, keeps a copy of the values there
    in slices, and sets trajectories, the log of its tracked cells.
    squares holds the squares of the last boxed capture, +0.0 outside every
    box so far; np.zeros allocates it at the first, so its pages that no box
    reaches are never touched.
    """

    requested_times: list[float]
    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    maxima: list[np.ndarray] = field(default_factory=list)
    minima: list[np.ndarray] = field(default_factory=list)
    negatives: list[dict | None] = field(default_factory=list)
    l2_norms: list[float] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    slices: list[np.ndarray] = field(default_factory=list)
    stability: Stability | None = None
    chemistry_rate_scale: float = 0.0  # 3-D runs with chemistry only
    plane: tuple | None = None
    trajectories: TrajectoryLog | None = None
    squares: np.ndarray | None = field(default=None, repr=False, compare=False)

    def append(self, step: int, time: float, snapshot: Field, box=None) -> None:
        """Record snapshot, which the caller may change afterwards.

        box, per-axis slices of the interior, says that every value outside
        it is +0.0; the maxima and minima then reduce over box and fold in
        +0.0, which gives the numbers of a reduction over the whole field,
        and l2_norm squares only the box.  So boxes must never shrink.
        """
        from .diagnostics import l2_norm  # looked up per call: perfbench patches it
        v = snapshot.values
        if box is not None and self.squares is None:
            self.squares = np.zeros(v.shape)
        inside = v if box is None else v[(slice(None), *box)]
        axes, fold = tuple(range(1, v.ndim)), {} if box is None else {"initial": 0.0}
        hi, lo = inside.max(axis=axes, **fold), inside.min(axis=axes, **fold)
        tol = 1e-12 * np.maximum(np.abs(hi), np.abs(lo)).max()
        vmin = lo.min()
        found = None
        if vmin < -tol:
            species, cell = _first(inside < -tol, box)
            found = {"species": species, "cell": cell, "value": float(vmin)}
        self.steps.append(step)
        self.times.append(time)
        self.maxima.append(hi)
        self.minima.append(lo)
        self.negatives.append(found)
        self.l2_norms.append(l2_norm(snapshot, box, self.squares))
        if self.plane is None:
            self.fields.append(snapshot.copy())
        else:
            self.slices.append(v[self.plane].copy())


def _first(mask: np.ndarray, box) -> tuple[int, tuple[int, ...]]:
    """Species and grid cell of mask's first true entry; mask covers box (None: the grid)."""
    where = np.argwhere(mask)[0] + [0, *(s.start for s in box or ())]
    return int(where[0]), tuple(int(i) for i in where[1:])


def run_steps(initial: Field, advance, dt: float, t_end: float,
              series: SnapshotSeries, sample=None) -> SnapshotSeries:
    """Step from t=0 to t_end, capturing the series' requested snapshots.

    The loop owns two buffers, a copy of initial and one zero field, and
    swaps them after each step: advance(old, new, t) fills the interior of
    new with the state one step after time t.  Boundary nodes are never
    written; the copy of initial, whose boundary the first step still
    reads, is zeroed once when it first becomes the spare.  advance may
    return per-axis slices of the grid, a box outside which it wrote
    nothing; it may do so only while every cell outside the box is zero in
    both buffers.  So a box must never shrink: the spare starts as zeros
    and then holds the state from two steps back, zero outside every
    earlier box.  Each requested snapshot goes to series.append as the live
    field, with the box of the step that wrote it (None at step 0), and
    sample(step, t, values), when given, sees the state at every step from
    0 to the last.  A non-finite value written by a step
    (inside its box, or anywhere when advance returns None) raises
    DivergenceError naming the step, species and cell.
    """
    pending = snapshot_steps(series.requested_times, dt, t_end)
    n_steps = step_count(t_end, dt)
    field = initial.copy()
    spare = Field.zeros(initial.grid, initial.species_count)
    step, box = 0, None
    while True:
        t = step * dt
        while pending and pending[0] <= step:
            series.append(step, t, field, box)
            pending.pop(0)
        if sample is not None:
            sample(step, t, field.values)
        if step >= n_steps:
            return series
        box = advance(field, spare, t)
        field, spare = spare, field
        if step == 0:
            grid.zero_dirichlet(spare)  # looked up per call: perfbench patches it
        step += 1
        written = field.values if box is None else field.values[(slice(None), *box)]
        if not np.isfinite(written).all():
            species, cell = _first(~np.isfinite(written), box)
            raise DivergenceError(
                f"non-finite value after step {step} (t={step * dt}) "
                f"at species {species}, cell {cell}",
                step,
            )
