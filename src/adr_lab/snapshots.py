"""The time loop and stability report shared by the 2-D and 3-D solvers.

Snapshot timing is step-aligned: a requested time is satisfied by the first
step whose time t = step * dt is at or after it, and the exact step index and
time are recorded so output files never need interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivergenceError, StabilityError
from .grid import Field

__all__ = ["SnapshotSeries", "Stability", "run_steps", "snapshot_steps", "step_count"]


@dataclass(frozen=True)
class Stability:
    """A scheme's dimensionless stability numbers and its verdict.

    violated names the first constraint that fails, or is None when the
    step is stable.
    """

    scheme: str
    numbers: dict[str, float]
    violated: str | None

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
        raise ConfigurationError("snapshot times must be sorted ascending")
    if times and (times[0] < 0 or times[-1] > t_end + 1e-12 * max(t_end, dt)):
        raise ConfigurationError(
            f"snapshot times must lie within [0, t_end={t_end}], got {times}"
        )
    return [step_count(t, dt) for t in times]


@dataclass
class SnapshotSeries:
    """Fields captured at requested times during a run."""

    requested_times: list[float]
    steps: list[int] = field(default_factory=list)
    times: list[float] = field(default_factory=list)
    fields: list[Field] = field(default_factory=list)
    slices: list[np.ndarray] = field(default_factory=list)  # 3-D runs only
    stability: Stability | None = None
    chemistry_rate_scale: float = 0.0  # 3-D runs with chemistry only

    def append(self, step: int, time: float, snapshot: Field,
               plane: np.ndarray | None = None) -> None:
        self.steps.append(step)
        self.times.append(time)
        self.fields.append(snapshot)
        if plane is not None:
            self.slices.append(plane)


def run_steps(initial: Field, advance, dt: float, t_end: float,
              series: SnapshotSeries, take_slice=None, sample=None) -> SnapshotSeries:
    """Step from t=0 to t_end, capturing the series' requested snapshots.

    advance(field, t) returns the field one step after time t.  take_slice,
    when given, maps field values to the 2-D plane stored beside each
    snapshot.  sample(step, t, values), when given, sees the state at every
    step from 0 to the last.  A non-finite value after a step raises
    DivergenceError naming the step, species and cell.
    """
    pending = snapshot_steps(series.requested_times, dt, t_end)
    n_steps = step_count(t_end, dt)
    field = initial.copy()
    step = 0
    while True:
        t = step * dt
        while pending and pending[0] <= step:
            plane = take_slice(field.values) if take_slice is not None else None
            series.append(step, t, field.copy(), plane=plane)
            pending.pop(0)
        if sample is not None:
            sample(step, t, field.values)
        if step >= n_steps:
            return series
        field = advance(field, t)
        step += 1
        if not np.isfinite(field.values).all():
            bad = np.argwhere(~np.isfinite(field.values))[0]
            raise DivergenceError(
                f"non-finite value after step {step} (t={step * dt}) "
                f"at species {bad[0]}, cell {tuple(int(i) for i in bad[1:])}",
                step,
            )
