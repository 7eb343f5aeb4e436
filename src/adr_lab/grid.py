"""Uniform rectangular grids and multi-species concentration fields.

Grids are vertex-centered: node i sits at x = i*dx for i in [0, n-1], so the
first and last nodes lie on the physical boundary and dx = L/(n-1).  Fields
store one scalar array per species, species-major, and carry the zero
Dirichlet boundary value on every boundary node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, InputError

__all__ = [
    "Grid",
    "Field",
    "TransportParams",
    "zero_dirichlet",
    "sample_initial_2d",
]

_AXIS_NAMES = "xyz"


@dataclass(frozen=True)
class Grid:
    """Uniform vertex-centered grid with shape[a] nodes over [0, lengths[a]].

    Spacing along axis a is lengths[a] / (shape[a] - 1).
    """

    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    spacing: tuple[float, ...] = dc_field(init=False)

    def __post_init__(self):
        shape, lengths = tuple(self.shape), tuple(self.lengths)
        if not (len(shape) == len(lengths) <= len(_AXIS_NAMES)):
            raise ConfigurationError(
                f"grid needs one length per axis and at most 3 axes, "
                f"got shape {shape} and lengths {lengths}"
            )
        for axis, n, L in zip(_AXIS_NAMES, shape, lengths):
            if n < 3:
                raise ConfigurationError(f"n{axis} must be >= 3, got {n}")
            if not (L > 0):
                raise ConfigurationError(f"L{axis} must be positive, got {L}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "spacing",
                           tuple(L / (n - 1) for n, L in zip(shape, lengths)))

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def num_cells(self) -> int:
        return math.prod(self.shape)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def coords(self) -> tuple[np.ndarray, ...]:
        """Node coordinate arrays along each axis."""
        return tuple(np.arange(n) * d for n, d in zip(self.shape, self.spacing))

    def interior_cell(self, cell, key: str) -> tuple[int, ...]:
        """Validate a cell reference: ndim integers with 1 <= i <= n-2 each.

        Boundary nodes are excluded because zero_dirichlet erases whatever is
        put there.  key names the reference in the error message.
        """
        if not (
            isinstance(cell, (list, tuple)) and len(cell) == self.ndim
            and all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                    for i in cell)
            and all(1 <= i <= n - 2 for i, n in zip(cell, self.shape))
        ):
            raise ConfigurationError(
                f"{key}: expected {self.ndim} integer indices of an interior "
                f"node (1 <= i <= n-2) of grid {self.shape}, got {cell!r}"
            )
        return tuple(int(i) for i in cell)


@dataclass
class Field:
    """Per-species concentrations on a grid, shape (species, *grid.shape).

    Boundary nodes carry the Dirichlet value after every operation that
    returns a Field; interior nodes hold the evolving state.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = (self.species_count,) + self.grid.shape
        if self.values.shape != expected:
            raise ConfigurationError(
                f"field values shape {self.values.shape} does not match "
                f"(species, *grid) = {expected}"
            )

    @property
    def species_count(self) -> int:
        return self.values.shape[0] if self.values.ndim > self.grid.ndim else 1

    def copy(self) -> "Field":
        return Field(self.grid, self.values.copy())

    @classmethod
    def zeros(cls, grid: Grid, species_count: int = 1) -> "Field":
        if species_count < 1:
            raise ConfigurationError(f"species_count must be >= 1, got {species_count}")
        return cls(grid, np.zeros((species_count,) + grid.shape))


@dataclass(frozen=True)
class TransportParams:
    """Constant per-axis advection velocities u and diffusion coefficients k.

    Entries must be nonnegative.  The solvers derive their stencils for
    positive constants; zero entries are accepted so that single-physics
    configurations (pure reaction, pure diffusion) remain expressible, and
    negative entries are always rejected.
    """

    u: tuple[float, ...]
    k: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(v) for v in self.u))
        object.__setattr__(self, "k", tuple(float(v) for v in self.k))
        if len(self.u) != len(self.k):
            raise ConfigurationError(
                f"u has {len(self.u)} axes but k has {len(self.k)}"
            )
        if any(v < 0 for v in self.u):
            raise ConfigurationError(f"advection velocities must be >= 0, got {self.u}")
        if any(v < 0 for v in self.k):
            raise ConfigurationError(f"diffusion coefficients must be >= 0, got {self.k}")


def zero_dirichlet(field: Field) -> Field:
    """Set every boundary node of every species to zero, in place.

    Interior nodes are untouched.  Idempotent.  Returns the same field.
    """
    v = field.values
    for axis in range(1, v.ndim):
        v[(slice(None),) * axis + (0,)] = 0.0
        v[(slice(None),) * axis + (-1,)] = 0.0
    return field


def sample_initial_2d(grid: Grid, f: Callable[[float, float], float]) -> Field:
    """Sample f(x, y) at every node, then apply zero Dirichlet boundaries.

    f is called once on broadcast coordinate arrays (x down, y across).
    """
    x, y = grid.coords()
    vals = np.empty(grid.shape)
    vals[...] = f(x[:, None], y[None, :])
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InputError(
            f"initial condition is non-finite at node ({i}, {j}), "
            f"(x, y) = ({x[i]}, {y[j]})"
        )
    return zero_dirichlet(Field(grid, vals[None, :, :]))
