"""Closed-form series solution of the 2-D advection-diffusion problem.

For constant scalar velocity u (shared by both axes), diffusivity k > 0,
zero Dirichlet boundaries on the unit square, and initial profile f, the
solution is the double sine series

    c(t, x, y) = sum_{m,n >= 1} A[m,n] * exp(lambda_{m,n} t)
                 * exp(u (x + y) / (2k)) * sin(m pi x) * sin(n pi y)

with eigenvalues lambda_{m,n} = -k (m^2 + n^2) pi^2 - u^2 / (2k) and

    A[m,n] = 4 * integral over [0,1]^2 of
             f(x,y) exp(-u x / 2k) exp(-u y / 2k) sin(m pi x) sin(n pi y).

The truncated series is the ground-truth oracle for the 2-D solver.  Terms
are always summed in increasing m^2 + n^2 (ties by (m, n)) so evaluation is
bit-reproducible regardless of parallel layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import _native
from .errors import ConfigurationError, InputError, NumericError
from .grid import Field, Grid, zero_dirichlet

__all__ = [
    "SeriesSolution",
    "build_series",
    "sample_series",
    "coefficient_rows",
    "default_quad_points",
]

_PANEL_POINTS = 8  # Gauss-Legendre nodes per composite panel


@lru_cache(maxsize=64)
def _composite_gauss(total_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [0, 1].

    Splits [0, 1] into ceil(total_points / 8) equal panels with an 8-point
    rule on each, so `total_points` is the (approximate) per-axis node count.
    """
    npanels = max(1, math.ceil(total_points / _PANEL_POINTS))
    xg, wg = np.polynomial.legendre.leggauss(_PANEL_POINTS)
    width = 1.0 / npanels
    offsets = (np.arange(npanels) + 0.5) * width
    nodes = (offsets[:, None] + (width / 2) * xg[None, :]).ravel()
    weights = np.tile((width / 2) * wg, npanels)
    return nodes, weights


def default_quad_points(m: int, n: int) -> int:
    """8 nodes per half-wavelength of the highest mode, at least 16."""
    return max(16, _PANEL_POINTS * max(m, n))


def _weighted_samples(
    f: Callable, u: float, k: float, quad_points: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate f(x,y) * exp(-u(x+y)/2k) on the tensor quadrature grid.

    f is called once on broadcast node arrays (x down, y across).
    """
    if not (k > 0):
        raise ConfigurationError(f"diffusivity must be positive, got {k}")
    x, w = _composite_gauss(quad_points)
    fv = np.empty((x.size, x.size))
    fv[...] = f(x[:, None], x[None, :])
    if not np.isfinite(fv).all():
        i, j = np.argwhere(~np.isfinite(fv))[0]
        raise NumericError(
            f"non-finite integrand sample at (x, y) = ({x[i]}, {x[j]})"
        )
    decay = np.exp(-u / (2.0 * k) * x)
    return x, w, fv * decay[:, None] * decay[None, :]


@dataclass(frozen=True)
class SeriesSolution:
    """Truncated double sine series with M*N coefficients."""

    u: float
    k: float
    M: int
    N: int
    A: np.ndarray   # (M, N); A[m-1, n-1] is the (m, n) coefficient

    def __post_init__(self):
        if not (self.k > 0):
            raise ConfigurationError(f"diffusivity must be positive, got {self.k}")
        A = np.asarray(self.A, dtype=float)
        if A.shape != (self.M, self.N):
            raise ConfigurationError(
                f"coefficient matrix shape {A.shape} != (M, N) = ({self.M}, {self.N})"
            )
        if not np.isfinite(A).all():
            raise NumericError("non-finite series coefficients")
        object.__setattr__(self, "A", A)

    def eigenvalue(self, m: int, n: int) -> float:
        return -self.k * (m * m + n * n) * math.pi**2 - self.u**2 / (2.0 * self.k)

    def term_order(self) -> list[tuple[int, int]]:
        """(m, n) pairs in the fixed summation order: increasing m^2 + n^2."""
        return sorted(
            ((m, n) for m in range(1, self.M + 1) for n in range(1, self.N + 1)),
            key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn),
        )

    @cached_property
    def terms(self) -> tuple[np.ndarray, ...]:
        """The arrays m, n, A_mn and eigenvalue(m, n) of the terms in term_order(), made once.

        They are read-only: the compiled sum reads the sine tables at m and n.
        """
        order = self.term_order()
        m, n = np.array(order, dtype=np.int64).T.copy()
        terms = m, n, self.A[m - 1, n - 1], np.array([self.eigenvalue(*mn) for mn in order])
        for a in terms:
            a.flags.writeable = False
        return terms


def build_series(
    f: Callable,
    u: float,
    k: float,
    M: int = 40,
    N: int = 40,
) -> SeriesSolution:
    """Compute all coefficients A[1..M, 1..N] for initial profile f.

    Uses one shared quadrature grid and a sine-matrix product; each entry
    is the tensor-product quadrature of the A[m,n] integral with
    default_quad_points(M, N) nodes per axis (tested coefficient by
    coefficient).
    """
    if M < 1 or N < 1:
        raise InputError(f"truncation orders must be >= 1, got ({M}, {N})")
    x, w, F = _weighted_samples(f, u, k, default_quad_points(M, N))
    Sm = np.sin(np.pi * np.arange(1, M + 1)[:, None] * x[None, :]) * w
    Sn = np.sin(np.pi * np.arange(1, N + 1)[:, None] * x[None, :]) * w
    A = 4.0 * Sm @ F @ Sn.T
    return SeriesSolution(u=u, k=k, M=M, N=N, A=A)


def sample_series(sol: SeriesSolution, grid: Grid, t: float) -> Field:
    """Sample the series at every grid node; boundary exactly zero.

    The grid must cover the unit square: the series derivation hardwires
    [0,1]x[0,1].  The compiled library (see _native.library) sums the terms
    at every node in the fixed summation order, each term's coefficient
    A_mn exp(lambda_mn t) taken with libm's exp, as math.exp does; this
    matches a pointwise evaluation of the series node by node up to the
    shared growth factor.
    """
    if not all(math.isclose(L, 1.0) for L in grid.lengths):
        raise ConfigurationError(
            f"series solution is defined on the unit square; "
            f"grid extents are {grid.lengths}"
        )
    if t < 0:
        raise InputError(f"series evaluation requires t >= 0, got {t}")
    x, y = grid.coords()
    # one np.sin call per mode, as ever: a vectorised sin may round by position
    sin_x = np.array([np.sin(m * np.pi * x) for m in range(1, sol.M + 1)])
    sin_y = np.array([np.sin(n * np.pi * y) for n in range(1, sol.N + 1)])
    acc = _sum_terms(sol, sin_x, sin_y, t)
    gx, gy = (np.exp(sol.u / (2.0 * sol.k) * c) for c in (x, y))
    vals = acc * gx[:, None] * gy[None, :]
    if not np.isfinite(vals).all():
        raise NumericError(f"series sampling produced non-finite values at t={t}")
    return zero_dirichlet(Field(grid, vals[None, :, :]))


def _sum_terms(sol: SeriesSolution, sin_x: np.ndarray, sin_y: np.ndarray,
               t: float) -> np.ndarray:
    """The (nx, ny) sums of the terms of sol at t over the float64 sine tables sin_x
    (M, nx) and sin_y (N, ny), C-contiguous, by the compiled library.

    The library skips a term's row where it provably changes no bit; it is
    handed the largest |value| of each row of sin_y, +inf for each column of
    sin_y that holds only zeros (else +0.0), and a buffer for a floor of the
    |sums| of each row.
    """
    acc = np.empty((sin_x.shape[1], sin_y.shape[1]))
    ymax = np.abs(sin_y).max(axis=1)
    dead = np.where((sin_y != 0.0).any(axis=0), 0.0, np.inf)
    floors = np.empty(sin_x.shape[1])
    tables = [a.ctypes.data for a in (sin_x, sin_y, *sol.terms)]
    _native.library().adr_sample_series(*tables, sol.M * sol.N, *acc.shape, float(t),
                                        *(a.ctypes.data for a in (acc, ymax, dead, floors)))
    return acc


def coefficient_rows(sol: SeriesSolution) -> np.ndarray:
    """The (M*N, 3) float64 table of (m, n, A_mn) rows for CSV export, in the
    fixed summation order; m and n are whole numbers."""
    return np.column_stack(sol.terms[:3])
