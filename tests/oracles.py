"""Pointwise reference implementations that the tests compare the package with.

Each is the slow, readable form of something the package computes over whole
arrays, or one of the paper's checks (norm-growth bound, trajectory
clustering) that only the acceptance criteria use.  None is installed with
the package: the program does not run them.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from adr_lab import (
    ConstantRate,
    Field,
    InputError,
    NumericError,
    PointSource,
    ReactionNetwork,
    SeriesSolution,
    TrajectoryLog,
    zero_dirichlet,
)
from adr_lab.analytic2d import _weighted_samples, default_quad_points
from adr_lab.chemistry import reaction_rates_field
from adr_lab.cli import bundled_config_path, parse_config


# ---------------------------------------------------------------------------
# analytic series


def fourier_coefficient(
    f: Callable,
    u: float,
    k: float,
    m: int,
    n: int,
    quad_points: int | None = None,
) -> float:
    """Series coefficient A[m,n] by tensor-product composite quadrature."""
    if m < 1 or n < 1:
        raise InputError(f"mode orders must be >= 1, got ({m}, {n})")
    if quad_points is None:
        quad_points = default_quad_points(m, n)
    x, w, F = _weighted_samples(f, u, k, quad_points)
    sm = np.sin(m * np.pi * x) * w
    sn = np.sin(n * np.pi * x) * w
    return float(4.0 * sm @ F @ sn)


def eval_series(sol: SeriesSolution, t: float, x: float, y: float) -> float:
    """Evaluate the truncated series at one point, t >= 0, (x, y) in [0,1]^2."""
    if t < 0:
        raise InputError(f"series evaluation requires t >= 0, got {t}")
    growth = math.exp(sol.u * (x + y) / (2.0 * sol.k))
    total = 0.0
    for m, n, a, lam in zip(*(v.tolist() for v in sol.terms)):
        total += a * math.exp(lam * t) * math.sin(m * math.pi * x) * math.sin(n * math.pi * y)
    value = growth * total
    if not math.isfinite(value):
        raise NumericError(f"series evaluation non-finite at t={t}, ({x}, {y})")
    return value


def numpy_sample_series(sol: SeriesSolution, grid, t: float) -> Field:
    """sample_series with numpy summing the terms, a whole-grid term at a time.

    For each term in term_order() it adds A_mn exp(lambda_mn t) times the
    outer product of the mode's sines to the grid, starting from zeros, with
    math.exp and eigenvalue() called term by term.  The compiled sum must
    give the same bytes.
    """
    x, y = grid.coords()
    sin_x = {m: np.sin(m * np.pi * x) for m in range(1, sol.M + 1)}
    sin_y = {n: np.sin(n * np.pi * y) for n in range(1, sol.N + 1)}
    acc = np.zeros(grid.shape)
    for m, n in sol.term_order():
        coef = sol.A[m - 1, n - 1] * math.exp(sol.eigenvalue(m, n) * t)
        acc += coef * np.outer(sin_x[m], sin_y[n])
    gx, gy = (np.exp(sol.u / (2.0 * sol.k) * c) for c in (x, y))
    return zero_dirichlet(Field(grid, (acc * gx[:, None] * gy[None, :])[None]))


# ---------------------------------------------------------------------------
# finite-difference schemes


def numpy_step2d(field: Field, report, out: Field | None = None) -> Field:
    """solver2d.step2d in numpy, one whole-array operation per term.

    Each interior node's update is grouped as in solver2d's docstring read
    left to right; the boundary of out is left as it is.  The compiled
    kernel must give the same bytes.
    """
    c0, xp, xm, yp, ym = report.coefficients
    old = field.values
    if out is None:
        out = Field.zeros(field.grid, field.species_count)
    out.values[:, 1:-1, 1:-1] = (
        c0 * old[:, 1:-1, 1:-1]
        + xp * old[:, 2:, 1:-1] + xm * old[:, :-2, 1:-1]
        + yp * old[:, 1:-1, 2:] + ym * old[:, 1:-1, :-2]
    )
    return out


def _sine_transform(values: np.ndarray, axis: int) -> np.ndarray:
    """The orthonormal, symmetric sine transform of values along axis."""
    n = values.shape[axis]
    i = np.arange(1, n + 1)
    s = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(i, i) / (n + 1))
    return np.moveaxis(np.tensordot(s, values, axes=([1], [axis])), 0, axis)


def exact_stencil(values: np.ndarray, c0: float, lower, upper, steps: int) -> np.ndarray:
    """A constant stencil after `steps` steps from values, in closed form.

    One step maps each interior node to c0*c[i] plus, along each axis a,
    lower[a]*c[i-1] + upper[a]*c[i+1]; boundary nodes stay zero.  Along an
    axis with m interior nodes this is tridiagonal Toeplitz.  Scaling node i
    by rho**i, rho = sqrt(lower/upper), makes it symmetric with off-diagonal
    sqrt(lower*upper), whose eigenvectors are sines and whose eigenvalues
    are 2*sqrt(lower*upper)*cos(p*pi/(m+1)) (LeVeque, Finite Difference
    Methods for Ordinary and Partial Differential Equations, SIAM 2007).
    So c^n = W S(lambda^n * S(c^0 / W)), S the sine transform on every axis.
    """
    inner = (slice(1, -1),) * values.ndim
    w, lam = np.ones(()), np.full((), c0)
    for lo, up, n in zip(lower, upper, values.shape):
        # i numbers the interior nodes, which are also the sine modes
        i = np.arange(1, n - 1)
        w = np.multiply.outer(w, np.sqrt(lo / up) ** i)
        lam = np.add.outer(lam, 2 * np.sqrt(lo * up) * np.cos(i * np.pi / (n - 1)))
    b = values[inner] / w
    for axis in range(values.ndim):
        b = _sine_transform(b, axis)
    b *= lam**steps
    for axis in range(values.ndim):
        b = _sine_transform(b, axis)
    out = np.zeros_like(values)
    out[inner] = w * b
    return out


def numpy_advance_blocks(old: np.ndarray, new: np.ndarray, todo, box: tuple, adv, dif,
                         network, t: float, dt: float) -> None:
    """The block step of solver3d._advance_blocks in numpy, a drop-in for it.

    Each block's chemistry lands in new first; the block then takes dt*rates
    out, writes the transport increment in its place and adds the old state
    and dt*rates, one numpy pass per operation, grouped as in the formula of
    solver3d's docstring read left to right.  The compiled kernel must give
    the same bytes.
    """
    ys, zs = box[1:]
    ym, yp = slice(ys.start - 1, ys.stop - 1), slice(ys.start + 1, ys.stop + 1)
    zm, zp = slice(zs.start - 1, zs.stop - 1), slice(zs.start + 1, zs.stop + 1)
    while True:
        try:
            lo, hi = todo.popleft()
        except IndexError:  # another thread took the last block
            return
        inner = (slice(None), slice(lo, hi), ys, zs)
        if network is not None:
            reaction_rates_field(network, t, old[inner], out=new[inner],
                                 offset=(lo, ys.start, zs.start))
        c, o = old, new[inner]
        centre = c[inner]
        lower = (c[:, lo - 1:hi - 1, ys, zs], c[:, lo:hi, ym, zs], c[:, lo:hi, ys, zm])
        upper = (c[:, lo + 1:hi + 1, ys, zs], c[:, lo:hi, yp, zs], c[:, lo:hi, ys, zp])
        r = o * dt if network is not None else None
        np.subtract(centre, lower[0], out=o)
        o *= -adv[0]
        for axis in (1, 2):
            o -= (centre - lower[axis]) * adv[axis]
        c2 = centre * 2.0
        for axis in range(3):
            o += ((upper[axis] - c2) + lower[axis]) * dif[axis]
        o += centre
        if r is not None:
            o += r


# ---------------------------------------------------------------------------
# chemistry


def bundled_ozone(
    k2: float,
    no_emission: float | None = None,
    cell: tuple[int, int, int] = (1, 1, 1),
) -> ReactionNetwork:
    """The NO/NO2/O3 network of the bundled ozone-3d config, in model units.

    Species, loss and gain come from the YAML.  The NO + O3 rate constant is
    replaced by k2, and the sources by one NO emission of no_emission at
    cell, or by none.
    """
    net = parse_config(bundled_config_path("ozone-3d.yaml")).network
    sources = ()
    if no_emission is not None:
        sources = (PointSource(net.species.index("NO"), cell, no_emission),)
    return dataclasses.replace(net, rates=(net.rates[0], ConstantRate(k2)),
                               sources=sources)


def reaction_rates(
    network: ReactionNetwork,
    t: float,
    c: Sequence[float],
    cell: tuple[int, ...] | int | None = None,
) -> np.ndarray:
    """Per-species rates dc/dt at one cell, plus any sources registered there."""
    c = np.asarray(c, dtype=float)
    if not np.isfinite(c).all():
        raise InputError(f"concentrations must be finite, got {c}")
    h = network.rate_values(t)
    g = np.empty(network.reaction_count)
    for kappa in range(network.reaction_count):
        monomial = 1.0
        for nu in range(network.species_count):
            exp = network.loss[nu, kappa]
            if exp:        # skipping exp == 0 realizes the 0**0 = 1 convention
                # c**exp as c * c * ... * c, multiplied left to right
                monomial *= math.prod([c[nu]] * exp)
        g[kappa] = h[kappa] * monomial
        if not math.isfinite(g[kappa]):
            raise NumericError(f"non-finite rate in reaction {kappa} at t={t}")
    out = network.stoichiometry @ g
    if cell is not None:
        key = tuple(cell) if isinstance(cell, (tuple, list)) else cell
        for src in network.sources:
            if src.cell == key:
                out[src.species] += src.rate
    return out


# ---------------------------------------------------------------------------
# the paper's norm-growth bound (criterion 9)


def classify_H(network: ReactionNetwork) -> tuple[bool, int | None]:
    """Monomolecular classification: every reaction consumes 0 or 1 molecule.

    Returns (holds, beta) where beta = 0 when no reaction consumes anything
    (constant-source case) and beta = 1 when at least one reaction has a unit
    loss entry.  beta is None when the classification fails.
    """
    per_reaction = network.loss.sum(axis=0)
    holds = bool(np.isin(per_reaction, (0, 1)).all())
    if not holds:
        return False, None
    beta = 0 if (per_reaction == 0).all() else 1
    return True, beta


@dataclasses.dataclass(frozen=True)
class DbarEstimate:
    """Growth-bound constant dbar and exponent beta for ||u(t)|| checks."""

    dbar: float
    beta: int


def compute_dbar(network: ReactionNetwork) -> DbarEstimate:
    """Lipschitz/affine bound constant of the reaction map.

        dbar = sqrt(2(r-1)) * max( ||gain .* d||_F, ||(gain-loss) .* d||_F )

    with d the per-reaction rate bounds.  Only valid for monomolecular
    networks.  Degenerates to 0 at r = 1 because of the (r-1) factor; that
    degeneracy is inherited from the bound's derivation and kept verbatim.
    """
    holds, beta = classify_H(network)
    if not holds:
        raise ValueError(
            "dbar is defined only for monomolecular networks "
            "(every reaction must consume at most one molecule)"
        )
    d = np.array([sched.bound for sched in network.rates])
    r = network.reaction_count
    gain_term = float(np.sqrt(((network.gain * d) ** 2).sum()))
    net_term = float(np.sqrt(((network.stoichiometry * d) ** 2).sum()))
    dbar = math.sqrt(2 * (r - 1)) * max(gain_term, net_term)
    return DbarEstimate(dbar=dbar, beta=beta)


def boundedness_check(
    times,
    norms,
    dbar: DbarEstimate,
    u0_norm: float,
) -> tuple[bool, np.ndarray]:
    """Check ||u(t)|| <= exp(dbar*t) * (||u0|| + 1) at every sample.

    Returns (ok, margins) where margins[i] = bound(t_i) - norm_i.  The bound
    is proved only for monomolecular networks, the only ones compute_dbar
    gives a DbarEstimate for.
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    bound = np.exp(dbar.dbar * times) * (u0_norm + 1.0)
    margins = bound - norms
    return bool((margins >= 0).all()), margins


# ---------------------------------------------------------------------------
# trajectory clustering (criterion 10)


def trajectory_points(
    log: TrajectoryLog, t_min: float = -math.inf, t_max: float = math.inf
) -> np.ndarray:
    """All (c1..cs) samples of log with t_min <= t < t_max as an (N, s) array."""
    chunks = [d for t, d in zip(log.times, log.data) if t_min <= t < t_max]
    if not chunks:
        return np.empty((0, 0))
    return np.concatenate(chunks, axis=0)


def max_pairwise_distance(points: np.ndarray, block: int = 1024) -> float:
    """Largest Euclidean distance between any two rows of an (N, d) array."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 2:
        return 0.0
    best = 0.0
    for start in range(0, pts.shape[0], block):
        chunk = pts[start:start + block]
        d2 = ((chunk[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1)
        best = max(best, float(d2.max()))
    return math.sqrt(best)


# ---------------------------------------------------------------------------
# CSV output


def csv_field(v) -> str:
    """One CSV value, formatted value by value: a float (numpy's too) as the
    repr of a Python float, the shortest round-trip form; an integer as str."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def trajectory_rows(log: TrajectoryLog):
    """The (t, i, j, k, c1, ..., cs) rows of trajectories.csv, one per sample and cell."""
    for t, block in zip(log.times, log.data):
        for cell, conc in zip(log.cells, block):
            yield (t, *cell, *conc)
