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
    InputError,
    NumericError,
    PointSource,
    ReactionNetwork,
    SeriesSolution,
    TrajectoryLog,
)
from adr_lab.analytic2d import _weighted_samples, default_quad_points
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
    for m, n in sol.term_order():
        total += (
            sol.A[m - 1, n - 1]
            * math.exp(sol.eigenvalue(m, n) * t)
            * math.sin(m * math.pi * x)
            * math.sin(n * math.pi * y)
        )
    value = growth * total
    if not math.isfinite(value):
        raise NumericError(f"series evaluation non-finite at t={t}, ({x}, {y})")
    return value


# ---------------------------------------------------------------------------
# finite-difference schemes


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
                monomial *= c[nu] ** exp
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
