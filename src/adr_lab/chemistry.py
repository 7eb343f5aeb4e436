"""Stoichiometric reaction networks and the NO/NO2/O3 photochemistry.

A network of r reactions over s species is described by nonnegative integer
loss and gain matrices l[j][kappa], gain[j][kappa] (species j, reaction
kappa), bounded rate schedules h_kappa(t), and optional per-cell point
sources.  The per-species rate is

    R_j(t, c) = sum_kappa (gain - loss)_{j,kappa} * h_kappa(t)
                * prod_nu c_nu ** loss[nu][kappa]

with the convention x**0 = 1 (including 0**0 = 1), plus any source
registered for (j, cell).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError, UnsupportedNetworkError

__all__ = [
    "ConstantRate",
    "PhotolysisK1",
    "photolysis_k1",
    "PointSource",
    "ReactionNetwork",
    "DbarEstimate",
    "reaction_rates",
    "reaction_rates_field",
    "classify_H",
    "compute_dbar",
    "ozone_network",
]

# Daytime window in local hours, half-open so 20:00 is already night.
DAY_START_HOUR = 4.0
DAY_END_HOUR = 20.0
K1_DAY_SCALE = 1e-5
K1_NIGHT = 1e-40


@dataclass(frozen=True)
class ConstantRate:
    """Time-independent rate schedule h(t) = value; bound equals the value."""

    value: float

    def __post_init__(self):
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise InputError(f"constant rate must be finite and >= 0, got {self.value}")

    @property
    def bound(self) -> float:
        return self.value if self.value > 0 else 1.0

    def __call__(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class PhotolysisK1:
    """Sunlight-driven rate: 24 h-periodic, peaking at noon.

    Daytime (4 <= local hour < 20):
        K1_DAY_SCALE * exp(7 * sin(pi*(hour - 4)/16) ** 0.2)
    otherwise K1_NIGHT.  At dawn the sine vanishes and 0**0.2 = 0, so the
    rate is continuous from the right at 04:00; the dusk-side jump down to
    the night value is part of the schedule.
    """

    @property
    def bound(self) -> float:
        return K1_DAY_SCALE * math.exp(7.0)

    def __call__(self, t: float) -> float:
        if t < 0:
            raise InputError(f"photolysis rate requires t >= 0, got {t}")
        # reduce in seconds first: fmod is exact, so the schedule is exactly
        # periodic for every t with an exactly representable t + 86400
        hour = math.fmod(t, 86400.0) / 3600.0
        if DAY_START_HOUR <= hour < DAY_END_HOUR:
            sec = math.sin(math.pi * (hour - DAY_START_HOUR) / 16.0) ** 0.2
            return K1_DAY_SCALE * math.exp(7.0 * sec)
        return K1_NIGHT


_DEFAULT_K1 = PhotolysisK1()


def photolysis_k1(t: float) -> float:
    """The photolysis rate k1(t) in 1/s with the default day/night schedule."""
    return _DEFAULT_K1(t)


@dataclass(frozen=True)
class PointSource:
    """Constant emission of one species into one cell, in concentration/time."""

    species: int
    cell: tuple[int, ...]
    rate: float


@dataclass(frozen=True)
class ReactionNetwork:
    species: tuple[str, ...]
    loss: np.ndarray        # (s, r) nonnegative integers
    gain: np.ndarray        # (s, r) nonnegative integers
    rates: tuple            # r schedules, each callable with a .bound
    sources: tuple[PointSource, ...] = ()

    def __post_init__(self):
        loss = np.asarray(self.loss, dtype=int)
        gain = np.asarray(self.gain, dtype=int)
        object.__setattr__(self, "loss", loss)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "species", tuple(self.species))
        object.__setattr__(self, "rates", tuple(self.rates))
        object.__setattr__(self, "sources", tuple(self.sources))
        s = len(self.species)
        if loss.shape != gain.shape or loss.shape[0] != s:
            raise InputError(
                f"loss/gain must be (species, reactions) = ({s}, r); "
                f"got {loss.shape} and {gain.shape}"
            )
        if (loss < 0).any() or (gain < 0).any():
            raise InputError("loss and gain entries must be nonnegative integers")
        if len(self.rates) != loss.shape[1]:
            raise InputError(
                f"{len(self.rates)} rate schedules for {loss.shape[1]} reactions"
            )
        for src in self.sources:
            if not (0 <= src.species < s):
                raise InputError(f"source species index {src.species} out of range")

    @property
    def species_count(self) -> int:
        return len(self.species)

    @property
    def reaction_count(self) -> int:
        return self.loss.shape[1]

    @property
    def stoichiometry(self) -> np.ndarray:
        """Net molecule change per (species, reaction): gain - loss."""
        return self.gain - self.loss

    def rate_values(self, t: float) -> np.ndarray:
        """Evaluate all schedules at t, asserting each stays within its bound."""
        h = np.empty(self.reaction_count)
        for kappa, sched in enumerate(self.rates):
            v = sched(t)
            if not (0.0 <= v <= sched.bound):
                raise NumericError(
                    f"rate schedule {kappa} returned {v} at t={t}, "
                    f"outside [0, {sched.bound}]"
                )
            h[kappa] = v
        return h


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


def reaction_rates_field(
    network: ReactionNetwork, t: float, conc: np.ndarray
) -> np.ndarray:
    """Vectorized reaction_rates over a whole field, conc shape (s, *grid).

    Sources are applied at their registered cells.  Equivalent to calling
    reaction_rates cell by cell (tested); this path exists because the 3-D
    solver evaluates chemistry over ~1e6 cells per step.  An overflow is
    left in the result: the time loop's finite check reports it with its
    step, species and cell.
    """
    h = network.rate_values(t)
    out = np.zeros_like(conc)
    sto = network.stoichiometry
    for kappa in range(network.reaction_count):
        g = np.full(conc.shape[1:], h[kappa])
        for nu in range(network.species_count):
            exp = network.loss[nu, kappa]
            if exp == 1:
                g *= conc[nu]
            elif exp > 1:
                g *= conc[nu] ** exp
        for j in range(network.species_count):
            if sto[j, kappa]:
                out[j] += sto[j, kappa] * g
    for src in network.sources:
        out[(src.species,) + src.cell] += src.rate
    return out


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


@dataclass(frozen=True)
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
        raise UnsupportedNetworkError(
            "dbar is defined only for monomolecular networks "
            "(every reaction must consume at most one molecule)"
        )
    d = np.array([sched.bound for sched in network.rates])
    r = network.reaction_count
    gain_term = float(np.sqrt(((network.gain * d) ** 2).sum()))
    net_term = float(np.sqrt(((network.stoichiometry * d) ** 2).sum()))
    dbar = math.sqrt(2 * (r - 1)) * max(gain_term, net_term)
    return DbarEstimate(dbar=dbar, beta=beta)


def ozone_network(
    k2: float = 1e-16,
    sigma2: float | None = 1e6,
    source_cell: tuple[int, int, int] = (1, 1, 1),
) -> ReactionNetwork:
    """Tropospheric NO/NO2/O3 pair of reactions.

    Reaction 1 (photolysis): NO2 -> NO + O3, rate k1(t) * [NO2].
    Reaction 2:              NO + O3 -> NO2, rate k2 * [NO] * [O3].
    O2 is treated as constant and folded into the rate constants.  sigma2, if
    not None, is a constant NO emission at source_cell.  All values are in
    whatever concentration unit the caller uses consistently.
    """
    loss = np.array([
        [0, 1],   # NO
        [1, 0],   # NO2
        [0, 1],   # O3
    ])
    gain = np.array([
        [1, 0],
        [0, 1],
        [1, 0],
    ])
    rates = (PhotolysisK1(), ConstantRate(k2))
    sources = ()
    if sigma2 is not None:
        sources = (PointSource(species=0, cell=tuple(source_cell), rate=sigma2),)
    return ReactionNetwork(
        species=("NO", "NO2", "O3"),
        loss=loss,
        gain=gain,
        rates=rates,
        sources=sources,
    )
