"""Stoichiometric reaction networks and the NO2 photolysis rate schedule.

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

import numpy as np

from .errors import InputError, NumericError

__all__ = [
    "ConstantRate",
    "PhotolysisK1",
    "PointSource",
    "ReactionNetwork",
    "reaction_rates_field",
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


def reaction_rates_field(
    network: ReactionNetwork, t: float, conc: np.ndarray
) -> np.ndarray:
    """The rates R_j(t, c) of every cell of a field, conc shape (s, *grid).

    Sources are applied at their registered cells.  Agrees with evaluating
    R_j cell by cell (tested); whole arrays because the 3-D solver evaluates
    chemistry over ~1e6 cells per step.  An overflow is left in the result:
    the time loop's finite check reports it with its step, species and cell.
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
