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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _native
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
    """Time-independent rate schedule h(t) = value; bound is value, or 1.0 when value is 0."""

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

    @functools.cached_property
    def _rate_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """loss and stoichiometry as C-contiguous int64 arrays, as the rates kernel reads them."""
        return tuple(np.ascontiguousarray(a, dtype=np.int64)
                     for a in (self.loss, self.stoichiometry))

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
    network: ReactionNetwork, t: float, conc: np.ndarray,
    out: np.ndarray | None = None, offset: tuple[int, ...] | None = None,
) -> np.ndarray:
    """The rates R_j(t, c) of every cell of a block of a field, conc shape (s, *block).

    offset is the grid index of the block's first cell (the origin when
    None); sources registered at cells inside the block are applied there,
    after the reactions.  The rates go to out when given, else to a new
    array, which is returned.  The compiled library (see _native.library,
    which raises ConfigurationError without a compiler) computes them row
    by row along the block's last axis, without the GIL, by the operations
    of the numpy form numpy_reaction_rates_field in tests/oracles.py in
    their order, so with its bytes: g_kappa = h_kappa(t) times each factor
    c_nu ** loss in turn, a power multiplied out left to right first; a
    species that no reaction changes gets 0.0.  An overflow is left in the
    result: the time loop's finite check reports it with its step, species
    and cell.  Raises InputError unless conc and out are aligned float64
    arrays of one shape with 1 to 3 block axes, a unit stride on the last
    one, that share no memory.
    """
    h = network.rate_values(t)
    out = np.empty(conc.shape) if out is None else out
    views = (conc, out)
    block = conc.shape[1:]
    if (out.shape != conc.shape or not 1 <= len(block) <= 3 or np.may_share_memory(conc, out)
            or not all(a.dtype == np.float64 and a.flags.aligned and a.strides[-1] == 8
                       for a in views)):
        raise InputError("conc and out must be aligned float64 arrays of one shape with 1 to 3 "
                         "block axes, a unit stride on the last, that share no memory; got "
                         f"shapes {conc.shape}, {out.shape}")
    # the kernel reads 3 block axes: length-1 axes of stride 0 go before the block's
    c, o = (a[(slice(None),) + (None,) * (3 - len(block))] for a in views)
    geom = np.array([*c.shape, *c.strides[:3], *o.strides[:3]], dtype=np.int64)
    geom[4:] //= 8
    loss, sto = network._rate_tables
    scratch = np.empty(2 * block[-1])
    _native.library().adr_rates_block(conc.ctypes.data, out.ctypes.data, geom.ctypes.data,
                                      network.reaction_count, loss.ctypes.data,
                                      sto.ctypes.data, h.ctypes.data, scratch.ctypes.data)
    origin = offset or (0,) * len(block)
    for src in network.sources:
        local = tuple(i - first for i, first in zip(src.cell, origin))
        if all(0 <= i < n for i, n in zip(local, block)):
            out[(src.species,) + local] += src.rate
    return out
