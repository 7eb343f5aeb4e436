"""Workload definitions: each turns a seed into the YAML config the program reads.

A seed changes values only (cell positions, transport coefficients), never
the amount of work: grid size, step count, snapshot count, tracked-cell count
and row counts are the same for every seed of a workload.

Output digests can only be recorded for a finite set of inputs, so a seed
selects one of POOL registered variants (seed mod POOL).  HELD_OUT is one more
registered variant that is kept out of that pool, for checking a claimed gain
on inputs not used while the change was written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

POOL = 16
HELD_OUT = 9001
SCALES = ("full", "tiny")

# Values of the bundled src/adr_lab/configs/ozone-3d.yaml, kept here so that a
# later edit of the bundled file cannot silently change the benchmark.
OZONE_SNAPSHOTS = (0.0, 20.0, 50.0, 100.0, 200.0, 300.0, 400.0, 500.0, 600.0)
OZONE_HORIZON = 600.0
OZONE_CHEMISTRY = {
    "species": ["NO", "NO2", "O3"],
    "reactions": [
        {"loss": {"NO2": 1}, "gain": {"NO": 1, "O3": 1},
         "rate": {"kind": "photolysis_k1"}},
        {"loss": {"NO": 1, "O3": 1}, "gain": {"NO2": 1},
         "rate": {"kind": "constant", "value": 1.0e-16}},
    ],
}
OZONE_INITIAL_VALUES = [1.3e8, 5.0e11, 8.0e11]
OZONE_SOURCE_RATE = 1.0e6


def variant(seed: int) -> int:
    """The registered input variant a seed selects."""
    return seed if seed == HELD_OUT else seed % POOL


def registered_variants() -> list[int]:
    return list(range(POOL)) + [HELD_OUT]


def _tracked_cells(rng: np.random.Generator, n: int, spacing: int) -> list[list[int]]:
    """Lattice of interior cells with a seeded per-axis offset.

    The count per axis is that of the unshifted lattice range(1, n - 1, spacing);
    the offset only moves the lattice within the interior.
    """
    count = len(range(1, n - 1, spacing))
    slack = (n - 2) - (1 + spacing * (count - 1))
    axes = [[1 + int(o) + spacing * m for m in range(count)]
            for o in rng.integers(0, slack + 1, size=3)]
    return [[i, j, k] for i in axes[0] for j in axes[1] for k in axes[2]]


def _ozone_config(rng: np.random.Generator, *, mode: str, n: int, steps: int,
                  snapshots: list[float], spacing: int, stride: int,
                  corner: int) -> dict:
    # The emitting cell is drawn from the interior box [1, corner]^3 near the
    # inflow corner, like the bundled [1, 1, 1]: with all velocities positive
    # the plume then crosses the grid, and every seed keeps it inside.
    cell = [int(v) for v in rng.integers(1, corner + 1, size=3)]
    return {
        "mode": mode,
        "grid": {"nx": n, "ny": n, "nz": n,
                 "Lx": 1000.0, "Ly": 1000.0, "Lz": 1000.0},
        "transport": {"u": [1.0, 1.0, 1.0], "k": [2.0e-5, 2.0e-5, 2.0e-5]},
        "time": {"dt": 1.0, "t_end": float(steps), "snapshots": snapshots},
        "units": {"input": "per_cm3", "cell_volume_m3": 10.0},
        "chemistry": {
            **OZONE_CHEMISTRY,
            "sources": [{"species": "NO", "cell": cell, "rate": OZONE_SOURCE_RATE}],
        },
        "initial": {"kind": "point", "cell": cell, "values": OZONE_INITIAL_VALUES},
        "slice": {"axis": "z", "index": 1},
        "trajectories": {"stride": stride,
                         "cells": _tracked_cells(rng, n, spacing)},
    }


def ozone3d_config(rng: np.random.Generator, scale: str) -> dict:
    n, steps = (101, 24) if scale == "full" else (11, 4)
    # The nine bundled snapshot times, scaled into the shorter horizon, so a
    # run still retains nine full fields.
    snapshots = [t * steps / OZONE_HORIZON for t in OZONE_SNAPSHOTS]
    return _ozone_config(rng, mode="simulate3d", n=n, steps=steps,
                         snapshots=snapshots, spacing=25 if scale == "full" else 3,
                         stride=10 if scale == "full" else 2,
                         corner=10 if scale == "full" else 3)


def snapshots3d_config(rng: np.random.Generator, scale: str) -> dict:
    n, steps, every = (51, 100, 5) if scale == "full" else (11, 6, 2)
    snapshots = [float(t) for t in range(0, steps + 1, every)]
    return _ozone_config(rng, mode="trajectories", n=n, steps=steps,
                         snapshots=snapshots, spacing=5 if scale == "full" else 3,
                         stride=1, corner=5 if scale == "full" else 3)


def compare2d_config(rng: np.random.Generator, scale: str) -> dict:
    # The bundled benchmark-2d.yaml uses u = 5, k = 0.5.  On its 46^2 grid with
    # dt = 1e-4 the stability gate needs k < 1.23 and u < 90 k; these ranges
    # keep every seed well inside it.
    u = round(float(rng.uniform(4.0, 6.0)), 3)
    k = round(float(rng.uniform(0.4, 0.6)), 3)
    t_end, snapshots = ((0.12, [0.05, 0.09, 0.12]) if scale == "full"
                        else (0.006, [0.0025, 0.0045, 0.006]))
    return {
        "mode": "compare",
        "grid": {"nx": 46, "ny": 46, "Lx": 1.0, "Ly": 1.0},
        "transport": {"u": [u, u], "k": [k, k]},
        "time": {"dt": 1.0e-4, "t_end": t_end,
                 "snapshots": snapshots},
        "initial": {"kind": "sine_product"},
        "series": {"M": 40, "N": 40},
    }


@dataclass(frozen=True)
class Workload:
    name: str
    make_config: Callable[[np.random.Generator, str], dict]
    # execute calls per child interpreter: several where one call is short,
    # so that interpreter start-up does not dominate a repetition
    calls_per_child: dict
    # layers the trace guard requires to record calls on this workload
    expected_layers: tuple[str, ...]

    def config(self, seed: int, scale: str) -> dict:
        return self.make_config(np.random.default_rng(variant(seed)), scale)


_LAYERS_3D = (
    "cli.execute", "solver3d.run3d", "solver3d.step3d",
    "chemistry.reaction_rates_field", "grid.zero_dirichlet", "grid.Field.copy",
    "snapshots.append", "cli.write_csv", "cli.write_slice",
    "diagnostics.TrajectoryLog.append", "diagnostics.positivity_check",
    "diagnostics.l2_norm",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="ozone3d",
            make_config=ozone3d_config,
            calls_per_child={"full": 1, "tiny": 1},
            expected_layers=_LAYERS_3D,
        ),
        Workload(
            name="compare2d",
            make_config=compare2d_config,
            calls_per_child={"full": 12, "tiny": 2},
            expected_layers=(
                "cli.execute", "solver2d.run2d", "solver2d.step2d",
                "grid.zero_dirichlet", "grid.Field.copy", "snapshots.append",
                "analytic2d.build_series", "analytic2d.sample_series",
                "diagnostics.max_error_vs_analytic", "diagnostics.l2_norm",
                "cli.write_csv",
            ),
        ),
        Workload(
            name="snapshots3d",
            make_config=snapshots3d_config,
            calls_per_child={"full": 1, "tiny": 1},
            expected_layers=_LAYERS_3D,
        ),
    )
}


def field_bytes(config: dict) -> int:
    """Bytes of one full concentration field of a config (float64)."""
    g = config["grid"]
    cells = g["nx"] * g["ny"] * g.get("nz", 1)
    species = len(config["chemistry"]["species"]) if "chemistry" in config else 1
    return cells * species * 8


def steps(config: dict) -> int:
    t = config["time"]
    return int(np.ceil(t["t_end"] / t["dt"] - 1e-9))


def cell_updates(config: dict) -> int:
    """Grid cells x species x steps of one execute call, as the manifest counts them."""
    return field_bytes(config) // 8 * steps(config)
