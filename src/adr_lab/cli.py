"""Configuration-driven command line front end.

Usage:
    adr-lab <mode-or-config> [--config PATH] [--out-dir DIR] [--threads N]
            [--override-stability]

The positional argument is either a path to a YAML config file or a mode
name (analytic2d | simulate2d | simulate3d | compare | converge |
trajectories) combined with --config.  Every run writes a manifest.json
(created before the first snapshot, finalized at exit, present even for
failed runs) plus mode-specific CSV artifacts.  All outputs are written
atomically (temp file + rename) and are bit-reproducible: --threads is a
scheduling hint recorded in the manifest and never changes output bytes.

Exit codes: 0 success, 1 validation error, 2 numeric divergence,
3 stability rejection.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .analytic2d import build_series, coefficient_rows, sample_series
from .chemistry import (
    ConstantRate,
    PhotolysisK1,
    PointSource,
    ReactionNetwork,
)
from .diagnostics import (
    convergence_order,
    l2_norm,
    max_error_vs_analytic,
    positivity_check,
)
from .errors import AdrLabError, ConfigurationError
from .grid import Field, Grid, TransportParams, sample_initial_2d, zero_dirichlet
from .snapshots import step_count
from .solver2d import run2d
from .solver3d import DEFAULT_ALPHA, run3d

MODES = ("analytic2d", "simulate2d", "simulate3d", "compare", "converge", "trajectories")

CM3_PER_M3 = 1.0e6


# ---------------------------------------------------------------------------
# config parsing


def _check(value, typ, where: str):
    """value as a typ (an int is taken for a float); list[T] checks each entry."""
    base = getattr(typ, "__origin__", typ)
    if base is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, base) or isinstance(value, bool) and base is not bool:
        raise ConfigurationError(
            f"{where}: expected {base.__name__}, got {type(value).__name__}"
        )
    if base is not typ:
        (item,) = typ.__args__
        return [_check(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


_REQUIRED = object()


def _get(block: dict, key: str, path: str, typ, default=_REQUIRED, positive: bool = False):
    """block[key] checked against typ; required unless a default is given.

    A key set to null counts as absent.
    """
    if not isinstance(block, dict):
        raise ConfigurationError(f"{path or 'config'}: expected a mapping")
    if block.get(key) is None:
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required key: {path}{key}")
        return default
    value = _check(block[key], typ, path + key)
    if positive and not value > 0:
        raise ConfigurationError(f"{path}{key}: must be positive, got {value}")
    return value


@dataclass
class RunConfig:
    """Validated run definition; all numeric blocks resolved to model units."""

    mode: str
    raw: dict
    unit_factor: float
    grid: Grid
    transport: TransportParams
    network: ReactionNetwork | None
    dt: float
    t_end: float
    snapshot_times: list
    series_m: int
    series_n: int
    quad_points: int | None
    initial_kind: str
    initial_cell: tuple | None
    initial_values: list
    slice_axis: str
    slice_index: int
    trajectory_stride: int
    trajectory_cells: list
    alpha: float
    converge_nx: list


def _parse_grid(cfg: dict, mode: str) -> Grid:
    block = _get(cfg, "grid", "", dict)
    axes = "xyz" if mode in ("simulate3d", "trajectories") else "xy"
    return Grid(tuple(_get(block, f"n{a}", "grid.", int) for a in axes),
                tuple(_get(block, f"L{a}", "grid.", float) for a in axes))


def _parse_transport(cfg: dict, ndim: int) -> TransportParams:
    block = _get(cfg, "transport", "", dict)
    u = _get(block, "u", "transport.", list[float])
    k = _get(block, "k", "transport.", list[float])
    if len(u) != ndim or len(k) != ndim:
        raise ConfigurationError(
            f"transport.u and transport.k must have {ndim} entries"
        )
    return TransportParams(u=tuple(u), k=tuple(k))


def _parse_chemistry(cfg: dict, factor: float, grid: Grid) -> ReactionNetwork | None:
    block = _get(cfg, "chemistry", "", dict, default=None)
    if block is None:
        return None
    species = _get(block, "species", "chemistry.", list[str])
    s = len(species)
    index = {name: j for j, name in enumerate(species)}
    reactions = _get(block, "reactions", "chemistry.", list[dict])
    r = len(reactions)
    loss = np.zeros((s, r), dtype=int)
    gain = np.zeros((s, r), dtype=int)
    rates = []
    for kappa, rx in enumerate(reactions):
        path = f"chemistry.reactions[{kappa}]."
        for side, matrix in (("loss", loss), ("gain", gain)):
            counts = _get(rx, side, path, dict, default={})
            for name in counts:
                if name not in index:
                    raise ConfigurationError(f"{path}{side}: unknown species {name!r}")
                matrix[index[name], kappa] = _get(counts, name, f"{path}{side}.", int)
        rate = _get(rx, "rate", path, dict)
        kind = _get(rate, "kind", path + "rate.", str)
        if kind == "constant":
            value = _get(rate, "value", path + "rate.", float)
            # A rate constant quoted for per-cm3 concentrations rescales by
            # the cell volume once per reactant beyond the first.
            order = int(loss[:, kappa].sum())
            value *= factor ** (1 - order)
            rates.append(ConstantRate(value))
        elif kind == "photolysis_k1":
            rates.append(PhotolysisK1())
        else:
            raise ConfigurationError(
                f"{path}rate.kind: unknown rate kind {kind!r} "
                "(expected 'constant' or 'photolysis_k1')"
            )
    sources = []
    for i, src in enumerate(_get(block, "sources", "chemistry.", list[dict], default=[])):
        path = f"chemistry.sources[{i}]."
        name = _get(src, "species", path, str)
        if name not in index:
            raise ConfigurationError(f"{path}species: unknown species {name!r}")
        cell = grid.interior_cell(_get(src, "cell", path, list), path + "cell")
        rate = _get(src, "rate", path, float) * factor
        sources.append(PointSource(species=index[name], cell=cell, rate=rate))
    return ReactionNetwork(
        species=tuple(species), loss=loss, gain=gain,
        rates=tuple(rates), sources=tuple(sources),
    )


def parse_config(path: str | Path, mode: str | None = None) -> RunConfig:
    """Load and validate a YAML run configuration for the mode that will run.

    mode defaults to the file's own `mode` key; a mode given here replaces
    it, and the grid, transport and every other block are read for it.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a mapping")
    if mode is None:
        mode = _get(raw, "mode", "", str)
    if mode not in MODES:
        raise ConfigurationError(f"mode: expected one of {MODES}, got {mode!r}")

    units = _get(raw, "units", "", dict, default={})
    input_unit = _get(units, "input", "units.", str, default="model")
    if input_unit == "per_cm3":
        unit_factor = _get(units, "cell_volume_m3", "units.", float,
                           positive=True) * CM3_PER_M3
    elif input_unit == "model":
        unit_factor = 1.0
    else:
        raise ConfigurationError(
            f"units.input: expected 'per_cm3' or 'model', got {input_unit!r}"
        )

    grid = _parse_grid(raw, mode)
    transport = _parse_transport(raw, grid.ndim)
    network = _parse_chemistry(raw, unit_factor, grid)

    timed = mode != "analytic2d"
    tblock = _get(raw, "time", "", dict, _REQUIRED if timed else {})
    dt = _get(tblock, "dt", "time.", float, _REQUIRED if timed else 0.0, positive=True)
    t_end = _get(tblock, "t_end", "time.", float, default=0.0)
    snapshot_times = _get(tblock, "snapshots", "time.", list[float], default=[]) or [t_end]

    sblock = _get(raw, "series", "", dict, default={})

    iblock = _get(raw, "initial", "", dict, default={})
    initial_kind = _get(iblock, "kind", "initial.", str, default="zero")
    initial_cell, initial_values = None, []
    if initial_kind == "point":
        initial_cell = grid.interior_cell(_get(iblock, "cell", "initial.", list),
                                          "initial.cell")
        initial_values = [v * unit_factor
                          for v in _get(iblock, "values", "initial.", list[float])]
        n_species = network.species_count if network is not None else 1
        if len(initial_values) != n_species:
            raise ConfigurationError(
                f"initial.values: expected {n_species} entries, "
                f"got {len(initial_values)}"
            )
    elif initial_kind == "sine_product":
        if grid.ndim != 2:
            raise ConfigurationError(
                f"initial.kind: sine_product needs a 2-D grid, got grid {grid.shape}"
            )
    elif initial_kind != "zero":
        raise ConfigurationError(
            f"initial.kind: expected sine_product, point or zero; "
            f"got {initial_kind!r}"
        )

    slc = _get(raw, "slice", "", dict, default={})

    # Listed cells are tracked as given (run3d validates them); without them a
    # cell_spacing lattice of interior cells is tracked, by default in
    # trajectories mode only.
    traj = _get(raw, "trajectories", "", dict, default={})
    spacing = _get(traj, "cell_spacing", "trajectories.", int,
                   default=10 if mode == "trajectories" else None, positive=True)
    cells = _get(traj, "cells", "trajectories.", list, default=[])
    if not cells and spacing is not None:
        cells = list(itertools.product(*(range(1, n - 1, spacing) for n in grid.shape)))

    converge_nx = []
    if mode == "converge":
        conv = _get(raw, "converge", "", dict, default={})
        converge_nx = _get(conv, "nx_levels", "converge.", list[int])
        if len(converge_nx) < 3:
            raise ConfigurationError("converge.nx_levels: need at least 3 levels")

    return RunConfig(
        mode=mode, raw=raw, unit_factor=unit_factor,
        grid=grid, transport=transport, network=network,
        dt=dt, t_end=t_end, snapshot_times=snapshot_times,
        series_m=_get(sblock, "M", "series.", int, default=40),
        series_n=_get(sblock, "N", "series.", int, default=40),
        quad_points=_get(sblock, "quad_points", "series.", int, default=None),
        initial_kind=initial_kind, initial_cell=initial_cell,
        initial_values=initial_values,
        slice_axis=_get(slc, "axis", "slice.", str, default="z"),
        slice_index=_get(slc, "index", "slice.", int, default=1),
        trajectory_stride=_get(traj, "stride", "trajectories.", int, default=10,
                               positive=True),
        trajectory_cells=cells,
        alpha=_get(raw, "alpha", "", float, default=DEFAULT_ALPHA),
        converge_nx=converge_nx,
    )


def bundled_config_path(name: str) -> Path:
    """Path to a config shipped with the package (e.g. 'benchmark-2d.yaml')."""
    return Path(resources.files("adr_lab") / "configs" / name)


# ---------------------------------------------------------------------------
# output helpers


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _fmt(v) -> str:
    # repr of a Python float is the shortest round-trip form
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_atomic(path, "\n".join(lines) + "\n")


def write_slice(path: Path, plane: np.ndarray, species: list[str],
                labels=("i", "j"), coords=None) -> None:
    """Write a (species, a, b) plane as one CSV row per node.

    A row holds the node's two coordinates (its indices, unless coords gives
    the axis values) and then each species.
    """
    if coords is None:
        coords = (range(plane.shape[1]), range(plane.shape[2]))
    values = plane.reshape(plane.shape[0], -1).T.tolist()
    rows = ((a, b, *v) for (a, b), v in zip(itertools.product(*coords), values))
    write_csv(path, [*labels, *species], rows)


class Manifest:
    """Run manifest: written up front, finalized (atomically) at exit."""

    def __init__(self, out_dir: Path, config: RunConfig, threads: int):
        self.path = out_dir / "manifest.json"
        self.data = {
            "tool": "adr-lab",
            "version": __version__,
            "config": config.raw,
            "mode": config.mode,
            "threads": threads,
            "unit_factor": config.unit_factor,
            "status": "running",
        }
        self.flush()

    def flush(self) -> None:
        _write_atomic(self.path, json.dumps(self.data, indent=2, default=str) + "\n")

    def finalize(self, status: str, **extra) -> None:
        self.data.update(extra)
        self.data["status"] = status
        self.flush()


# ---------------------------------------------------------------------------
# mode runners


def _species_names(cfg: RunConfig) -> list[str]:
    if cfg.network is not None:
        return list(cfg.network.species)
    return ["c1"]


def _initial_field(cfg: RunConfig) -> Field:
    grid = cfg.grid
    if cfg.initial_kind == "sine_product":
        Lx, Ly = grid.lengths
        return sample_initial_2d(
            grid, lambda x, y: np.sin(np.pi * x / Lx) * np.sin(np.pi * y / Ly)
        )
    field = Field.zeros(grid, len(_species_names(cfg)))
    if cfg.initial_kind == "point":
        for s, v in enumerate(cfg.initial_values):
            field.values[(s,) + cfg.initial_cell] = v
        zero_dirichlet(field)
    return field


def _simulate(cfg: RunConfig, manifest: Manifest, override: bool):
    """Run the scheme of the grid's dimension from the configured initial field.

    Records the stability report in the manifest and returns the
    SnapshotSeries with the TrajectoryLog of a 3-D run (None in 2-D).
    """
    initial = _initial_field(cfg)
    if cfg.grid.ndim == 2:
        series = run2d(initial, cfg.transport, cfg.grid, cfg.dt, cfg.t_end,
                       cfg.snapshot_times, override_stability=override)
        log = None
    else:
        series, log = run3d(
            initial, cfg.transport, cfg.grid, cfg.network, cfg.dt, cfg.t_end,
            cfg.snapshot_times, slice_axis=cfg.slice_axis,
            slice_index=cfg.slice_index, trajectory_cells=cfg.trajectory_cells,
            trajectory_stride=cfg.trajectory_stride, override_stability=override,
            alpha=cfg.alpha,
        )
    manifest.data["stability"] = series.stability.as_dict()
    manifest.flush()
    return series, log


def _unit_sine(x, y):
    """The initial profile of the analytic series: sin(pi x) sin(pi y)."""
    return np.sin(np.pi * x) * np.sin(np.pi * y)


def _build_series_from_cfg(cfg: RunConfig):
    u, k = cfg.transport.u[0], cfg.transport.k[0]
    if any(not math.isclose(v, u) for v in cfg.transport.u) or \
       any(not math.isclose(v, k) for v in cfg.transport.k):
        raise ConfigurationError(
            "the analytic series requires one shared u and one shared k"
        )
    return build_series(_unit_sine, u, k, M=cfg.series_m, N=cfg.series_n,
                        quad_points=cfg.quad_points)


def _run_analytic2d(cfg: RunConfig, out: Path, manifest: Manifest) -> None:
    sol = _build_series_from_cfg(cfg)
    write_csv(out / "coefficients.csv", ["m", "n", "A_mn"], coefficient_rows(sol))
    for t in cfg.snapshot_times:
        field = sample_series(sol, cfg.grid, t)
        write_slice(out / f"series_t{_fmt(t)}.csv", field.values, ["c1"],
                    ("x", "y"), cfg.grid.coords())
    manifest.finalize("ok", series={"M": sol.M, "N": sol.N})


def _run_simulate2d(cfg: RunConfig, out: Path, manifest: Manifest,
                    override: bool) -> None:
    series, _ = _simulate(cfg, manifest, override)
    for step, field in zip(series.steps, series.fields):
        write_slice(out / f"snap_t{step}.csv", field.values, _species_names(cfg),
                    ("x", "y"), cfg.grid.coords())
    ok, violation = positivity_check(series)
    manifest.finalize(
        "ok",
        snapshot_steps=series.steps,
        snapshot_times=series.times,
        positivity={"ok": ok, "violation": violation},
        max_abs=[float(np.abs(f.values).max()) for f in series.fields],
    )


def _run_simulate3d(cfg: RunConfig, out: Path, manifest: Manifest,
                    override: bool) -> None:
    t0 = time.perf_counter()
    series, log = _simulate(cfg, manifest, override)
    wall = time.perf_counter() - t0
    names = _species_names(cfg)
    for step, plane in zip(series.steps, series.slices):
        write_slice(out / f"slice_t{step}.csv", plane, names)
    if log.cells:
        write_csv(out / "trajectories.csv",
                  ["t", "i", "j", "k", *names], log.rows())
    updates = cfg.grid.num_cells * len(names) * max(step_count(cfg.t_end, cfg.dt), 1)
    ok, violation = positivity_check(series)
    manifest.finalize(
        "ok",
        snapshot_steps=series.steps,
        snapshot_times=series.times,
        wall_seconds=wall,
        cell_updates_per_second=updates / wall if wall > 0 else None,
        chemistry_rate_scale=series.chemistry_rate_scale,
        positivity={"ok": ok, "violation": violation},
        max_per_species={
            name: [float(f.values[s].max()) for f in series.fields]
            for s, name in enumerate(names)
        },
        slice_max_per_species={
            name: [float(p[s].max()) for p in series.slices]
            for s, name in enumerate(names)
        },
        l2_norms=[l2_norm(f) for f in series.fields],
    )


def _run_compare(cfg: RunConfig, out: Path, manifest: Manifest,
                 override: bool) -> None:
    sol = _build_series_from_cfg(cfg)
    series, _ = _simulate(cfg, manifest, override)
    reports = [
        max_error_vs_analytic(field, sol, t)
        for t, field in zip(series.times, series.fields)
    ]
    write_csv(out / "error_report.csv",
              ["t", "max_abs_error", "l2_error"],
              [(r.t, r.max_abs_error, r.l2_error) for r in reports])
    manifest.finalize(
        "ok",
        snapshot_steps=series.steps,
        snapshot_times=series.times,
        max_errors=[r.max_abs_error for r in reports],
    )


def _run_converge(cfg: RunConfig, out: Path, manifest: Manifest) -> None:
    sol = _build_series_from_cfg(cfg)
    base_dx = cfg.grid.spacing[0]
    levels = []
    for nx in cfg.converge_nx:
        grid = Grid((nx, nx), cfg.grid.lengths)
        dt = cfg.dt * (grid.spacing[0] / base_dx) ** 2
        levels.append((grid, dt))
    order, reports = convergence_order(levels, sol, cfg.snapshot_times[-1],
                                       initial_profile=_unit_sine)
    write_csv(out / "convergence.csv",
              ["nx", "dx", "dt", "max_abs_error"],
              [(g.shape[0], g.spacing[0], dt, r.max_abs_error)
               for (g, dt), r in zip(levels, reports)])
    print(f"measured spatial order: {order:.4f}")
    manifest.finalize("ok", measured_order=order)


def execute(cfg: RunConfig, out_dir: str | Path, threads: int = 1,
            override_stability: bool = False) -> int:
    """Dispatch a validated config; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out, cfg, threads)
    try:
        match cfg.mode:
            case "analytic2d":
                _run_analytic2d(cfg, out, manifest)
            case "simulate2d":
                _run_simulate2d(cfg, out, manifest, override_stability)
            case "simulate3d" | "trajectories":
                _run_simulate3d(cfg, out, manifest, override_stability)
            case "compare":
                _run_compare(cfg, out, manifest, override_stability)
            case "converge":
                _run_converge(cfg, out, manifest)
            case _:  # pragma: no cover - parse_config already rejects unknown modes
                raise ConfigurationError(f"unknown mode {cfg.mode!r}")
    except AdrLabError as exc:
        manifest.finalize("failed", error=str(exc), **exc.manifest_fields())
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        # an unexpected fault still leaves a finalized manifest behind
        manifest.finalize("failed", error=f"{type(exc).__name__}: {exc}")
        raise
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="adr-lab",
        description="Advection-diffusion-reaction numerical laboratory",
    )
    parser.add_argument("target", help="mode name or path to a YAML config")
    parser.add_argument("--config", help="config path (when target is a mode name)")
    parser.add_argument("--out-dir", default="adr-lab-out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker hint; never changes output bytes")
    parser.add_argument("--override-stability", action="store_true",
                        help="run even when the stability gate fails")
    args = parser.parse_args(argv)

    try:
        if Path(args.target).is_file():
            cfg = parse_config(args.target)
        elif args.target in MODES:
            if not args.config:
                parser.error(f"mode {args.target!r} requires --config")
            cfg = parse_config(args.config, mode=args.target)
        else:
            raise ConfigurationError(
                f"{args.target!r} is neither a config file nor one of {MODES}"
            )
    except AdrLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return execute(cfg, args.out_dir, threads=args.threads,
                   override_stability=args.override_stability)


if __name__ == "__main__":
    sys.exit(main())
