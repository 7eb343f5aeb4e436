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
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
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


def _get(block: dict, key: str, path: str, typ=None, required: bool = True, default=None):
    if not isinstance(block, dict):
        raise ConfigurationError(f"{path or 'config'}: expected a mapping")
    if key not in block:
        if required:
            raise ConfigurationError(f"missing required key: {path}{key}")
        return default
    value = block[key]
    if typ is not None:
        if typ is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, typ) or isinstance(value, bool) and typ is not bool:
            raise ConfigurationError(
                f"{path}{key}: expected {getattr(typ, '__name__', typ)}, "
                f"got {type(value).__name__}"
            )
    return value


@dataclass
class RunConfig:
    """Validated run definition; all numeric blocks resolved to model units."""

    mode: str
    raw: dict
    grid: Grid | None = None
    transport: TransportParams | None = None
    network: ReactionNetwork | None = None
    dt: float = 0.0
    t_end: float = 0.0
    snapshot_times: list = dc_field(default_factory=list)
    series_m: int = 40
    series_n: int = 40
    quad_points: int | None = None
    initial_kind: str = "zero"
    initial_cell: tuple | None = None
    initial_values: list = dc_field(default_factory=list)
    slice_axis: str = "z"
    slice_index: int = 1
    trajectory_stride: int = 10
    trajectory_spacing: int | None = None
    trajectory_cells: list | None = None
    alpha: float = DEFAULT_ALPHA
    converge_nx: list = dc_field(default_factory=list)
    unit_factor: float = 1.0


def _parse_grid(cfg: dict, mode: str) -> Grid:
    block = _get(cfg, "grid", "", dict)
    axes = "xyz" if mode in ("simulate3d", "trajectories") else "xy"
    return Grid(tuple(_get(block, f"n{a}", "grid.", int) for a in axes),
                tuple(_get(block, f"L{a}", "grid.", float) for a in axes))


def _parse_transport(cfg: dict, ndim: int) -> TransportParams:
    block = _get(cfg, "transport", "", dict)
    u = _get(block, "u", "transport.", list)
    k = _get(block, "k", "transport.", list)
    if len(u) != ndim or len(k) != ndim:
        raise ConfigurationError(
            f"transport.u and transport.k must have {ndim} entries"
        )
    return TransportParams(u=tuple(u), k=tuple(k))


def _parse_chemistry(cfg: dict, factor: float, grid: Grid) -> ReactionNetwork | None:
    block = cfg.get("chemistry")
    if block is None:
        return None
    species = _get(block, "species", "chemistry.", list)
    s = len(species)
    index = {name: j for j, name in enumerate(species)}
    reactions = _get(block, "reactions", "chemistry.", list)
    r = len(reactions)
    loss = np.zeros((s, r), dtype=int)
    gain = np.zeros((s, r), dtype=int)
    rates = []
    for kappa, rx in enumerate(reactions):
        path = f"chemistry.reactions[{kappa}]."
        for name, count in _get(rx, "loss", path, dict, required=False, default={}).items():
            if name not in index:
                raise ConfigurationError(f"{path}loss: unknown species {name!r}")
            loss[index[name], kappa] = count
        for name, count in _get(rx, "gain", path, dict, required=False, default={}).items():
            if name not in index:
                raise ConfigurationError(f"{path}gain: unknown species {name!r}")
            gain[index[name], kappa] = count
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
    for i, src in enumerate(_get(block, "sources", "chemistry.", list,
                                 required=False, default=[])):
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


def parse_config(path: str | Path) -> RunConfig:
    """Load and validate a YAML run configuration."""
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text()) or {}
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a mapping")
    mode = _get(raw, "mode", "", str)
    if mode not in MODES:
        raise ConfigurationError(f"mode: expected one of {MODES}, got {mode!r}")
    cfg = RunConfig(mode=mode, raw=raw)

    units = raw.get("units", {})
    if units:
        input_unit = _get(units, "input", "units.", str, required=False, default="model")
        if input_unit == "per_cm3":
            vol_m3 = _get(units, "cell_volume_m3", "units.", float)
            cfg.unit_factor = vol_m3 * CM3_PER_M3
        elif input_unit != "model":
            raise ConfigurationError(
                f"units.input: expected 'per_cm3' or 'model', got {input_unit!r}"
            )

    cfg.grid = _parse_grid(raw, mode)
    cfg.transport = _parse_transport(raw, cfg.grid.ndim)
    cfg.network = _parse_chemistry(raw, cfg.unit_factor, cfg.grid)

    tblock = _get(raw, "time", "", dict, required=mode != "analytic2d", default={})
    if tblock:
        cfg.dt = _get(tblock, "dt", "time.", float, required=mode != "analytic2d",
                      default=0.0)
        cfg.t_end = _get(tblock, "t_end", "time.", float, required=False, default=0.0)
        cfg.snapshot_times = _get(tblock, "snapshots", "time.", list,
                                  required=False, default=[])
    if mode != "analytic2d" and not (cfg.dt > 0):
        raise ConfigurationError(f"time.dt: must be positive, got {cfg.dt}")
    if not cfg.snapshot_times and mode != "converge":
        cfg.snapshot_times = [cfg.t_end]

    sblock = raw.get("series", {})
    if sblock:
        cfg.series_m = _get(sblock, "M", "series.", int, required=False, default=40)
        cfg.series_n = _get(sblock, "N", "series.", int, required=False, default=40)
        cfg.quad_points = _get(sblock, "quad_points", "series.", int,
                               required=False, default=None)

    iblock = raw.get("initial", {})
    if iblock:
        cfg.initial_kind = _get(iblock, "kind", "initial.", str)
        if cfg.initial_kind == "point":
            cfg.initial_cell = cfg.grid.interior_cell(
                _get(iblock, "cell", "initial.", list), "initial.cell")
            cfg.initial_values = [
                v * cfg.unit_factor
                for v in _get(iblock, "values", "initial.", list)
            ]
        elif cfg.initial_kind not in ("sine_product", "zero"):
            raise ConfigurationError(
                f"initial.kind: expected sine_product, point or zero; "
                f"got {cfg.initial_kind!r}"
            )

    slc = raw.get("slice", {})
    if slc:
        cfg.slice_axis = _get(slc, "axis", "slice.", str, required=False, default="z")
        cfg.slice_index = _get(slc, "index", "slice.", int, required=False, default=1)

    traj = raw.get("trajectories", {})
    if traj:
        cfg.trajectory_stride = _get(traj, "stride", "trajectories.", int,
                                     required=False, default=10)
        cfg.trajectory_spacing = _get(traj, "cell_spacing", "trajectories.", int,
                                      required=False, default=None)
        cells = _get(traj, "cells", "trajectories.", list, required=False, default=None)
        cfg.trajectory_cells = cells or None

    cfg.alpha = _get(raw, "alpha", "", float, required=False, default=DEFAULT_ALPHA)
    conv = raw.get("converge", {})
    if mode == "converge":
        cfg.converge_nx = _get(conv, "nx_levels", "converge.", list)
        if len(cfg.converge_nx) < 3:
            raise ConfigurationError("converge.nx_levels: need at least 3 levels")
    return cfg


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


def _field_rows_2d(field: Field, x, y):
    vals = field.values
    for i in range(vals.shape[1]):
        for j in range(vals.shape[2]):
            yield (float(x[i]), float(y[j]), *(float(vals[s, i, j])
                                               for s in range(vals.shape[0])))


def write_field_2d(path: Path, field: Field, species: list[str]) -> None:
    x, y = field.grid.coords()
    write_csv(path, ["x", "y", *species], _field_rows_2d(field, x, y))


def write_slice(path: Path, plane: np.ndarray, species: list[str]) -> None:
    rows = (
        (int(a), int(b), *(float(plane[s, a, b]) for s in range(plane.shape[0])))
        for a in range(plane.shape[1]) for b in range(plane.shape[2])
    )
    write_csv(path, ["i", "j", *species], rows)


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
    n_species = cfg.network.species_count if cfg.network is not None else 1
    field = Field.zeros(grid, n_species)
    if cfg.initial_kind == "point":
        cell = cfg.initial_cell
        if len(cfg.initial_values) != n_species:
            raise ConfigurationError(
                f"initial.values: expected {n_species} entries, "
                f"got {len(cfg.initial_values)}"
            )
        for s, v in enumerate(cfg.initial_values):
            field.values[(s,) + cell] = v
        zero_dirichlet(field)
    return field


def _build_series_from_cfg(cfg: RunConfig):
    u, k = cfg.transport.u[0], cfg.transport.k[0]
    if any(not math.isclose(v, u) for v in cfg.transport.u) or \
       any(not math.isclose(v, k) for v in cfg.transport.k):
        raise ConfigurationError(
            "the analytic series requires one shared u and one shared k"
        )
    return build_series(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        u, k, M=cfg.series_m, N=cfg.series_n, quad_points=cfg.quad_points,
    )


def _run_analytic2d(cfg: RunConfig, out: Path, manifest: Manifest) -> None:
    sol = _build_series_from_cfg(cfg)
    write_csv(out / "coefficients.csv", ["m", "n", "A_mn"], coefficient_rows(sol))
    for t in cfg.snapshot_times:
        field = sample_series(sol, cfg.grid, t)
        write_field_2d(out / f"series_t{_fmt(float(t))}.csv", field, ["c1"])
    manifest.finalize("ok", series={"M": sol.M, "N": sol.N})


def _run_simulate2d(cfg: RunConfig, out: Path, manifest: Manifest,
                    override: bool) -> None:
    initial = _initial_field(cfg)
    series = run2d(initial, cfg.transport, cfg.grid, cfg.dt, cfg.t_end,
                   cfg.snapshot_times, override_stability=override)
    manifest.data["stability"] = series.stability.as_dict()
    manifest.flush()
    for step, field in zip(series.steps, series.fields):
        write_field_2d(out / f"snap_t{step}.csv", field, _species_names(cfg))
    ok, violation = positivity_check(series)
    manifest.finalize(
        "ok",
        snapshot_steps=series.steps,
        snapshot_times=series.times,
        positivity={"ok": ok, "violation": violation},
        max_abs=[float(np.abs(f.values).max()) for f in series.fields],
    )


def _run_simulate3d(cfg: RunConfig, out: Path, manifest: Manifest,
                    override: bool, with_trajectories: bool) -> None:
    initial = _initial_field(cfg)
    cells = cfg.trajectory_cells
    if cells is None and (with_trajectories or cfg.trajectory_spacing):
        spacing = cfg.trajectory_spacing or 10
        nx, ny, nz = cfg.grid.shape
        cells = [
            (i, j, k)
            for i in range(1, nx - 1, spacing)
            for j in range(1, ny - 1, spacing)
            for k in range(1, nz - 1, spacing)
        ]
    t0 = time.perf_counter()
    series, log = run3d(
        initial, cfg.transport, cfg.grid, cfg.network, cfg.dt, cfg.t_end,
        cfg.snapshot_times, slice_axis=cfg.slice_axis, slice_index=cfg.slice_index,
        trajectory_cells=cells, trajectory_stride=cfg.trajectory_stride,
        override_stability=override, alpha=cfg.alpha,
    )
    wall = time.perf_counter() - t0
    names = _species_names(cfg)
    manifest.data["stability"] = series.stability.as_dict()
    manifest.flush()
    for step, plane in zip(series.steps, series.slices):
        write_slice(out / f"slice_t{step}.csv", plane, names)
    if cells:
        write_csv(out / "trajectories.csv",
                  ["t", "i", "j", "k", *names], log.rows())
    n_steps = step_count(cfg.t_end, cfg.dt)
    updates = cfg.grid.num_cells * initial.species_count * max(n_steps, 1)
    ok, violation = positivity_check(series)
    manifest.finalize(
        "ok",
        snapshot_steps=series.steps,
        snapshot_times=series.times,
        wall_seconds=wall,
        cell_updates_per_second=updates / wall if wall > 0 else None,
        chemistry_rate_scale=getattr(series, "chemistry_rate_scale", 0.0),
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
    initial = _initial_field(cfg)
    series = run2d(initial, cfg.transport, cfg.grid, cfg.dt, cfg.t_end,
                   cfg.snapshot_times, override_stability=override)
    manifest.data["stability"] = series.stability.as_dict()
    manifest.flush()
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
    t = cfg.snapshot_times[-1] if cfg.snapshot_times else cfg.t_end
    order, reports = convergence_order(
        levels, sol, t,
        initial_profile=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
    )
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
        if cfg.mode == "analytic2d":
            _run_analytic2d(cfg, out, manifest)
        elif cfg.mode == "simulate2d":
            _run_simulate2d(cfg, out, manifest, override_stability)
        elif cfg.mode in ("simulate3d", "trajectories"):
            _run_simulate3d(cfg, out, manifest, override_stability,
                            with_trajectories=cfg.mode == "trajectories")
        elif cfg.mode == "compare":
            _run_compare(cfg, out, manifest, override_stability)
        elif cfg.mode == "converge":
            _run_converge(cfg, out, manifest)
        else:  # pragma: no cover - parse_config already rejects unknown modes
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
            cfg = parse_config(args.config)
            cfg.mode = args.target
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
