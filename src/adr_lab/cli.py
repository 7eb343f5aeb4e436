"""Configuration-driven command line front end.

Usage:
    adr-lab <mode-or-config> [--config PATH] [--out-dir DIR] [--threads N]
            [--override-stability]

The positional argument is either a path to a YAML config file or a mode
name (analytic2d | simulate2d | simulate3d | compare | converge |
trajectories) combined with --config.  Every run writes a manifest.json
(written when the run starts and again at exit, present even for failed
runs) plus mode-specific CSV artifacts.  All outputs are written
atomically (temp file + rename) and are bit-reproducible: --threads N steps
the x-plane blocks of each 3-D step on up to N threads of a pool, and the
outputs are bit-identical for every N.

Exit codes: 0 success, 1 validation error, 2 numeric divergence,
3 stability rejection.
"""

from __future__ import annotations

import argparse
import copy
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

from . import __version__, _native
from .analytic2d import build_series, coefficient_rows, sample_series
from .chemistry import (
    ConstantRate,
    PhotolysisK1,
    PointSource,
    ReactionNetwork,
)
from .diagnostics import convergence_order, max_error_vs_analytic, positivity_check
from .diagnostics import l2_norm  # noqa: F401 (patched by perfbench/tracing.py)
from .errors import AdrLabError, ConfigurationError
from .grid import Field, Grid, TransportParams, sample_initial_2d
from .grid import zero_dirichlet  # noqa: F401 (patched by perfbench/tracing.py)
from .snapshots import step_count
from .solver2d import run2d
from .solver3d import DEFAULT_ALPHA, run3d, step_threads

CM3_PER_M3 = 1.0e6
# PyYAML's safe loader, in its compiled form when PyYAML was built with it
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


# ---------------------------------------------------------------------------
# config parsing


def _check(value, typ, where: str):
    """value as a typ (an int is taken for a float); list[T] checks each entry.

    A float must be finite and >= 0, as the paper's results assume of all data.
    """
    base = getattr(typ, "__origin__", typ)
    if base is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not isinstance(value, base) or isinstance(value, bool) and base is not bool:
        raise ConfigurationError(
            f"{where}: expected {base.__name__}, got {type(value).__name__}"
        )
    if base is float and not 0.0 <= value < math.inf:
        raise ConfigurationError(f"{where}: must be finite and >= 0, got {value}")
    if base is not typ:
        (item,) = typ.__args__
        return [_check(v, item, f"{where}[{i}]") for i, v in enumerate(value)]
    return value


_REQUIRED = object()


def _get(block: dict, key: str, path: str, typ, default=_REQUIRED, positive: bool = False):
    """block[key] checked against typ; required unless a default is given.

    A key set to null counts as absent.  A value that holds no mappings is
    removed from block once read, so what parse_config leaves behind is
    what the mode did not read.
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
    if typ not in (dict, list[dict]):
        del block[key]
    return value


def _unread(node, path: str) -> list[str]:
    """Key paths of the non-null values left in node; path ends with a dot."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _unread(v, f"{path}{k}.")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _unread(v, f"{path[:-1]}[{i}].")]
    return [] if node is None else [path[:-1]]


@dataclass
class RunConfig:
    """Validated run definition; all numeric blocks resolved to model units.

    Fields of blocks the mode does not read are None.  initial is the field
    at t = 0, which runs copy and never write.
    """

    mode: str
    raw: dict
    unit_factor: float
    grid: Grid
    transport: TransportParams
    network: ReactionNetwork | None
    species: list[str]
    dt: float
    t_end: float
    snapshot_times: list
    initial: Field
    series_m: int | None = None
    series_n: int | None = None
    slice_axis: str | None = None
    slice_index: int | None = None
    trajectory_stride: int | None = None
    trajectory_cells: list | None = None
    alpha: float | None = None
    converge_nx: list | None = None


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
            for name in list(counts):
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
            try:
                scale = factor ** (1 - order)
            except OverflowError:  # a float power raises where it would be infinite
                raise ConfigurationError(
                    f"units.cell_volume_m3: a cell of {factor} cm3 scales "
                    f"{path}rate.value beyond the float range"
                ) from None
            rates.append(ConstantRate(_check(value * scale, float,
                                             path + "rate.value in model units")))
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
        rate = _check(_get(src, "rate", path, float) * factor, float,
                      path + "rate in model units")
        sources.append(PointSource(species=index[name], cell=cell, rate=rate))
    return ReactionNetwork(
        species=tuple(species), loss=loss, gain=gain,
        rates=tuple(rates), sources=tuple(sources),
    )


def parse_config(path: str | Path, mode: str | None = None) -> RunConfig:
    """Load and validate a YAML run configuration for the mode that will run.

    mode defaults to the file's own `mode` key; a mode given here replaces
    it, and the grid, transport and every other block are read for it.  A
    key the mode does not read is an error.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER) or {}
    except yaml.YAMLError as exc:
        raise ConfigurationError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config {path} must be a mapping")
    cfg = copy.deepcopy(raw)
    if mode is None:
        mode = _get(cfg, "mode", "", str)
    cfg.pop("mode", None)
    if mode not in MODES:
        raise ConfigurationError(f"mode: expected one of {MODES}, got {mode!r}")
    series_mode = mode in ("analytic2d", "compare", "converge")

    units = _get(cfg, "units", "", dict, default={})
    input_unit = _get(units, "input", "units.", str, default="model")
    if input_unit == "per_cm3":
        unit_factor = _check(_get(units, "cell_volume_m3", "units.", float, positive=True)
                             * CM3_PER_M3, float, "units.cell_volume_m3 in cm3")
    elif input_unit == "model":
        unit_factor = 1.0
    else:
        raise ConfigurationError(
            f"units.input: expected 'per_cm3' or 'model', got {input_unit!r}"
        )

    grid = _parse_grid(cfg, mode)
    transport = _parse_transport(cfg, grid.ndim)
    network = _parse_chemistry(cfg, unit_factor, grid) if grid.ndim == 3 else None
    species = list(network.species) if network is not None else ["c1"]

    timed = mode != "analytic2d"
    tblock = _get(cfg, "time", "", dict, _REQUIRED if timed else {})
    dt = _get(tblock, "dt", "time.", float, _REQUIRED if timed else 0.0, positive=True)
    t_end = _get(tblock, "t_end", "time.", float, default=0.0)
    snapshot_times = _get(tblock, "snapshots", "time.", list[float], default=[]) or [t_end]

    # The first kind is the default.
    if series_mode:
        kinds = ("sine_product",)
    elif grid.ndim == 2:
        kinds = ("zero", "point", "sine_product")
    else:
        kinds = ("zero", "point")
    fields = {}
    iblock = _get(cfg, "initial", "", dict, default={})
    initial_kind = _get(iblock, "kind", "initial.", str, default=kinds[0])
    if initial_kind not in kinds:
        raise ConfigurationError(
            f"initial.kind: mode {mode} takes one of {kinds}, got {initial_kind!r}"
        )
    initial = (sample_initial_2d(grid, _sine_product(grid)) if initial_kind == "sine_product"
               else Field.zeros(grid, len(species)))
    if initial_kind == "point":
        cell = grid.interior_cell(_get(iblock, "cell", "initial.", list), "initial.cell")
        values = [_check(v * unit_factor, float, f"initial.values[{i}] in model units")
                  for i, v in enumerate(_get(iblock, "values", "initial.", list[float]))]
        if len(values) != len(species):
            raise ConfigurationError(
                f"initial.values: expected {len(species)} entries, got {len(values)}"
            )
        initial.values[(slice(None), *cell)] = values  # an interior cell: the boundary stays zero

    if grid.ndim == 2:
        sblock = _get(cfg, "series", "", dict, default={})
        fields.update(
            series_m=_get(sblock, "M", "series.", int, default=40, positive=True),
            series_n=_get(sblock, "N", "series.", int, default=40, positive=True),
        )
    else:
        # Listed cells are tracked as given (run3d validates them); without
        # them a cell_spacing lattice of interior cells is tracked, by default
        # in trajectories mode only.
        slc = _get(cfg, "slice", "", dict, default={})
        traj = _get(cfg, "trajectories", "", dict, default={})
        spacing = _get(traj, "cell_spacing", "trajectories.", int,
                       default=10 if mode == "trajectories" else None, positive=True)
        cells = _get(traj, "cells", "trajectories.", list, default=[])
        if not cells and spacing is not None:
            lattice = (range(1, n - 1, spacing) for n in grid.shape)
            cells = list(itertools.product(*lattice))
        fields.update(
            slice_axis=_get(slc, "axis", "slice.", str, default="z"),
            slice_index=_get(slc, "index", "slice.", int, default=1),
            trajectory_stride=_get(traj, "stride", "trajectories.", int, default=10,
                                   positive=True),
            trajectory_cells=cells,
            alpha=_get(cfg, "alpha", "", float, default=DEFAULT_ALPHA),
        )

    # The analytic series is derived on the unit square for one shared u and k.
    if series_mode:
        for axis, length in zip("xy", grid.lengths):
            if not math.isclose(length, 1.0):
                raise ConfigurationError(
                    f"grid.L{axis}: the analytic series needs the unit square, "
                    f"got {length}"
                )
        for key, values in (("u", transport.u), ("k", transport.k)):
            if not math.isclose(*values):
                raise ConfigurationError(
                    f"transport.{key}: the analytic series needs equal entries, "
                    f"got {list(values)}"
                )
    if mode == "converge":
        conv = _get(cfg, "converge", "", dict, default={})
        levels = _get(conv, "nx_levels", "converge.", list[int])
        if (len(levels) < 3 or levels[0] < 3
                or any(a >= b for a, b in zip(levels, levels[1:]))):
            raise ConfigurationError(
                f"converge.nx_levels: need at least 3 strictly increasing levels "
                f"of at least 3 nodes, got {levels}"
            )
        fields["converge_nx"] = levels

    unread = _unread(cfg, "")
    if unread:
        raise ConfigurationError(f"keys not read by mode {mode}: {', '.join(unread)}")
    return RunConfig(
        mode=mode, raw=raw, unit_factor=unit_factor, grid=grid, transport=transport,
        network=network, species=species, dt=dt, t_end=t_end,
        snapshot_times=snapshot_times, initial=initial, **fields,
    )


def bundled_config_path(name: str) -> Path:
    """Path to a config shipped with the package (e.g. 'benchmark-2d.yaml')."""
    return Path(resources.files("adr_lab") / "configs" / name)


# ---------------------------------------------------------------------------
# output helpers


def _write_atomic(path: Path, chunks) -> None:
    """Write the byte chunks, one after another, to a temp file that then replaces path.

    A failure while writing removes the temp file before the error goes on.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            f.writelines(chunks)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


CSV_CHUNK_BYTES = 1 << 19  # bound of the values' bytes formatted per call


def write_csv(path: Path, header: list[str], tables, integer=()) -> None:
    """Write the header line, then one line per row of each table in tables.

    A table is a 2-D float64 array.  A value is written as its repr, the
    shortest decimal that reads back as it, or as str(int(v)) in a column
    whose index is in integer (see _native.format_lines).  The compiled
    formatter writes each table in chunks of at most CSV_CHUNK_BYTES of
    values; the first chunk builds or loads the compiled library, which
    raises ConfigurationError when it cannot be built.  The lines are
    streamed to the temp file in chunks; no whole-file text is built, and a
    failure removes the temp file and leaves path as it was.
    """
    def chunks():
        yield (",".join(header) + "\n").encode()
        for table in tables:
            step = max(1, CSV_CHUNK_BYTES // (_native.VALUE_BYTES * table.shape[1] + 1))
            for lo in range(0, len(table), step):
                yield _native.format_lines(table[lo:lo + step], integer)

    _write_atomic(path, chunks())


def write_slice(path: Path, plane: np.ndarray, species: list[str],
                labels=("i", "j"), coords=None) -> None:
    """Write a (species, a, b) plane as one CSV row per node.

    A row holds the node's two coordinates, its indices as integers unless
    coords gives the float64 axis values, then each species.  The first
    slice of a process may build the compiled formatter's library.
    """
    axes = [np.arange(n) for n in plane.shape[1:]] if coords is None else coords
    nodes = [g.ravel() for g in np.meshgrid(*axes, indexing="ij")]
    table = np.column_stack([*nodes, plane.reshape(plane.shape[0], -1).T])
    write_csv(path, [*labels, *species], [table], (0, 1) if coords is None else ())


# ---------------------------------------------------------------------------
# mode runners


def _sine_product(grid: Grid):
    """The profile sin(pi x / Lx) sin(pi y / Ly) of the series modes."""
    Lx, Ly = grid.lengths
    return lambda x, y: np.sin(np.pi * x / Lx) * np.sin(np.pi * y / Ly)


def _simulate(cfg: RunConfig, override: bool, threads: int):
    """Run the scheme of the grid's dimension from the configured initial field.

    threads steps the x-plane blocks of each 3-D step in parallel.  Returns
    the SnapshotSeries and the manifest keys every simulating run reports.
    """
    if cfg.grid.ndim == 2:
        series = run2d(cfg.initial, cfg.transport, cfg.dt, cfg.t_end,
                       cfg.snapshot_times, override_stability=override)
    else:
        series = run3d(
            cfg.initial, cfg.transport, cfg.network, cfg.dt, cfg.t_end,
            cfg.snapshot_times, slice_axis=cfg.slice_axis,
            slice_index=cfg.slice_index, trajectory_cells=cfg.trajectory_cells,
            trajectory_stride=cfg.trajectory_stride, override_stability=override,
            alpha=cfg.alpha, threads=threads,
        )
    return series, {"stability": series.stability.as_dict(),
                    "snapshot_steps": series.steps, "snapshot_times": series.times}


def _series(cfg: RunConfig):
    """The analytic series of the config's problem (checked at parse time)."""
    return build_series(_sine_product(cfg.grid), cfg.transport.u[0], cfg.transport.k[0],
                        M=cfg.series_m, N=cfg.series_n)


def _run_analytic2d(cfg: RunConfig, out: Path, override: bool, threads: int) -> dict:
    sol = _series(cfg)
    write_csv(out / "coefficients.csv", ["m", "n", "A_mn"], [coefficient_rows(sol)], (0, 1))
    for t in cfg.snapshot_times:
        field = sample_series(sol, cfg.grid, t)
        write_slice(out / f"series_t{t!r}.csv", field.values, cfg.species,
                    ("x", "y"), cfg.grid.coords())
    return {"series": {"M": sol.M, "N": sol.N}}


def _run_simulate2d(cfg: RunConfig, out: Path, override: bool, threads: int) -> dict:
    series, keys = _simulate(cfg, override, threads)
    for step, field in zip(series.steps, series.fields):
        write_slice(out / f"snap_t{step}.csv", field.values, cfg.species,
                    ("x", "y"), cfg.grid.coords())
    ok, violation = positivity_check(series)
    return dict(
        keys,
        positivity={"ok": ok, "violation": violation},
        max_abs=[float(np.maximum(abs(hi), abs(lo)).max())
                 for hi, lo in zip(series.maxima, series.minima)],
    )


def _run_simulate3d(cfg: RunConfig, out: Path, override: bool, threads: int) -> dict:
    t0 = time.perf_counter()
    series, keys = _simulate(cfg, override, threads)
    wall = time.perf_counter() - t0
    for step, plane in zip(series.steps, series.slices):
        write_slice(out / f"slice_t{step}.csv", plane, cfg.species)
    log = series.trajectories
    if log.cells:
        cells = np.array(log.cells, dtype=float)
        blocks = (np.column_stack([np.full(len(cells), t), cells, values])
                  for t, values in zip(log.times, log.data))
        write_csv(out / "trajectories.csv", ["t", "i", "j", "k", *cfg.species], blocks,
                  (1, 2, 3))
    updates = cfg.grid.num_cells * len(cfg.species) * step_count(cfg.t_end, cfg.dt)
    ok, violation = positivity_check(series)
    return dict(
        keys,
        wall_seconds=wall,
        cell_updates_per_second=updates / wall if wall > 0 else None,
        chemistry_rate_scale=series.chemistry_rate_scale,
        positivity={"ok": ok, "violation": violation},
        max_per_species={
            name: [float(m[s]) for m in series.maxima] for s, name in enumerate(cfg.species)
        },
        slice_max_per_species={
            name: [float(p[s].max()) for p in series.slices]
            for s, name in enumerate(cfg.species)
        },
        l2_norms=series.l2_norms,
    )


def _run_compare(cfg: RunConfig, out: Path, override: bool, threads: int) -> dict:
    sol = _series(cfg)
    series, keys = _simulate(cfg, override, threads)
    reports = [
        max_error_vs_analytic(field, sol, t)
        for t, field in zip(series.times, series.fields)
    ]
    write_csv(out / "error_report.csv",
              ["t", "max_abs_error", "l2_error"],
              [np.array([(r.t, r.max_abs_error, r.l2_error) for r in reports])])
    return dict(keys, max_errors=[r.max_abs_error for r in reports])


def _run_converge(cfg: RunConfig, out: Path, override: bool, threads: int) -> dict:
    sol = _series(cfg)
    base_dx = cfg.grid.spacing[0]
    levels = []
    for nx in cfg.converge_nx:
        grid = Grid((nx, nx), cfg.grid.lengths)
        dt = cfg.dt * (grid.spacing[0] / base_dx) ** 2
        levels.append((grid, dt))
    order, reports = convergence_order(levels, sol, cfg.snapshot_times[-1],
                                       _sine_product(cfg.grid))
    write_csv(out / "convergence.csv",
              ["nx", "dx", "dt", "max_abs_error"],
              [np.array([(g.shape[0], g.spacing[0], dt, r.max_abs_error)
                         for (g, dt), r in zip(levels, reports)])], (0,))
    print(f"measured spatial order: {order:.4f}")
    return {"measured_order": order}


# Each mode's runner, in the order the CLI lists the modes.
_RUNNERS = {
    "analytic2d": _run_analytic2d,
    "simulate2d": _run_simulate2d,
    "simulate3d": _run_simulate3d,
    "compare": _run_compare,
    "converge": _run_converge,
    "trajectories": _run_simulate3d,
}
MODES = tuple(_RUNNERS)


def execute(cfg: RunConfig, out_dir: str | Path, threads: int = 1,
            override_stability: bool = False) -> int:
    """Dispatch a validated config; returns the process exit code.

    The one writer of manifest.json: it is written (atomically) when the run
    starts, with status "running", and again at exit with the keys the mode
    runner returns or the error.  threads below 1 exits 1 before it is written.
    """
    if not isinstance(threads, int) or threads < 1:
        print(f"error: --threads: must be an integer >= 1, got {threads!r}",
              file=sys.stderr)
        return 1
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool": "adr-lab",
        "version": __version__,
        "config": cfg.raw,
        "mode": cfg.mode,
        # the threads a step runs on: a 2-D step runs on one
        "threads": step_threads(cfg.grid.shape[0], threads) if cfg.grid.ndim == 3 else 1,
        "unit_factor": cfg.unit_factor,
        "status": "running",
    }

    def write_manifest():
        text = json.dumps(manifest, indent=2, default=str) + "\n"
        _write_atomic(out / "manifest.json", [text.encode()])

    write_manifest()
    try:
        manifest.update(_RUNNERS[cfg.mode](cfg, out, override_stability, threads), status="ok")
    except AdrLabError as exc:
        manifest.update(status="failed", error=str(exc), **exc.manifest_fields())
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        # an unexpected fault still leaves a finalized manifest behind
        manifest.update(status="failed", error=f"{type(exc).__name__}: {exc}")
        raise
    finally:
        write_manifest()
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
                        help="threads for each 3-D step, at most one per CPU "
                             "(default 1); outputs are bit-identical for every value")
    parser.add_argument("--override-stability", action="store_true",
                        help="run even when the stability gate fails")
    args = parser.parse_args(argv)

    try:
        if Path(args.target).is_file():
            cfg = parse_config(args.target)
        elif args.target in MODES:
            if not args.config:
                raise ConfigurationError(f"mode {args.target!r} requires --config")
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
