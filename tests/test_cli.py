import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from adr_lab import ConfigurationError, Field, stability2d, stability3d, zero_dirichlet
from adr_lab import cli, solver3d
from adr_lab.cli import bundled_config_path, execute, main, parse_config
from oracles import csv_field, trajectory_rows

COMPARE_SMALL = {
    "mode": "compare",
    "grid": {"nx": 16, "ny": 16, "Lx": 1.0, "Ly": 1.0},
    "transport": {"u": [5.0, 5.0], "k": [0.5, 0.5]},
    "time": {"dt": 4e-4, "t_end": 0.02, "snapshots": [0.02]},
    "initial": {"kind": "sine_product"},
    "series": {"M": 12, "N": 12},
}

SIM3D_SMALL = {
    "mode": "simulate3d",
    "grid": {"nx": 9, "ny": 9, "nz": 9,
             "Lx": 1000.0, "Ly": 1000.0, "Lz": 1000.0},
    "transport": {"u": [1.0, 1.0, 1.0], "k": [2e-5, 2e-5, 2e-5]},
    "time": {"dt": 1.0, "t_end": 10.0, "snapshots": [0.0, 10.0]},
    "units": {"input": "per_cm3", "cell_volume_m3": 10.0},
    "chemistry": {
        "species": ["NO", "NO2", "O3"],
        "reactions": [
            {"loss": {"NO2": 1}, "gain": {"NO": 1, "O3": 1},
             "rate": {"kind": "photolysis_k1"}},
            {"loss": {"NO": 1, "O3": 1}, "gain": {"NO2": 1},
             "rate": {"kind": "constant", "value": 1e-16}},
        ],
        "sources": [{"species": "NO", "cell": [1, 1, 1], "rate": 1e6}],
    },
    "initial": {"kind": "point", "cell": [1, 1, 1],
                "values": [1.3e8, 5e11, 8e11]},
    "slice": {"axis": "z", "index": 1},
    "trajectories": {"stride": 2, "cells": [[1, 1, 1], [4, 4, 4]]},
}


def _traj_default_lattice():
    # 13 nodes per axis give the default spacing-10 lattice two points per axis
    cfg = json.loads(json.dumps(SIM3D_SMALL))
    cfg["mode"] = "trajectories"
    cfg["grid"].update(nx=13, ny=13, nz=13)
    del cfg["trajectories"]
    return cfg


# Small runs whose CSV bytes and manifest keys are pinned in
# tests/data/small_digests.json (recorded before the CLI set-up was merged).
SMALL_RUNS = {
    "compare": COMPARE_SMALL,
    "simulate2d": dict(COMPARE_SMALL, mode="simulate2d"),
    "analytic2d": dict(COMPARE_SMALL, mode="analytic2d"),
    "converge": dict(COMPARE_SMALL, mode="converge",
                     converge={"nx_levels": [12, 16, 24]}),
    "simulate3d-cell-spacing": dict(SIM3D_SMALL,
                                    trajectories={"stride": 3, "cell_spacing": 3}),
    "trajectories-default-lattice": _traj_default_lattice(),
}

SMALL_DIGESTS = Path(__file__).parent / "data" / "small_digests.json"
NAN, INF = float("nan"), float("inf")


def write_cfg(tmp_path, payload, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def hash_outputs(out_dir: Path) -> dict:
    # the manifest carries wall-clock timing and is excluded on purpose
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.suffix == ".csv"
    }


def test_missing_key_reports_path(tmp_path):
    bad = dict(COMPARE_SMALL)
    bad.pop("transport")
    with pytest.raises(ConfigurationError, match="transport"):
        parse_config(write_cfg(tmp_path, bad))
    bad = dict(COMPARE_SMALL, grid={"nx": 16, "Lx": 1.0, "Ly": 1.0})
    with pytest.raises(ConfigurationError, match="grid.ny"):
        parse_config(write_cfg(tmp_path, bad))


def test_type_errors_report_path(tmp_path):
    bad = dict(COMPARE_SMALL, time={"dt": "fast", "t_end": 0.02})
    with pytest.raises(ConfigurationError, match="time.dt"):
        parse_config(write_cfg(tmp_path, bad))


def test_unknown_mode_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="mode"):
        parse_config(write_cfg(tmp_path, dict(COMPARE_SMALL, mode="simulate4d")))


def test_unknown_species_and_rate_kind(tmp_path):
    bad = json.loads(json.dumps(SIM3D_SMALL))
    bad["chemistry"]["reactions"][0]["loss"] = {"XYZ": 1}
    with pytest.raises(ConfigurationError, match="XYZ"):
        parse_config(write_cfg(tmp_path, bad))
    bad = json.loads(json.dumps(SIM3D_SMALL))
    bad["chemistry"]["reactions"][1]["rate"]["kind"] = "arrhenius"
    with pytest.raises(ConfigurationError, match="arrhenius"):
        parse_config(write_cfg(tmp_path, bad))


def test_missing_config_file():
    with pytest.raises(ConfigurationError, match="not found"):
        parse_config("/nonexistent/run.yaml")


def test_unit_conversion_per_cm3(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SIM3D_SMALL))
    assert cfg.unit_factor == 1e7  # 10 m^3 of air in cm^3
    # bimolecular rate constant shrinks by the same factor
    assert cfg.network.rates[1].value == pytest.approx(1e-23, rel=1e-15)
    # photolysis (first order) is unchanged by the unit convention
    assert cfg.network.rates[0].bound == pytest.approx(1e-5 * np.e**7)
    assert cfg.network.sources[0].rate == pytest.approx(1e13)
    assert cfg.initial.values[:, 1, 1, 1] == pytest.approx([1.3e15, 5e18, 8e18])


def test_bundled_configs_parse():
    c2 = parse_config(bundled_config_path("benchmark-2d.yaml"))
    assert c2.mode == "compare" and c2.grid.shape == (46, 46)
    c3 = parse_config(bundled_config_path("ozone-3d.yaml"))
    assert c3.mode == "simulate3d" and c3.grid.shape == (101, 101, 101)
    assert c3.network.species == ("NO", "NO2", "O3")


def test_compare_mode_end_to_end(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, COMPARE_SMALL))
    out = tmp_path / "out"
    assert execute(cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["stability"]["ok"]
    report = (out / "error_report.csv").read_text().splitlines()
    assert report[0] == "t,max_abs_error,l2_error"
    t, emax, el2 = map(float, report[1].split(","))
    assert t == 0.02 and 0 < emax < 0.05 and 0 < el2 < emax


def test_simulate3d_mode_end_to_end(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, SIM3D_SMALL))
    out = tmp_path / "out3"
    assert execute(cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["unit_factor"] == 1e7
    assert manifest["cell_updates_per_second"] > 0
    assert (out / "slice_t0.csv").exists() and (out / "slice_t10.csv").exists()
    traj = (out / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "t,i,j,k,NO,NO2,O3"
    # 10 steps at stride 2, plus step 0: 6 samples x 2 cells
    assert len(traj) == 1 + 6 * 2


def test_simulate3d_copies_no_snapshot(tmp_path, monkeypatch):
    # a 3-D capture reduces the live buffer and copies only its plane: the
    # one Field.copy is the time loop's copy of the initial field
    payload = json.loads(json.dumps(SIM3D_SMALL))
    payload["time"]["snapshots"] = [0.0, 2.0, 5.0, 7.0, 10.0]
    cfg = parse_config(write_cfg(tmp_path, payload))
    copies, copy = [], Field.copy
    monkeypatch.setattr(Field, "copy", lambda self: copies.append(self) or copy(self))
    assert execute(cfg, tmp_path / "out") == 0
    assert len(copies) == 1
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["snapshot_steps"] == [0, 2, 5, 7, 10]


@pytest.mark.parametrize("payload, cell", [
    (dict(COMPARE_SMALL, mode="simulate2d"), [1, 1]),
    (dict(COMPARE_SMALL, mode="simulate2d"), [14, 14]),
    (SIM3D_SMALL, [1, 1, 1]),
    (SIM3D_SMALL, [7, 6, 7]),
])
def test_point_initial_field_equals_the_boundary_zeroed_field(tmp_path, payload, cell):
    # the point cell is interior, so the field is built without a boundary
    # pass and must equal, byte for byte, what zeroing its boundary gives
    payload = json.loads(json.dumps(payload))
    species = len(payload.get("chemistry", {}).get("species", [None]))
    values = [2.5, -0.0, 5e-324][:species]
    payload["initial"] = {"kind": "point", "cell": cell, "values": values}
    cfg = parse_config(write_cfg(tmp_path, payload))
    want = Field.zeros(cfg.grid, species)
    for s, v in enumerate(values):
        want.values[(s, *cell)] = v * cfg.unit_factor
    zero_dirichlet(want)
    assert cfg.initial.values.tobytes() == want.values.tobytes()
    # a run copies the initial field and never writes it
    assert execute(cfg, tmp_path / "out") == 0
    assert cfg.initial.values.tobytes() == want.values.tobytes()


def test_analytic_mode_writes_coefficients(tmp_path):
    payload = dict(COMPARE_SMALL, mode="analytic2d")
    cfg = parse_config(write_cfg(tmp_path, payload))
    out = tmp_path / "outa"
    assert execute(cfg, out) == 0
    rows = (out / "coefficients.csv").read_text().splitlines()
    assert rows[0] == "m,n,A_mn"
    assert len(rows) == 1 + 12 * 12


def test_stability_rejection_exit_code_and_manifest(tmp_path):
    payload = json.loads(json.dumps(COMPARE_SMALL))
    payload["time"]["dt"] = 1.0  # hopelessly large diffusion number
    cfg = parse_config(write_cfg(tmp_path, payload))
    out = tmp_path / "outs"
    assert execute(cfg, out) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stability"]["ok"] is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(tmp_path):
    payload = json.loads(json.dumps(SIM3D_SMALL))
    payload["transport"] = {"u": [0.0, 0.0, 0.0], "k": [1e9, 1e9, 1e9]}
    payload["time"] = {"dt": 1.0, "t_end": 60.0, "snapshots": [0.0, 10.0]}
    cfg = parse_config(write_cfg(tmp_path, payload))
    out = tmp_path / "outd"
    rc = execute(cfg, out, override_stability=True)
    assert rc == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"


# keys the 3-D run checks after the manifest is written (see the README)
CHECKED_WHEN_THE_RUN_STARTS = {"trajectories.cells[0]", "slice.axis", "slice.index",
                               "time.snapshots"}


@pytest.mark.parametrize("path, value, key", [
    (("chemistry", "sources", 0, "cell"), [20, 1, 1], "chemistry.sources[0].cell"),
    (("chemistry", "sources", 0, "cell"), [1, 1], "chemistry.sources[0].cell"),
    (("chemistry", "sources", 0, "cell"), [0, 1, 1], "chemistry.sources[0].cell"),
    (("initial", "cell"), [-1, 1, 1], "initial.cell"),
    (("trajectories", "cells"), [[1, 1]], "trajectories.cells[0]"),
    (("time", "dt"), 0, "time.dt"),
    (("trajectories", "stride"), 0, "trajectories.stride"),
    (("trajectories", "stride"), -1, "trajectories.stride"),
    (("trajectories", "cell_spacing"), 0, "trajectories.cell_spacing"),
    (("initial", "kind"), "sine_product", "initial.kind"),
    (("transport", "u"), ["a", 1, 1], "transport.u"),
    (("chemistry", "reactions", 0, "loss"), {"NO2": 1.5}, "chemistry.reactions[0].loss"),
    (("units", "cell_volume_m3"), 0, "units.cell_volume_m3"),
    (("units",), {"inputs": "per_cm3", "cell_volume_m3": 10.0}, "units.inputs"),
    (("time", "snapshot"), [0.0, 4.0], "time.snapshot"),
    (("trajectories", "stirde"), 5, "trajectories.stirde"),
    (("chemistry", "reactions", 0, "rate", "value"), 1.0,
     "chemistry.reactions[0].rate.value"),
    (("slice", "axis"), "w", "slice.axis"),
    (("slice", "index"), 11, "slice.index"),
    (("time", "snapshots"), [4.0, 0.0], "time.snapshots"),
    (("time", "snapshots"), [9.0], "time.snapshots"),
    (("time", "t_end"), -3, "time.t_end"),
    (("grid", "Lx"), INF, "grid.Lx"),
    (("time", "snapshots"), [NAN], "time.snapshots[0]"),
    (("time", "snapshots"), [-1.0, 4.0], "time.snapshots[0]"),
    (("chemistry", "sources", 0, "rate"), -1.0, "chemistry.sources[0].rate"),
    (("chemistry", "sources", 0, "rate"), NAN, "chemistry.sources[0].rate"),
    (("chemistry", "sources", 0, "rate"), 1e303, "chemistry.sources[0].rate"),
    (("initial", "values"), [-5.0, 1.0, 1.0], "initial.values[0]"),
    (("initial", "values"), [1.0, INF, 1.0], "initial.values[1]"),
    (("initial", "values"), [1e303, 1.0, 1.0], "initial.values[0]"),
    (("units", "cell_volume_m3"), INF, "units.cell_volume_m3"),
    (("units", "cell_volume_m3"), 5e-324, "units.cell_volume_m3"),
    (("transport", "u"), [INF, 1.0, 1.0], "transport.u[0]"),
    (("transport", "u"), [10**400, 1, 1], "transport.u[0]"),
    (("transport", "k"), [NAN, 2e-5, 2e-5], "transport.k[0]"),
], ids=["source-outside", "source-2-indices", "source-on-boundary",
        "initial-negative", "tracked-2-indices", "dt-zero", "stride-zero",
        "stride-negative", "cell-spacing-zero", "sine-product-3d", "u-not-number",
        "loss-fraction", "cell-volume-zero", "units-inputs-typo", "time-snapshot-typo",
        "stride-typo", "photolysis-value-unread", "slice-axis-unknown",
        "slice-index-outside", "snapshots-unsorted", "snapshot-after-t-end",
        "t-end-negative", "lx-infinite", "snapshot-nan", "snapshot-negative",
        "source-rate-negative", "source-rate-nan", "source-rate-overflows-when-scaled",
        "initial-value-negative", "initial-value-infinite",
        "initial-value-overflows-when-scaled", "cell-volume-infinite",
        "cell-volume-overflows-rate", "u-infinite",
        "u-int-beyond-float", "k-nan"])
def test_bad_reference_exits_1_naming_key(tmp_path, capsys, path, value, key):
    raw = yaml.safe_load(bundled_config_path("ozone-3d.yaml").read_text())
    raw["grid"].update(nx=11, ny=11, nz=11)
    raw["time"].update(t_end=4.0, snapshots=[0.0, 4.0])
    block = raw
    for part in path[:-1]:
        block = block[part]
    block[path[-1]] = value
    out = tmp_path / "out"
    assert main([str(write_cfg(tmp_path, raw)), "--out-dir", str(out)]) == 1
    assert key in capsys.readouterr().err
    manifest = out / "manifest.json"
    if key in CHECKED_WHEN_THE_RUN_STARTS:
        assert json.loads(manifest.read_text())["status"] == "failed"
    else:
        # parse-time rejections stop before the manifest is written
        assert not manifest.exists()


@pytest.mark.parametrize("mode, path, value, key", [
    ("converge", ("converge", "nx_levels"), [12, 16, "x"], "converge.nx_levels"),
    ("converge", ("initial", "kind"), "blob", "initial.kind"),
    ("converge", ("converge", "nx_levels"), [16, 16, 16], "converge.nx_levels"),
    ("converge", ("converge", "nx_levels"), [24, 16, 12], "converge.nx_levels"),
    ("compare", ("initial", "kind"), "zero", "initial.kind"),
    ("converge", ("initial", "kind"), "zero", "initial.kind"),
    ("analytic2d", ("initial", "kind"), "zero", "initial.kind"),
    ("compare", ("grid", "Lx"), 2.0, "grid.Lx"),
    ("analytic2d", ("grid", "Ly"), 0.5, "grid.Ly"),
    ("converge", ("grid", "Lx"), 2.0, "grid.Lx"),
    ("compare", ("transport", "u"), [5.0, 4.0], "transport.u"),
    ("analytic2d", ("transport", "k"), [0.5, 0.25], "transport.k"),
    ("converge", ("transport", "u"), [5.0, 4.0], "transport.u"),
    ("simulate2d", ("chemistry",), SIM3D_SMALL["chemistry"], "chemistry.species"),
    ("compare", ("slice",), {"axis": "z"}, "slice.axis"),
    ("compare", ("series", "M"), 0, "series.M"),
    ("analytic2d", ("series", "N"), 0, "series.N"),
    ("converge", ("converge", "nx_levels"), [2, 4, 8], "converge.nx_levels"),
    ("simulate2d", ("time", "t_end"), -3.0, "time.t_end"),
    ("simulate2d", ("time", "t_end"), float("inf"), "time.t_end"),
    ("simulate2d", ("time", "dt"), float("inf"), "time.dt"),
    ("compare", ("series", "quad_points"), 8, "series.quad_points"),
    ("simulate2d", ("grid", "Lx"), INF, "grid.Lx"),
    ("simulate2d", ("time", "snapshots"), [NAN], "time.snapshots[0]"),
    ("simulate2d", ("initial",), {"kind": "point", "cell": [3, 3], "values": [-5.0]},
     "initial.values[0]"),
    ("simulate2d", ("transport", "k"), [0.5, NAN], "transport.k[1]"),
], ids=["nx-levels-not-int", "initial-kind-unknown", "nx-levels-repeated",
        "nx-levels-decreasing", "compare-zero-initial", "converge-zero-initial",
        "analytic2d-zero-initial", "compare-non-unit-grid", "analytic2d-non-unit-grid",
        "converge-non-unit-grid", "compare-unequal-u", "analytic2d-unequal-k",
        "converge-unequal-u", "chemistry-in-2d", "slice-in-2d", "series-m-zero",
        "series-n-zero", "nx-levels-below-3", "t-end-negative", "t-end-infinite",
        "dt-infinite", "series-quad-points-removed", "lx-infinite", "snapshot-nan",
        "initial-value-negative", "k-nan"])
def test_bad_2d_config_exits_1_naming_key(tmp_path, capsys, mode, path, value, key):
    raw = dict(COMPARE_SMALL, mode=mode)
    if mode == "converge":
        raw["converge"] = {"nx_levels": [12, 16, 24]}
    raw = json.loads(json.dumps(raw))
    block = raw
    for part in path[:-1]:
        block = block[part]
    block[path[-1]] = value
    out = tmp_path / "out"
    assert main([str(write_cfg(tmp_path, raw)), "--out-dir", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("mode, payload, key", [
    ("simulate3d", COMPARE_SMALL, "grid.nz"),
    ("trajectories", COMPARE_SMALL, "grid.nz"),
    ("compare", SIM3D_SMALL, "transport"),
    ("simulate2d", SIM3D_SMALL, "transport"),
], ids=["simulate3d-2d-file", "trajectories-2d-file", "compare-3d-file",
        "simulate2d-3d-file"])
def test_mode_argument_parses_config_for_that_mode(tmp_path, capsys, mode, payload, key):
    out = tmp_path / "out"
    argv = [mode, "--config", str(write_cfg(tmp_path, payload)), "--out-dir", str(out)]
    assert main(argv) == 1
    assert key in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_mode_argument_selects_trajectory_lattice(tmp_path):
    # the file's own mode (simulate3d) tracks nothing; trajectories mode tracks
    # the default spacing-10 lattice, which on 9 nodes per axis is one cell
    payload = {k: v for k, v in SIM3D_SMALL.items() if k != "trajectories"}
    path = write_cfg(tmp_path, payload)
    cfg = parse_config(path, mode="trajectories")
    assert cfg.mode == "trajectories" and cfg.trajectory_cells == [(1, 1, 1)]
    assert parse_config(path).trajectory_cells == []
    out = tmp_path / "out"
    assert main(["trajectories", "--config", str(path), "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["mode"] == "trajectories"
    assert (out / "trajectories.csv").read_text().splitlines()[1].startswith("0.0,1,1,1,")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chemistry_overflow_reports_step_species_and_cell(tmp_path, capsys):
    payload = json.loads(json.dumps(SIM3D_SMALL))
    payload["chemistry"]["reactions"][1]["rate"]["value"] = 1e9
    out = tmp_path / "out"
    argv = [str(write_cfg(tmp_path, payload)), "--out-dir", str(out),
            "--override-stability"]
    assert main(argv) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    step = manifest["diverged_at_step"]
    assert 1 <= step <= 10
    err = capsys.readouterr().err
    assert f"after step {step} " in err and "species" in err and "cell (" in err


def test_unexpected_fault_finalizes_manifest(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected fault")

    monkeypatch.setitem(cli._RUNNERS, "compare", broken)
    cfg = parse_config(write_cfg(tmp_path, COMPARE_SMALL))
    out = tmp_path / "outf"
    with pytest.raises(RuntimeError, match="injected fault"):
        execute(cfg, out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == "RuntimeError: injected fault"


def test_stability_report_of_bundled_configs():
    c2 = parse_config(bundled_config_path("benchmark-2d.yaml"))
    rep2 = stability2d(c2.transport, c2.grid, c2.dt).as_dict()
    expected2 = {
        "scheme": "centered-2d", "Rx": 0.10125, "Ry": 0.10125,
        "Px": 0.11111111111111112, "Py": 0.11111111111111112,
        "ok": True, "violated": None,
    }
    assert list(rep2.items()) == list(expected2.items())
    c3 = parse_config(bundled_config_path("ozone-3d.yaml"))
    rep3 = stability3d(c3.transport, c3.grid, c3.dt, c3.alpha).as_dict()
    expected3 = {
        "scheme": "upwind-3d", "Rx": 2.0000000000000002e-07,
        "Ry": 2.0000000000000002e-07, "Rz": 2.0000000000000002e-07,
        "Px": 499999.99999999994, "Py": 499999.99999999994, "Pz": 499999.99999999994,
        "cfl": 0.1, "combined": 0.3000012, "alpha": 0.9, "ok": True, "violated": None,
    }
    assert list(rep3.items()) == list(expected3.items())


def test_main_rejects_unknown_target(capsys):
    assert main(["not-a-mode-or-file"]) == 1
    assert "neither" in capsys.readouterr().err


def test_main_mode_requires_config(capsys):
    assert main(["compare"]) == 1
    assert "error: mode 'compare' requires --config" in capsys.readouterr().err


def test_main_with_config_path(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, COMPARE_SMALL)
    out = tmp_path / "cli-out"
    assert main([str(cfg_path), "--out-dir", str(out)]) == 0
    assert (out / "error_report.csv").exists()


def test_main_mode_overrides_config(tmp_path):
    cfg_path = write_cfg(tmp_path, dict(COMPARE_SMALL, mode="simulate2d"))
    out = tmp_path / "cli-out2"
    assert main(["compare", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    assert (out / "error_report.csv").exists()


def test_threads_flag_never_changes_bytes(tmp_path):
    cfg_path = write_cfg(tmp_path, SIM3D_SMALL)
    outs = []
    for threads in (1, 4):
        out = tmp_path / f"threads{threads}"
        assert main([str(cfg_path), "--out-dir", str(out),
                     "--threads", str(threads)]) == 0
        outs.append(hash_outputs(out))
    assert outs[0] == outs[1]
    assert len(outs[0]) >= 3  # slices plus trajectories


@pytest.mark.parametrize("payload, recorded", [
    (SIM3D_SMALL, 1),  # 9 nodes: the 7 interior x-planes are one block
    (_traj_default_lattice(), 2),  # 13 nodes: two blocks, two CPUs
    (COMPARE_SMALL, 1),  # a 2-D step runs on one thread
], ids=["simulate3d-one-block", "trajectories-two-blocks", "compare"])
def test_manifest_records_threads_that_ran(tmp_path, monkeypatch, payload, recorded):
    monkeypatch.setattr(solver3d, "_usable_cpus", lambda: 2)
    out = tmp_path / "out"
    assert execute(parse_config(write_cfg(tmp_path, payload)), out, threads=4) == 0
    assert json.loads((out / "manifest.json").read_text())["threads"] == recorded


def test_zero_step_run_reports_zero_throughput(tmp_path):
    payload = dict(SIM3D_SMALL, time={"dt": 1.0, "t_end": 0.0})
    out = tmp_path / "out"
    assert execute(parse_config(write_cfg(tmp_path, payload)), out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["snapshot_steps"] == [0]
    assert manifest["cell_updates_per_second"] == 0.0


@pytest.mark.parametrize("threads", [0, -5])
def test_threads_below_one_exits_1_before_manifest(tmp_path, capsys, threads):
    cfg_path = write_cfg(tmp_path, SIM3D_SMALL)
    out = tmp_path / "out"
    assert main([str(cfg_path), "--out-dir", str(out), "--threads", str(threads)]) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert execute(parse_config(cfg_path), out, threads=threads) == 1
    assert "--threads" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("payload", [
    dict(COMPARE_SMALL, mode="simulate2d", grid={"nx": 11, "ny": 11, "Lx": 1.0, "Ly": 1.0},
         time={"dt": 1.0e12, "t_end": 1.0}),
    dict(SIM3D_SMALL, time={"dt": 1.0e12, "t_end": 1.0}),
], ids=["simulate2d", "simulate3d"])
def test_zero_step_run_is_stability_gated(tmp_path, payload):
    # t_end/dt is 1e-12, so the run takes no step; the gate still decides
    cfg_path = write_cfg(tmp_path, payload)
    out = tmp_path / "gated"
    assert main([str(cfg_path), "--out-dir", str(out)]) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["stability"]["ok"] is False
    forced = tmp_path / "forced"
    assert main([str(cfg_path), "--out-dir", str(forced), "--override-stability"]) == 0
    assert json.loads((forced / "manifest.json").read_text())["status"] == "ok"


def test_simulate2d_writes_snapshots(tmp_path):
    payload = dict(COMPARE_SMALL, mode="simulate2d")
    cfg = parse_config(write_cfg(tmp_path, payload))
    out = tmp_path / "out2d"
    assert execute(cfg, out) == 0
    snap = (out / "snap_t50.csv").read_text().splitlines()
    assert snap[0] == "x,y,c1"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["snapshot_steps"] == [50]
    assert manifest["positivity"]["ok"]


def test_converge_mode(tmp_path):
    payload = dict(COMPARE_SMALL, mode="converge")
    payload["converge"] = {"nx_levels": [12, 16, 24]}
    payload["time"] = {"dt": 4e-4, "t_end": 0.02, "snapshots": [0.02]}
    cfg = parse_config(write_cfg(tmp_path, payload))
    out = tmp_path / "outc"
    assert execute(cfg, out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert 1.0 < manifest["measured_order"] < 3.0
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "nx,dx,dt,max_abs_error"
    assert len(rows) == 4


def _run_small(tmp_path, name):
    out = tmp_path / "out"
    assert main([str(write_cfg(tmp_path, SMALL_RUNS[name])), "--out-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return {"files": hash_outputs(out), "manifest_keys": list(manifest)}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_small_run_bytes_match_recorded_digests(tmp_path, name):
    recorded = json.loads(SMALL_DIGESTS.read_text())[name]
    assert _run_small(tmp_path, name) == recorded


# Property test: configs mutated from small valid ones (at most 7 nodes per
# axis, 4 steps) end with a documented exit code and never with a traceback or
# a manifest left at "running".
PROPERTY_BASES = {
    "3d": dict(SIM3D_SMALL, grid=dict(SIM3D_SMALL["grid"], nx=7, ny=7, nz=7),
               time={"dt": 1.0, "t_end": 4.0, "snapshots": [0.0, 4.0]}),
    "2d": dict(COMPARE_SMALL, grid=dict(COMPARE_SMALL["grid"], nx=7, ny=7),
               transport={"u": [2.0, 2.0], "k": [0.5, 0.5]},
               time={"dt": 4e-4, "t_end": 1.6e-3, "snapshots": [1.6e-3]},
               converge={"nx_levels": [5, 6, 7]}),
}
DROP = object()
MUTATIONS = {
    ("grid", "nx"): [2, "x", 7.5],
    ("grid", "nz"): [2, "x"],
    ("grid", "Lx"): [0, -1.0, "x", NAN, INF],
    ("transport", "u"): [["a", 1, 1], [1], [-1, 1, 1], "x", [NAN, 1, 1], [INF, 1, 1],
                         [-1.0, 1, 1]],
    ("transport", "k"): [[0, 0, 0], [0, 0], [-1, 0, 0]],
    ("time", "dt"): [0, -1, "x", 1e3],
    ("time", "t_end"): [0, -1, "x"],
    ("time", "snapshots"): [[4, 1], [-1], ["x"], [99], [NAN], [INF], [-1.0]],
    ("initial", "kind"): ["sine_product", "point", "blob", 3],
    ("initial", "cell"): [[0, 1, 1], [1, 1], [99, 1, 1], "x"],
    ("initial", "values"): [[1], ["a", 1, 1], 5, [NAN, 1, 1], [INF, 1, 1], [-1.0, 1, 1]],
    ("trajectories", "stride"): [0, -1, "x", 1.5],
    ("trajectories", "cell_spacing"): [0, -3, "x", 1],
    ("trajectories", "cells"): [[[1, 1]], [[0, 1, 1]], [5], "x"],
    ("converge", "nx_levels"): [[5, 6, "x"], [5, 6], [2, 3, 4], "x"],
    ("chemistry", "reactions", 0, "loss"): [{"NO2": 1.5}, {"XX": 1}, {"NO2": -1}, "x"],
    ("chemistry", "sources", 0, "cell"): [[0, 1, 1], [1, 1], [9, 9, 9]],
    ("chemistry", "sources", 0, "rate"): [NAN, INF, -1.0],
    ("units", "cell_volume_m3"): [0, -1, "x"],
    ("slice", "index"): [99, -1, "x"],
    ("slice", "axis"): ["w", 1],
    ("series", "M"): [0, -1, 1.5],
    ("series", "quad_points"): [3, "x"],
    ("alpha",): [0, 1.5, "x"],
}
mutation = st.sampled_from(list(MUTATIONS)).flatmap(
    lambda path: st.tuples(st.just(path), st.sampled_from([DROP, *MUTATIONS[path]])))


def _mutate(cfg: dict, path: tuple, value) -> None:
    block = cfg
    for part in path[:-1]:
        try:
            block = block[part]
        except (KeyError, IndexError, TypeError):
            return
    if not isinstance(block, dict):
        return
    if value is DROP:
        block.pop(path[-1], None)
    else:
        block[path[-1]] = value


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(base=st.sampled_from(sorted(PROPERTY_BASES)),
       mode=st.sampled_from(cli.MODES) | st.text(alphabet="abcdz", max_size=6),
       mode_on_command_line=st.booleans(),
       mutations=st.lists(mutation, max_size=3))
def test_mutated_configs_end_with_documented_exit_code(base, mode, mode_on_command_line,
                                                       mutations):
    cfg = json.loads(json.dumps(PROPERTY_BASES[base]))
    if mode != "converge":
        # a block the mode does not read would stop every run at parse time
        cfg.pop("converge", None)
    if not mode_on_command_line:
        cfg["mode"] = mode
    for path, value in mutations:
        _mutate(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out = Path(tmp) / "out"
        argv = [mode, "--config", str(path)] if mode_on_command_line else [str(path)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([*argv, "--out-dir", str(out)])
        assert rc in (0, 1, 2, 3)
        manifest = out / "manifest.json"
        assert not manifest.exists() or \
            json.loads(manifest.read_text())["status"] != "running"


# the floats whose shortest repr has an exponent, a sign, a subnormal or no digits
AWKWARD_VALUES = [0.0, -0.0, 5e-324, 1e-05, 1e16, float("nan"), float("inf"), float("-inf"),
                  0, 7, -3, 1.5, 0.1 + 0.2]


def test_csv_writer_matches_value_by_value_formatting(tmp_path):
    rows = [AWKWARD_VALUES, AWKWARD_VALUES[::-1]]
    cli.write_csv(tmp_path / "a.csv", ["h"] * len(AWKWARD_VALUES), [np.array(rows, float)])
    # the row index leads each line, as an integer column; so do the whole
    # numbers among the awkward values, -0.0 too
    indexed = tmp_path / "b.csv"
    cli.write_csv(indexed, ["p", "h"], [np.column_stack([range(13), AWKWARD_VALUES])], (0,))
    whole = [0, 7, -3, -0.0, 2**53 - 1]
    cli.write_csv(tmp_path / "c.csv", ["w"] * 5, [np.array([whole, whole[::-1]], float)],
                  range(5))
    expected = [",".join(["h"] * len(AWKWARD_VALUES))]
    expected += [",".join(csv_field(float(v)) for v in row) for row in rows]
    assert (tmp_path / "a.csv").read_text() == "\n".join(expected) + "\n"
    expected = ["p,h"] + [f"{n},{csv_field(float(v))}" for n, v in enumerate(AWKWARD_VALUES)]
    assert indexed.read_text() == "\n".join(expected) + "\n"
    assert (tmp_path / "c.csv").read_text() == \
        "w,w,w,w,w\n0,7,-3,0,9007199254740991\n9007199254740991,0,-3,7,0\n"


@pytest.mark.parametrize("coords", [None, (np.array([0.0, 0.1, 5e-324]), np.array([-0.0, 1e16]))])
def test_slice_writer_matches_value_by_value_formatting(tmp_path, coords):
    plane = np.array(AWKWARD_VALUES[:12], dtype=float).reshape(2, 3, 2)
    cli.write_slice(tmp_path / "s.csv", plane, ["A", "B"], ("x", "y"), coords)
    axes = coords or (range(3), range(2))
    expected = ["x,y,A,B"] + [
        ",".join(csv_field(v) for v in (axes[0][a], axes[1][b], *plane[:, a, b]))
        for a in range(3) for b in range(2)
    ]
    assert (tmp_path / "s.csv").read_text() == "\n".join(expected) + "\n"


def _expected_csv(header, rows) -> str:
    """The CSV text of rows, formatted value by value."""
    lines = [",".join(header)] + [",".join(csv_field(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _plane_rows(plane, axes):
    return [(axes[0][a], axes[1][b], *plane[:, a, b])
            for a in range(plane.shape[1]) for b in range(plane.shape[2])]


# node rows of a (3, 4, 3) plane: all +0.0, all -0.0, and one -0.0, subnormal,
# nan, inf, -inf or ordinary value among +0.0, then +0.0 rows
ZERO_ROW_CASES = np.zeros((12, 3))
ZERO_ROW_CASES[1] = -0.0
ZERO_ROW_CASES[2, 1] = -0.0
ZERO_ROW_CASES[3, 2] = 5e-324
ZERO_ROW_CASES[4, 0] = float("nan")
ZERO_ROW_CASES[5, 1] = float("inf")
ZERO_ROW_CASES[6, 2] = float("-inf")
ZERO_ROW_CASES[7, 0] = 1.5


@pytest.mark.parametrize("plane", [ZERO_ROW_CASES.T.reshape(3, 4, 3), np.zeros((3, 4, 3))],
                         ids=["mixed-rows", "zero-plane"])
@pytest.mark.parametrize("coords", [None, (np.array([0.0, -0.0, 5e-324, 1e16]),
                                           np.array([0.1, 0.2, 0.30000000000000004]))])
def test_slice_writer_zero_rows_match_value_by_value_formatting(tmp_path, plane, coords):
    cli.write_slice(tmp_path / "s.csv", plane, ["A", "B", "C"], ("x", "y"), coords)
    axes = coords or (range(4), range(3))
    assert (tmp_path / "s.csv").read_text() == \
        _expected_csv(["x", "y", "A", "B", "C"], _plane_rows(plane, axes))


def test_slice_coordinates_follow_shape_and_coordinate_bits(tmp_path):
    # same shape, coordinates that differ (the first only in the sign of
    # zero), then a transposed shape: each slice gets its own row text
    planes_coords = [
        (np.ones((1, 2, 2)), (np.array([0.0, 1.0]), np.array([0.0, 2.0]))),
        (np.ones((1, 2, 2)), (np.array([-0.0, 1.0]), np.array([0.0, 2.0]))),
        (np.ones((1, 2, 2)), (np.array([-0.0, 1.0]), np.array([0.0, 3.0]))),
        (np.ones((1, 2, 3)), None),
        (np.ones((1, 3, 2)), None),
    ]
    for n, (plane, coords) in enumerate(planes_coords):
        path = tmp_path / f"s{n}.csv"
        cli.write_slice(path, plane, ["A"], ("x", "y"), coords)
        axes = coords or [range(k) for k in plane.shape[1:]]
        assert path.read_text() == _expected_csv(["x", "y", "A"], _plane_rows(plane, axes))


def test_trajectory_writer_matches_value_by_value_formatting(tmp_path, monkeypatch):
    # the tracked cells are 9 and 18 cells (L1) from the point release, so
    # the plume reaches neither before step 9: samples 0-8 are all +0.0
    payload = json.loads(json.dumps(SIM3D_SMALL))
    payload["trajectories"] = {"stride": 2, "cells": [[4, 4, 4], [7, 7, 7]]}
    logs, run3d = [], cli.run3d

    def run_and_plant(*args, **kwargs):
        series = run3d(*args, **kwargs)
        log = series.trajectories
        log.data[1] = np.array([[-0.0, 0.0, 0.0], [0.0, 5e-324, float("nan")]])
        logs.append(log)
        return series

    monkeypatch.setattr(cli, "run3d", run_and_plant)
    assert execute(parse_config(write_cfg(tmp_path, payload)), tmp_path / "out") == 0
    (log,) = logs
    assert len(log.data) == 6
    assert not log.data[2].any() and log.data[-1].any()
    assert (tmp_path / "out" / "trajectories.csv").read_text() == \
        _expected_csv(["t", "i", "j", "k", "NO", "NO2", "O3"], trajectory_rows(log))


def _indexed_blocks(rows, check=None):
    """(n, 0.5) rows in blocks of 1000, n their index; check(n) runs before block n."""
    for lo in range(0, rows, 1000):
        if check:
            check(lo)
        yield np.column_stack([np.arange(lo, lo + 1000), np.full(1000, 0.5)])


def test_csv_writer_streams_lines_to_the_temp_file(tmp_path):
    # halfway through the rows, earlier lines are already in the temp file:
    # the writer never holds the whole file's text
    path = tmp_path / "big.csv"
    tmp = path.with_name(path.name + ".tmp")

    def check(n):
        if n == 50_000:
            assert tmp.exists() and tmp.stat().st_size > 0

    cli.write_csv(path, ["n", "v"], _indexed_blocks(100_000, check), (0,))
    assert not tmp.exists()
    assert path.read_text() == "n,v\n" + "".join(f"{n},0.5\n" for n in range(100_000))


def test_failed_csv_write_leaves_neither_file_nor_temp_file(tmp_path):
    path = tmp_path / "big.csv"

    def check(n):
        if n == 50_000:
            assert path.with_name(path.name + ".tmp").stat().st_size > 0
            raise RuntimeError("rows failed halfway")

    with pytest.raises(RuntimeError, match="halfway"):
        cli.write_csv(path, ["n", "v"], _indexed_blocks(100_000, check), (0,))
    assert list(tmp_path.iterdir()) == []


# YAML 1.1 scalars whose type or value a loader could get wrong: 1e5 has no
# dot, so it is a string; 1.0e+400 overflows to inf
YAML_EDGE_SCALARS = [".inf", "-.inf", ".nan", "-0.0", "1e5", "1.0e+400",
                     "12345678901234567890123456789", "~", "yes"]


@pytest.mark.parametrize("text", [
    *(p.read_text() for p in sorted(bundled_config_path(".").glob("*.yaml"))),
    *(f"value: {s}\nlist: [{s}, {s}]\n" for s in YAML_EDGE_SCALARS),
])
def test_config_loader_reads_what_the_python_safe_loader_reads(text):
    # the compiled loader, where PyYAML has it, must give the same values
    assert repr(yaml.load(text, Loader=cli._YAML_LOADER)) == \
        repr(yaml.load(text, Loader=yaml.SafeLoader))


def test_malformed_config_exits_1(tmp_path, capsys):
    (tmp_path / "bad.yaml").write_text("grid: [1, 2\nmode: compare\n")
    assert main([str(tmp_path / "bad.yaml")]) == 1
    assert "malformed config" in capsys.readouterr().err
