"""The compiled library: its build and load, and the CSV formatter's repr contract."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from adr_lab import (Field, Grid, InputError, TransportParams, _native, cli, stability2d,
                     stability3d, step2d, step3d)


@pytest.fixture
def empty_cache(monkeypatch, tmp_path):
    """The library's cache moved to an empty directory, and no library loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(_native, "_CACHE", cache)
    _native.library.cache_clear()
    yield cache
    _native.library.cache_clear()


def _small_step(values):
    grid = Grid(values.shape[1:], tuple(float(n - 1) for n in values.shape[1:]))
    rep = stability3d(TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.05, 0.05)), grid, 0.5)
    return step3d(Field(grid, values), rep, None, 0.0, 0.5)


STEP_IN_A_PROCESS = """
import sys
from pathlib import Path
import numpy as np
from adr_lab import Field, Grid, TransportParams, _native, stability3d, step3d
_native._CACHE = Path(sys.argv[1])
values = np.load(sys.argv[2])
grid = Grid(values.shape[1:], tuple(float(n - 1) for n in values.shape[1:]))
rep = stability3d(TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.05, 0.05)), grid, 0.5)
sys.stdout.write(step3d(Field(grid, values), rep, None, 0.0, 0.5).values.tobytes().hex())
"""


def test_processes_starting_on_an_empty_cache_build_one_library(empty_cache, tmp_path):
    values = np.random.default_rng(41).uniform(0.0, 1.0, (2, 9, 8, 7))
    np.save(tmp_path / "values.npy", values)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    command = [sys.executable, "-c", STEP_IN_A_PROCESS, str(empty_cache),
               str(tmp_path / "values.npy")]
    runs = [subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            for _ in range(2)]
    outputs = [run.communicate(timeout=120) for run in runs]
    assert [run.returncode for run in runs] == [0, 0], [err for _, err in outputs]
    expected = _small_step(values).values.tobytes().hex()
    assert [out.decode() for out, _ in outputs] == [expected, expected]
    assert [p.suffix for p in empty_cache.iterdir()] == [".so"]


def test_a_built_kernel_is_loaded_without_the_compiler(empty_cache, monkeypatch):
    values = np.random.default_rng(43).uniform(0.0, 1.0, (2, 9, 8, 7))
    built = _small_step(values).values
    (lib,) = empty_cache.iterdir()
    monkeypatch.setattr(_native, "COMPILER", ("false",))
    _native.library.cache_clear()
    assert _small_step(values).values.tobytes() == built.tobytes()
    assert _native.format_lines(np.array([[7.0, 0.1, -0.0]]), (0,)).tobytes() == b"7,0.1,-0.0\n"
    assert list(empty_cache.iterdir()) == [lib]


def _run_without_compiler(monkeypatch, tmp_path, raw):
    """Exit code and output directory of the run of raw with a compiler that does not exist."""
    compiler = str(tmp_path / "no-such-cc")
    monkeypatch.setattr(_native, "COMPILER", (compiler,))
    (tmp_path / "run.yaml").write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    code = cli.execute(cli.parse_config(tmp_path / "run.yaml"), out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "C compiler" in manifest["error"] and compiler in manifest["error"]
    return code, out


def test_missing_compiler_fails_the_run_naming_it(empty_cache, monkeypatch, tmp_path):
    raw = yaml.safe_load(cli.bundled_config_path("ozone-3d.yaml").read_text())
    raw["grid"].update(nx=11, ny=11, nz=11)
    raw["time"].update(t_end=4.0, snapshots=[0.0, 4.0])
    assert _run_without_compiler(monkeypatch, tmp_path, raw)[0] == 1
    assert not empty_cache.exists() or list(empty_cache.iterdir()) == []


def test_missing_compiler_fails_a_2d_run_leaving_no_csv(empty_cache, monkeypatch, tmp_path):
    # a 2-D run needs the compiler at its first step
    raw = {"mode": "simulate2d", "grid": {"nx": 8, "ny": 8, "Lx": 1.0, "Ly": 1.0},
           "transport": {"u": [5.0, 5.0], "k": [0.5, 0.5]},
           "time": {"dt": 4e-4, "t_end": 0.002}, "initial": {"kind": "sine_product"}}
    code, out = _run_without_compiler(monkeypatch, tmp_path, raw)
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_missing_compiler_fails_an_analytic_run_leaving_no_csv(empty_cache, monkeypatch,
                                                               tmp_path):
    # coefficients.csv is the run's first CSV: it fails while being written
    raw = yaml.safe_load(cli.bundled_config_path("benchmark-2d.yaml").read_text())
    raw["grid"].update(nx=8, ny=8)
    raw["series"].update(M=4, N=4)
    raw["time"] = {"snapshots": [0.0]}
    code, out = _run_without_compiler(monkeypatch, tmp_path, dict(raw, mode="analytic2d"))
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_missing_compiler_fails_a_compare_run_naming_it(empty_cache, monkeypatch, tmp_path):
    raw = yaml.safe_load(cli.bundled_config_path("benchmark-2d.yaml").read_text())
    raw["grid"].update(nx=8, ny=8)
    raw["time"].update(dt=4e-4, t_end=0.002, snapshots=[0.002])
    raw["series"].update(M=4, N=4)
    code, out = _run_without_compiler(monkeypatch, tmp_path, raw)
    assert code == 1
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def _step_2d(field, out):
    rep = stability2d(TransportParams(u=(0.3, 0.2), k=(0.05, 0.05)), field.grid, 0.5)
    return step2d(field, rep, out)


def _step_3d(field, out):
    rep = stability3d(TransportParams(u=(0.3, 0.2, 0.1), k=(0.05, 0.05, 0.05)), field.grid, 0.5)
    return step3d(field, rep, None, 0.0, 0.5, out=out)


@pytest.mark.parametrize("step, shape", [(_step_2d, (2, 7, 6)), (_step_3d, (2, 7, 6, 5))])
@pytest.mark.parametrize("bad", ["in-place", "strided", "float32"])
def test_step_kernels_reject_an_out_they_cannot_write(step, shape, bad):
    # both kernels read field and write out by the offsets of one C layout
    grid = Grid(shape[1:], tuple(float(n - 1) for n in shape[1:]))
    field = Field(grid, np.random.default_rng(5).uniform(0.0, 1.0, shape))
    out = Field.zeros(grid, shape[0])
    if bad == "in-place":
        out = field
    elif bad == "strided":
        out.values = np.zeros((shape[0], 2 * shape[1], *shape[2:]))[:, ::2]
    else:
        out.values = out.values.astype(np.float32)
    before = field.values.copy()
    with pytest.raises(InputError, match="C-contiguous float64"):
        step(field, out)
    assert field.values.tobytes() == before.tobytes()


def test_kernel_flags_keep_ieee_rounding():
    assert "-ffp-contract=off" in _native._FLAGS
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(_native._FLAGS)


def test_library_source_compiles_without_warnings(tmp_path):
    flags = (*_native._FLAGS, "-Wall", "-Wextra", "-Werror")
    done = subprocess.run([*_native.COMPILER, *flags, "-o", str(tmp_path / "lib.so"),
                           str(_native._SOURCE), "-lm"], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def _lines(rows, integer=()):
    values = np.array(rows, dtype=np.float64).reshape(len(rows), -1)
    return _native.format_lines(values, integer).tobytes()


def _repr_lines(rows, integer=()):
    """The lines of rows, value by value: str(int(v)) in an integer column, else repr."""
    return "".join(",".join(str(int(v)) if j in integer else repr(float(v))
                            for j, v in enumerate(row)) + "\n" for row in rows).encode()


def _neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


NAN = float("nan")
EDGE_VALUES = [
    0.0, -0.0, NAN, -NAN, math.inf, -math.inf, 5e-324, np.nextafter(2.2250738585072014e-308, 0),
    2.2250738585072014e-308, 1.7976931348623157e+308,
    *(2.0**e for e in range(-1074, 1024)),
    *(v for k in range(-325, 309) for v in _neighbours(float(f"1e{k}"))),
]
# where repr switches between fixed and exponent form
SWITCH_POINTS = [1e16, 9999999999999998.0, 0.0001, 0.00009999999999999999, 1e-05]


def test_formatter_writes_repr_of_edge_values():
    rows = [[v] for v in EDGE_VALUES]
    assert _lines(rows) == _repr_lines(rows)


def test_formatter_switches_layout_where_repr_does():
    rows = [[v] for v in SWITCH_POINTS]
    assert _lines(rows) == _repr_lines(rows) == \
        b"1e+16\n9999999999999998.0\n0.0001\n9.999999999999999e-05\n1e-05\n"


def test_formatter_writes_repr_of_a_million_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2**64, size=1_100_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)].reshape(-1, 4)[:250_000]
    assert values.size == 1_000_000
    # the row index leads each line, as an integer column
    table = np.column_stack([np.arange(len(values)), values])
    assert _native.format_lines(table, (0,)).tobytes() == _repr_lines(table.tolist(), (0,))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(st.floats(), min_size=3, max_size=3), max_size=4))
def test_formatter_writes_repr_of_any_float(rows):
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    assert _native.format_lines(values).tobytes() == _repr_lines(rows)


WHOLE = st.integers(-(2**53 - 1), 2**53 - 1).map(float) | st.just(-0.0)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(WHOLE, st.floats(), WHOLE), max_size=4))
def test_formatter_writes_integer_columns_as_str_of_int(rows):
    values = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
    lines = _native.format_lines(values, (0, 2)).tobytes()
    assert lines == _repr_lines(rows, (0, 2))
    assert lines == "".join(f"{int(a)},{b!r},{int(c)}\n" for a, b, c in rows).encode()


@pytest.mark.parametrize("value", [0.5, -2.5, 2.0**53, -(2.0**53), 1e300, math.nan,
                                   math.inf, -math.inf])
def test_formatter_rejects_an_integer_column_value_that_is_no_whole_number(value):
    values = np.array([[1.0, 2.0], [value, 3.0]])
    assert _native.format_lines(values, (1,)).tobytes() == b"1.0,2\n" + repr(value).encode() + \
        b",3\n"
    with pytest.raises(InputError, match="whole numbers"):
        _native.format_lines(values, (0,))


def test_formatter_takes_strided_rows_and_rejects_other_input():
    # the row index leads each row of the transposed plane, as an integer column
    plane = np.vstack([np.arange(4.0), np.arange(12.0).reshape(3, 4) / 7])
    assert not plane.T.flags.c_contiguous
    assert _native.format_lines(plane.T, (0,)).tobytes() == _repr_lines(plane.T.tolist(), (0,))
    with pytest.raises(InputError):
        _native.format_lines(plane.astype(np.float32))
    with pytest.raises(InputError):
        _native.format_lines(plane[0])
    with pytest.raises(InputError):
        _native.format_lines(plane[None])
