"""The benchmark's traced runs wrap package functions by module and name.

perfbench/tracing.py lists those names in PATCH_POINTS; these tests resolve
every entry without installing any wrapper, so renaming a function the
benchmark patches fails here and not only in a traced benchmark run.  A
tiny traced run of each workload also fails when a layer the workload
expects records no calls.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adr_lab import Field, Grid, TransportParams, run2d, run3d

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
SRC = ROOT / "src" / "adr_lab"
SHIM = re.compile(r"^from \.(\w+) import (.+?)  # noqa: F401 \(patched by perfbench/tracing\.py\)$")
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("layer, module_name, attr", tracing.PATCH_POINTS,
                         ids=[f"{m}.{a}" for _, m, a in tracing.PATCH_POINTS])
def test_benchmark_patch_point_resolves(layer, module_name, attr):
    owner, leaf, fn = tracing._resolve(module_name, attr)
    assert getattr(owner, leaf) is fn and callable(fn)
    # resolving must not have installed a wrapper
    assert not hasattr(fn, "__wrapped__")


def test_every_benchmark_shim_import_is_a_patch_point():
    # an import kept only for the benchmark to patch must still be patched
    shims = [
        (f"adr_lab.{path.stem}", name.strip())
        for path in sorted(SRC.glob("*.py"))
        for line in path.read_text().splitlines()
        if (match := SHIM.match(line))
        for name in match.group(2).split(",")
    ]
    assert shims, "no shim imports found; the marker comment changed?"
    points = {(module_name, attr) for _, module_name, attr in tracing.PATCH_POINTS}
    assert [shim for shim in shims if shim not in points] == []


def test_retained_bytes_reads_fields_and_slices_of_run_results():
    # the traced runs record _retained_bytes of what run2d and run3d return
    flat = run2d(Field.zeros(Grid((6, 7), (1.0, 1.0))),
                 TransportParams(u=(0.0, 0.0), k=(0.1, 0.1)), 0.01, 0.02, [0.0, 0.02])
    assert flat.slices == []
    assert tracing._retained_bytes(flat) == 2 * 6 * 7 * 8
    box = run3d(Field.zeros(Grid((5, 6, 7), (4.0, 5.0, 6.0)), 2),
                TransportParams(u=(0.0,) * 3, k=(0.1,) * 3), None, 0.5, 1.0, [0.0, 1.0],
                slice_axis="y", slice_index=2)
    # a 3-D series keeps no field, only its own copy of each y-plane
    assert box.fields == []
    assert all(p.base is None for p in box.slices)
    assert not np.shares_memory(*box.slices)
    # two snapshots of two species: one 5 x 7 y-plane each
    assert tracing._retained_bytes(box) == 2 * 2 * (5 * 7) * 8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--scale", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads([ln for ln in proc.stdout.splitlines() if ln.startswith("{")][-1])
    assert result["correct"] is True, result
