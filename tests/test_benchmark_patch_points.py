"""The benchmark's traced runs wrap package functions by module and name.

perfbench/tracing.py lists those names in PATCH_POINTS; this test resolves
every entry without installing any wrapper, so renaming a function the
benchmark patches fails here and not only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
