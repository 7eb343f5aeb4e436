import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import adr_lab
from adr_lab import _native

SUBMODULES = [f"adr_lab.{m.name}" for m in pkgutil.iter_modules(adr_lab.__path__)]
MODULES = ["adr_lab", *SUBMODULES]
# every submodule but the CLI is re-exported by the package
LIBRARY = [m for m in SUBMODULES if m != "adr_lab.cli"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks `from module import *`
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []


def test_package_exports_each_library_module_list():
    lists = [getattr(importlib.import_module(m), "__all__", None) for m in LIBRARY]
    assert [m for m, names in zip(LIBRARY, lists) if names is None] == []
    joined = [name for names in lists for name in names]
    # one owner per public name
    assert sorted({n for n in joined if joined.count(n) > 1}) == []
    assert adr_lab.__all__ == joined


def test_package_data_ships_the_compiled_library_source():
    # the loader compiles _native._SOURCE on first use, so an installed
    # package must carry it
    config = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    package = Path(adr_lab.__file__).parent
    shipped = {path for pattern in config["tool"]["setuptools"]["package-data"]["adr_lab"]
               for path in package.glob(pattern)}
    assert _native._SOURCE in shipped
