import importlib
import pkgutil

import pytest

import adr_lab

MODULES = ["adr_lab", *(f"adr_lab.{m.name}" for m in pkgutil.iter_modules(adr_lab.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry breaks `from module import *`
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(mod, name)] == []
