import importlib
import pkgutil

import pytest

import rankci

MODULES = [rankci] + [importlib.import_module(f"rankci.{info.name}")
                      for info in pkgutil.iter_modules(rankci.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
