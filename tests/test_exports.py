import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rankci

MODULES = [rankci] + [importlib.import_module(f"rankci.{info.name}")
                      for info in pkgutil.iter_modules(rankci.__path__)]


def _load_tracer():
    """``perfbench/tracer.py``, loaded by path: ``perfbench`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


@pytest.mark.parametrize("patch", TRACER.PATCHES, ids=lambda patch: f"{patch[0]}.{patch[1]}")
def test_every_traced_name_resolves(patch):
    # the benchmark's tracer replaces each name in its owner's namespace, as
    # Tracer.installed does; a renamed or moved name would stop a traced run
    module_name, attr, _, _ = patch
    owner, name = TRACER._resolve(module_name, attr)
    assert name in owner.__dict__
