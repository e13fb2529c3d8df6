"""Every exported name resolves, and the package exports only what its modules do."""

import importlib
import pkgutil
import types

import pytest

import kgl

MODULES = [importlib.import_module(f"kgl.{m.name}") for m in pkgutil.iter_modules(kgl.__path__)]


@pytest.mark.parametrize("module", [kgl] + MODULES, ids=lambda m: m.__name__)
def test_every_name_in_all_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing


def test_the_package_exports_only_what_a_module_exports():
    exported = {}
    for module in MODULES:
        for name in getattr(module, "__all__", []):
            exported.setdefault(name, []).append(getattr(module, name))
    for name in kgl.__all__:
        value = getattr(kgl, name)
        if isinstance(value, types.ModuleType) or name == "__version__":
            continue
        assert any(value is v for v in exported.get(name, [])), name
