"""Every exported name resolves, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import equichar

MODULES = sorted(m.name for m in pkgutil.iter_modules(equichar.__path__))


def test_package_imports():
    assert importlib.reload(equichar).__version__


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"equichar.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
