"""Every exported name resolves, so a deletion cannot leave a dangling export,
and the README's library example runs."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_example_runs(capsys):
    """The one python block of README.md runs as written, so the example
    cannot drift from the signatures it calls."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2
