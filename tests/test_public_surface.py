"""Every exported name resolves, so a deletion cannot leave a dangling export,
the README's library example runs, and the CLI imports numpy only."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
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
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_import_loads_neither_scipy_nor_mpmath():
    """Importing the CLI module pulls in neither scipy nor mpmath: importing
    scipy.linalg alone adds about 0.17 s and 26 MB to a fresh process, which
    every subcommand would pay.  Tabulated profiles import scipy.interpolate
    when they are loaded, not before."""
    src = Path(equichar.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    code = "import json, sys, equichar.app; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = {name.split(".")[0] for name in json.loads(out)}
    assert "numpy" in loaded
    assert "scipy" not in loaded and "mpmath" not in loaded
