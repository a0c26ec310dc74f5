"""The public surface: every name has one import path, its own module."""

import ast
import importlib
import inspect
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import xpointsim

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(xpointsim.__path__)
    if not info.name.startswith("_")
)


def test_package_root_exposes_only_submodules():
    public = [name for name in vars(xpointsim) if not name.startswith("_")]
    assert [n for n in public if not inspect.ismodule(getattr(xpointsim, n))] == []


def test_plain_import_binds_the_submodules():
    # callers may do `import xpointsim` and then reach `xpointsim.ops` etc.
    names = ["array", "config", "device", "errors", "network", "ops", "perf", "report"]
    code = f"import xpointsim; [getattr(xpointsim, n) for n in {names!r}]"
    subprocess.run([sys.executable, "-c", code], check=True)


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_only_names_defined_in_the_module(name):
    module = importlib.import_module(f"xpointsim.{name}")
    foreign = []
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != module.__name__:
            foreign.append(f"{attr} from {obj.__module__}")
    assert foreign == []


def test_declared_dependencies_match_imports():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    imported = set()
    for path in (root / "src" / "xpointsim").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    imported -= set(sys.stdlib_module_names)
    assert imported == {re.match(r"[\w.-]+", spec).group() for spec in declared}
