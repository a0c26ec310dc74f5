"""The public surface: every name has one import path, its own module."""

import importlib
import inspect
import pkgutil
import subprocess
import sys

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
