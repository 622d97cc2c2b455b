"""Every exported name resolves, so a deletion cannot leave a stale export;
importing the package stays cheap."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import mlte

MODULES = ["mlte"] + [f"mlte.{info.name}" for info in pkgutil.iter_modules(mlte.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


def test_import_loads_neither_scipy_stats_nor_scipy_optimize():
    # scipy.stats and scipy.optimize cost about 0.8 s of start-up together
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlte.__file__)))
    code = (
        "import sys, mlte, mlte.cli\n"
        "print(sorted(m for m in sys.modules\n"
        "      if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
