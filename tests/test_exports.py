"""Every exported name resolves, so a deletion cannot leave a stale export;
importing the package, and simulating without the `ml` regime, loads no
scipy."""

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


def _scipy_modules_after(code):
    """Run `code` in a fresh interpreter; return the scipy modules it loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlte.__file__)))
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # scipy.special alone costs about 0.3 s of start-up and 18 MB resident
    assert _scipy_modules_after("import mlte, mlte.cli") == "[]"


@pytest.mark.parametrize("regime", ["correct", "mainterms"])
def test_simulation_without_ml_loads_no_scipy(regime):
    code = (
        "from mlte.simengine import METHODS, ScenarioConfig, run_scenario\n"
        f"cfg = ScenarioConfig.named('t-y-', n=200, reps=1, seed=3, regime={regime!r},"
        " bootstrap_reps=5)\n"
        "report = run_scenario(cfg, methods=list(METHODS))\n"
        "assert len(METHODS) == 8 and not report.method_failures, report.method_failures"
    )
    assert _scipy_modules_after(code) == "[]"
