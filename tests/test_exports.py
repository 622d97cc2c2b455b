"""Every exported name resolves, so a deletion cannot leave a stale export;
every annotation resolves; no command or code path loads scipy, which only
the tests use, or numpy.ma, and only a study on more than one worker loads
the process-pool module."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import pytest

import mlte

MODULES = ["mlte"] + [f"mlte.{info.name}" for info in pkgutil.iter_modules(mlte.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"{name}.__all__ lists missing {export!r}"


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    # annotations are strings under `from __future__ import annotations`, so
    # a name used only in an annotation must still be imported
    module = importlib.import_module(name)
    defined = [obj for obj in vars(module).values()
               if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == name]
    unresolved = []
    for obj in defined:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__qualname__}: {exc}")
    assert not unresolved, unresolved


def test_pyproject_reads_the_version_from_the_package():
    # the version lives only in mlte/_version.py; setuptools reads it from there
    from setuptools.config.pyprojecttoml import read_configuration

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(mlte.__file__))))
    with warnings.catch_warnings():  # [tool.setuptools] support is flagged as beta
        warnings.simplefilter("ignore")
        config = read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == mlte.__version__ == "0.1.0"


# packages no serial run needs: scipy, numpy.ma (np.unique and np.quantile
# load it, about 1.5 MB resident) and the process-pool module
_UNNEEDED = ("scipy", "numpy.ma", "concurrent.futures")


def _unneeded_modules_after(code):
    """Run `code` in a fresh interpreter; return the modules it loaded under
    the packages in `_UNNEEDED`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlte.__file__)))
    code += (
        "\nimport sys\nprint(sorted(m for m in sys.modules"
        f" if any(m == p or m.startswith(p + '.') for p in {_UNNEEDED!r})))"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy():
    # scipy.special alone costs about 0.3 s of start-up and 18 MB resident;
    # the process-pool module 5-7.5 ms and 0.3 MB
    assert _unneeded_modules_after("import mlte, mlte.cli") == "[]"


@pytest.mark.parametrize("regime", ["correct", "mainterms"])
def test_simulation_without_ml_loads_no_scipy(regime):
    # a serial study, whose first multinomial fit used to load numpy.ma
    code = (
        "from mlte.simengine import METHODS, ScenarioConfig, run_scenario\n"
        f"cfg = ScenarioConfig.named('t-y-', n=200, reps=1, seed=3, regime={regime!r},"
        " bootstrap_reps=5)\n"
        "report = run_scenario(cfg, methods=list(METHODS))\n"
        "assert len(METHODS) == 8 and not report.method_failures, report.method_failures"
    )
    assert _unneeded_modules_after(code) == "[]"


def test_ml_commands_load_no_scipy():
    # together these reach every p-value and every super-learner stacking in
    # mlte; loading scipy.special and scipy.optimize for them costs 48 MB.
    # diagnose reads quantiles, and the one plasmode replication runs serially
    golden = Path(__file__).parent / "golden"
    columns = ["--treatment", "trt", "--outcome", "resp", "--covariates", "x1,x2,x3"]
    runs = [
        ["estimate", "--data", str(golden / "continuous.csv"), *columns, "--regime", "ml",
         "--bootstrap", "3", "--format", "json"],
        ["diagnose", "--data", str(golden / "continuous.csv"), *columns, "--regime", "ml"],
        ["plasmode", "--data", str(golden / "binary.csv"), *columns, "--regime", "ml",
         "--n", "150", "--reps", "1", "--bootstrap", "2", "--format", "json"],
    ]
    code = (
        "import contextlib, io, json\n"
        "from mlte.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(argv) == 0, argv\n"
        "    if argv[0] == 'estimate':\n"
        "        payload = json.loads(out.getvalue())\n"
        "        assert not payload['failures'] and len(payload['tables']) == 8, payload\n"
    )
    assert _unneeded_modules_after(code) == "[]"
