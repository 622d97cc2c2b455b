"""Shared fixtures: replication studies for the acceptance tests, and the
environment of a command-line subprocess in an ASCII locale; and the one
Hypothesis profile of the suite.

Each study fixture runs one full replication study once per session, on a
process pool of one worker per core; the acceptance tests read several
gated quantities from the same report.  Everything is deterministic given
the pinned seeds, and reports are identical across worker counts, so the
asserted numbers are stable run to run.  So are the `@given` tests: one
profile derandomizes them, with no example database and no deadline.
"""

import os

import pytest
from hypothesis import settings

import mlte
from mlte.simengine import ScenarioConfig, run_scenario

settings.register_profile("mlte", derandomize=True, database=None, deadline=None)
settings.load_profile("mlte")


def scenario_report(scenario, seed, regime, methods=None, n=1000, reps=500, bootstrap_reps=0):
    cfg = ScenarioConfig.named(
        scenario, n=n, reps=reps, seed=seed, regime=regime, bootstrap_reps=bootstrap_reps
    )
    return run_scenario(cfg, methods=methods, workers=0)


@pytest.fixture
def ascii_locale_env():
    """Environment of a `python -m mlte.cli` subprocess under the C locale,
    with neither UTF-8 mode nor locale coercion: this package first on
    PYTHONPATH, no MLTE_ flag fallbacks, and COLUMNS=80."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(mlte.__file__)))
    env = {name: value for name, value in os.environ.items() if not name.startswith("MLTE_")}
    env.update(
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        COLUMNS="80", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C",
    )
    return env


@pytest.fixture(scope="session")
def weak_confounding_correct_report():
    """All estimators with correct working models under weak confounding,
    bootstrap inference enabled for the standardization rows."""
    return scenario_report("t-y-", seed=101, regime="correct", bootstrap_reps=200)


@pytest.fixture(scope="session")
def strong_confounding_correct_report():
    return scenario_report("t+y+", seed=102, regime="correct")


@pytest.fixture(scope="session")
def strong_confounding_mainterms_report():
    """Deliberately misspecified parametric working models under strong
    confounding: main-terms designs omit the interaction and square terms."""
    return scenario_report("t+y+", seed=103, regime="mainterms")


@pytest.fixture(scope="session")
def weak_outcome_mainterms_stan_report():
    return scenario_report("t+y-", seed=104, regime="mainterms", methods=["stan"])


@pytest.fixture(scope="session")
def weak_confounding_ml_report():
    return scenario_report(
        "t-y-",
        seed=105,
        regime="ml",
        methods=["stan", "ipw", "bcm", "tmle", "ow", "aow"],
    )


@pytest.fixture(scope="session")
def small_n_correct_ow_report():
    return scenario_report(
        "t-y-", seed=106, regime="correct", n=500, methods=["ow", "aow"]
    )
