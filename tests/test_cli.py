"""Command-line interface: argument resolution, output shapes, provenance."""

import dataclasses
import json

import numpy as np
import pytest

from mlte.cli import _COMMANDS, _FLAGS, RunConfig, _provenance_keys, main
from mlte.outcome_methods import estimate_crude
from mlte.simengine import ScenarioConfig, simulate_dataset
from mlte.tabular import load_csv


@pytest.fixture(scope="module")
def demo_csv(tmp_path_factory):
    cfg = ScenarioConfig.named("t-y-", n=200, reps=1, seed=31, regime="mainterms")
    data = simulate_dataset(cfg, 0)
    path = tmp_path_factory.mktemp("data") / "demo.csv"
    with open(path, "w") as fh:
        fh.write("trt,resp,x1,x2,x3\n")
        for i in range(data.n):
            cells = [int(data.t[i]), float(data.y[i]), *map(float, data.X[i])]
            fh.write(",".join(repr(c) for c in cells) + "\n")
    return str(path)


DEMO_ARGS = ["--treatment", "trt", "--outcome", "resp", "--covariates", "x1,x2,x3"]


def run_cli(argv):
    return main(argv)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_crude_matches_library(demo_csv, tmp_path, capsys):
    out = tmp_path / "est.json"
    rc = run_cli(
        ["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    data = load_csv(demo_csv, "trt", "resp", ["x1", "x2", "x3"])
    (table,) = payload["tables"]
    assert table["method"] == "crude"
    for row in table["rows"]:
        want = estimate_crude(data, tuple(row["pair"]))
        assert row["estimate"] == pytest.approx(want.tau_hat, abs=1e-12)
        assert row["se"] == pytest.approx(want.se, abs=1e-12)
    assert {r["label"] for r in table["rows"]} == {"2 vs 1", "3 vs 1", "3 vs 2"}


def test_estimate_env_fallback_and_flag_priority(demo_csv, capsys, monkeypatch):
    monkeypatch.setenv("MLTE_METHODS", "crude")
    monkeypatch.setenv("MLTE_SEED", "7")
    rc = run_cli(["estimate", "--data", demo_csv, *DEMO_ARGS, "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 7
    assert [t["method"] for t in payload["tables"]] == ["crude"]

    rc = run_cli(
        ["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "ow", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [t["method"] for t in payload["tables"]] == ["ow"]


def test_estimate_unknown_method_fails(demo_csv, capsys):
    rc = run_cli(["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crud"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_requires_data(capsys):
    rc = run_cli(["estimate", "--methods", "crude"])
    assert rc == 1
    assert "requires --data" in capsys.readouterr().err


def test_estimate_csv_input_requires_column_flags(demo_csv, capsys):
    rc = run_cli(["estimate", "--data", demo_csv, "--methods", "crude"])
    assert rc == 1
    assert "--covariates" in capsys.readouterr().err


def test_estimate_rejects_correct_regime(demo_csv, capsys):
    rc = run_cli(
        ["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude", "--regime", "correct"]
    )
    assert rc == 1
    assert "simulation engine" in capsys.readouterr().err


def test_estimate_warns_when_estimands_mixed(demo_csv, capsys):
    rc = run_cli(
        ["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude,ow", "--format", "csv"]
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert "mix estimands" in captured.err
    assert captured.out.startswith("# mlte ")


def test_estimate_json_dataset_input(tmp_path, capsys):
    rng = np.random.default_rng(0)
    n = 60
    obj = {
        "columns": ["a", "b"],
        "X": rng.normal(size=(n, 2)).tolist(),
        "T": [int(v) for v in rng.integers(1, 3, n)],
        "Y": rng.normal(size=n).tolist(),
    }
    path = tmp_path / "d.json"
    path.write_text(json.dumps(obj))
    rc = run_cli(["estimate", "--data", str(path), "--methods", "crude", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["tables"][0]["rows"]) == 1  # two levels, one pair


# ---------------------------------------------------------------------------
# simulate / plasmode


def test_simulate_csv_shows_empty_std_for_single_rep(capsys):
    rc = run_cli(
        ["simulate", "--scenario", "t-y-", "--n", "150", "--reps", "1",
         "--methods", "crude", "--seed", "3", "--format", "csv"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "# mlte 0.1.0"
    assert lines[3] == "method,regime,parameter,bias,std,rmse,coverage,failures"
    row = lines[4].split(",")
    assert row[0] == "crude" and row[4] == ""  # std not estimable from one rep


def test_simulate_output_omits_execution_details(tmp_path):
    out = tmp_path / "sim.json"
    rc = run_cli(
        ["simulate", "--scenario", "t-y-", "--n", "120", "--reps", "2", "--methods", "crude",
         "--seed", "5", "--workers", "2", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    content = out.read_text()
    assert "workers" not in content
    assert str(out) not in content
    payload = json.loads(content)
    assert payload["config"]["n"] == 120
    assert payload["version"] == "0.1.0"


def test_simulate_requires_scenario(capsys):
    rc = run_cli(["simulate", "--reps", "1", "--methods", "crude"])
    assert rc == 1
    assert "requires --scenario" in capsys.readouterr().err


def test_simulate_writes_file_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    rc = run_cli(
        ["simulate", "--scenario", "t-y-", "--n", "120", "--reps", "2", "--methods", "crude",
         "--seed", "5", "--format", "csv", "--out", str(out)]
    )
    assert rc == 0
    assert out.read_text().startswith("# mlte ")
    # a human-readable summary still lands on stdout
    assert "scenario report" in capsys.readouterr().out


@pytest.fixture(scope="module")
def binary_csv(tmp_path_factory):
    """Plasmode sources need a binary outcome for the regeneration step."""
    cfg = ScenarioConfig.named("t-y-", n=200, reps=1, seed=37, regime="mainterms")
    data = simulate_dataset(cfg, 0)
    rng = np.random.default_rng(2)
    y = (rng.random(data.n) < 1.0 / (1.0 + np.exp(-0.5 * data.X[:, 0]))).astype(int)
    path = tmp_path_factory.mktemp("data") / "binary.csv"
    with open(path, "w") as fh:
        fh.write("trt,resp,x1,x2,x3\n")
        for i in range(data.n):
            cells = [int(data.t[i]), int(y[i]), *map(float, data.X[i])]
            fh.write(",".join(repr(c) for c in cells) + "\n")
    return str(path)


def test_plasmode_runs_from_csv_source(binary_csv, tmp_path, capsys):
    out = tmp_path / "pl.json"
    rc = run_cli(
        ["plasmode", "--data", binary_csv, *DEMO_ARGS, "--methods", "crude", "--n", "150",
         "--reps", "2", "--seed", "11", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "plasmode"
    assert payload["config"]["resample_size"] == 150
    assert {r["parameter"] for r in payload["rows"]} == {"tau21", "tau31", "tau32"}


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_on_unconfounded_assignment(tmp_path, capsys):
    rng = np.random.default_rng(8)
    n = 400
    path = tmp_path / "flat.csv"
    with open(path, "w") as fh:
        fh.write("t,y,x1,x2\n")
        t = rng.integers(1, 4, n)
        for i in range(n):
            draws = [float(rng.normal()) for _ in range(3)]
            fh.write(f"{t[i]}," + ",".join(repr(v) for v in draws) + "\n")
    rc = run_cli(
        ["diagnose", "--data", str(path), "--treatment", "t", "--outcome", "y",
         "--covariates", "x1,x2", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "multinomial" in payload["model"]
    assert len(payload["rows"]) == 3
    for row in payload["rows"]:
        assert 0.2 < row["median"] < 0.45
        assert row["below_1pct"] == 0
        assert row["arm_min"] >= row["min"]


def test_diagnose_text_has_provenance_header(demo_csv, capsys):
    rc = run_cli(["diagnose", "--data", demo_csv, *DEMO_ARGS])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# mlte ")
    assert "below_1pct" in out


def test_diagnose_json_reports_convergence(demo_csv, capsys):
    rc = run_cli(["diagnose", "--data", demo_csv, *DEMO_ARGS, "--format", "json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


# ---------------------------------------------------------------------------
# ml regime on an ordinal covariate


@pytest.fixture(scope="module")
def ordinal_csv(tmp_path_factory):
    """x3 is replaced by a 3-valued ordinal column, too few values for a spline."""
    rng = np.random.default_rng(21)
    n = 240
    x1 = rng.normal(size=n)
    grade = rng.integers(1, 4, n)
    t = 1 + (rng.random(n) < 0.3 + 0.1 * grade) + (rng.random(n) < 0.4)
    y = x1 + 0.5 * grade + t + rng.normal(size=n)
    path = tmp_path_factory.mktemp("ordinal") / "ordinal.csv"
    with open(path, "w") as fh:
        fh.write("trt,resp,x1,x2,x3\n")
        for i in range(n):
            cells = [int(t[i]), float(y[i]), float(x1[i]), float(rng.normal()), int(grade[i])]
            fh.write(",".join(repr(c) for c in cells) + "\n")
    return str(path)


def test_estimate_ml_regime_with_ordinal_covariate(ordinal_csv, capsys):
    rc = run_cli(["estimate", "--data", ordinal_csv, *DEMO_ARGS, "--regime", "ml",
                  "--bootstrap", "5", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == {}
    assert len(payload["tables"]) == 8
    for table in payload["tables"]:
        for row in table["rows"]:
            assert np.isfinite(row["estimate"]) and np.isfinite(row["se"])


def test_diagnose_ml_regime_with_ordinal_covariate(ordinal_csv, capsys):
    rc = run_cli(["diagnose", "--data", ordinal_csv, *DEMO_ARGS, "--regime", "ml", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert "stepwise" in payload["model"]
    for row in payload["rows"]:
        assert all(np.isfinite(row[key]) for key in ("min", "median", "max"))


@pytest.fixture(scope="module")
def rare_value_csv(tmp_path_factory):
    """x3 holds 1/2/3 about 100 times each plus one row each of 4 and 5: five
    distinct values, but its quantile knots coincide, so it is a main term."""
    rng = np.random.default_rng(5)
    n = 300
    grade = np.concatenate([np.repeat([1, 2, 3], [100, 99, n - 201]), [4, 5]])
    rng.shuffle(grade)
    x1 = rng.normal(size=n)
    t = rng.integers(1, 4, n)
    y = x1 + 0.3 * grade + t + rng.normal(size=n)
    path = tmp_path_factory.mktemp("rare") / "rare.csv"
    with open(path, "w") as fh:
        fh.write("trt,resp,x1,x2,x3\n")
        for i in range(n):
            cells = [int(t[i]), float(y[i]), float(x1[i]), float(rng.normal()), int(grade[i])]
            fh.write(",".join(repr(c) for c in cells) + "\n")
    return str(path)


def test_estimate_ml_regime_with_rare_covariate_values(rare_value_csv, capsys):
    rc = run_cli(["estimate", "--data", rare_value_csv, *DEMO_ARGS, "--regime", "ml",
                  "--bootstrap", "5", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == {}
    assert len(payload["tables"]) == 8


# ---------------------------------------------------------------------------
# flag table and environment fallback


def test_flag_table_matches_run_config():
    fields = {f.name for f in dataclasses.fields(RunConfig)} - {"command"}
    assert set(_FLAGS) == fields
    for spec in _COMMANDS.values():
        assert set(spec.flags) <= fields


def test_provenance_keys_derived_from_command_flags():
    assert _provenance_keys("estimate") == (
        "command", "data", "treatment", "outcome", "covariates", "methods",
        "regime", "m", "bootstrap", "seed",
    )
    assert _provenance_keys("simulate") == (
        "command", "scenario", "methods", "regime", "n", "reps", "m", "bootstrap", "seed",
    )
    assert _provenance_keys("plasmode") == (
        "command", "data", "treatment", "outcome", "covariates", "methods",
        "regime", "n", "reps", "m", "bootstrap", "seed",
    )
    assert _provenance_keys("diagnose") == (
        "command", "data", "treatment", "outcome", "covariates", "regime", "seed",
    )


@pytest.mark.parametrize("flag,value", [("regime", "bogus"), ("format", "xml"), ("m", "two")])
def test_environment_values_are_validated_like_flags(demo_csv, capsys, monkeypatch, flag, value):
    argv = ["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude"]
    with pytest.raises(SystemExit) as by_flag:
        main(argv + [f"--{flag}", value])
    flag_err = capsys.readouterr()
    monkeypatch.setenv("MLTE_" + flag.upper(), value)
    with pytest.raises(SystemExit) as by_env:
        main(argv)
    env_err = capsys.readouterr()
    assert by_env.value.code == by_flag.value.code != 0
    assert env_err.out == "" and env_err.err == flag_err.err
    assert f"argument --{flag}" in env_err.err


def test_environment_ignores_flags_the_command_does_not_take(demo_csv, capsys, monkeypatch):
    monkeypatch.setenv("MLTE_SCENARIO", "bogus")
    monkeypatch.setenv("MLTE_REPS", "not a number")
    rc = run_cli(["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude",
                  "--format", "json"])
    assert rc == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "scenario" not in config and "reps" not in config


def test_environment_value_starting_with_dash_reaches_flag(capsys, monkeypatch):
    monkeypatch.setenv("MLTE_SEED", "-3")
    rc = run_cli(["simulate", "--scenario", "t-y-", "--n", "50", "--reps", "1",
                  "--methods", "crude"])
    assert rc == 1
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("estimate", "simulate", "plasmode"))
@pytest.mark.parametrize("source", ("flag", "env"))
def test_empty_method_list_is_an_error(demo_csv, capsys, monkeypatch, command, source):
    argv = [command, "--reps", "1"] if command != "estimate" else [command]
    argv += ["--scenario", "t-y-"] if command == "simulate" else ["--data", demo_csv, *DEMO_ARGS]
    if source == "flag":
        argv += ["--methods", ""]
    else:
        monkeypatch.setenv("MLTE_METHODS", ",")
    rc = run_cli(argv)
    captured = capsys.readouterr()
    assert rc == 1
    assert "names no method" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag,value,command", [
    ("bootstrap", "-3", "estimate"), ("m", "0", "estimate"), ("workers", "-4", "simulate"),
])
@pytest.mark.parametrize("source", ("flag", "env"))
def test_out_of_range_counts_exit_2(demo_csv, capsys, monkeypatch, flag, value, command, source):
    if command == "simulate":
        argv = [command, "--scenario", "t-y-", "--n", "50", "--reps", "1", "--methods", "crude"]
    else:
        argv = [command, "--data", demo_csv, *DEMO_ARGS, "--methods", "crude"]
    if source == "flag":
        argv += [f"--{flag}", value]
    else:
        monkeypatch.setenv("MLTE_" + flag.upper(), value)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"argument --{flag}: must be at least" in captured.err


def test_estimate_has_no_workers_flag(demo_csv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("bootstrap", ("0", "1"))
def test_estimate_json_writes_null_without_bootstrap_variance(demo_csv, capsys, bootstrap):
    argv = ["estimate", "--data", demo_csv, *DEMO_ARGS, "--methods", "crude,stan",
            "--bootstrap", bootstrap]
    assert main(argv + ["--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    tables = {t["method"]: t["rows"] for t in payload["tables"]}
    for row in tables["stan"]:
        assert np.isfinite(row["estimate"])
        assert all(row[key] is None for key in ("se", "ci_low", "ci_high", "p", "p_adj"))
    # the csv of the same run holds the same numbers, empty where json has null
    assert main(argv + ["--format", "csv"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    numeric = ("estimate", "se", "ci_low", "ci_high", "p", "p_adj")
    from_csv = [
        [float(cells[header.index(key)]) if cells[header.index(key)] else None for key in numeric]
        for cells in (line.split(",") for line in lines[1:])
    ]
    from_json = [[row[key] for key in numeric] for rows in tables.values() for row in rows]
    assert from_csv == from_json


# ---------------------------------------------------------------------------
# global flags


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "mlte 0.1.0"


def test_missing_command_exits_nonzero():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code != 0
