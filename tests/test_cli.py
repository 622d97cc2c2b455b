"""Command-line interface: argument resolution, output shapes, provenance."""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import mlte
import mlte.simengine
from mlte.cli import _provenance_keys, main
from mlte.outcome_methods import estimate_crude
from mlte.simengine import PlasmodeConfig, ScenarioConfig
from mlte.tabular import Dataset, load_csv
from test_golden import GOLDEN
from test_learners import binary_and_constant_data, rare_value_data

DEMO_CSV, BINARY_CSV = str(GOLDEN / "continuous.csv"), str(GOLDEN / "binary.csv")
DEMO_ARGS = ["--treatment", "trt", "--outcome", "resp", "--covariates", "x1,x2,x3"]


def run_cli(argv):
    return main(argv)


def write_csv(path, data):
    """`data` as a CSV file at `path` with columns t, y and its covariates."""
    with open(path, "w") as fh:
        fh.write(",".join(("t", "y") + data.columns) + "\n")
        for t, y, x in zip(data.t, data.y, data.X):
            fh.write(",".join(repr(c) for c in [int(t), float(y), *map(float, x)]) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_crude_matches_library(tmp_path, capsys):
    out = tmp_path / "est.json"
    rc = run_cli(
        ["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude",
         "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    data = load_csv(DEMO_CSV, "trt", "resp", ["x1", "x2", "x3"])
    (table,) = payload["tables"]
    assert table["method"] == "crude"
    for row in table["rows"]:
        want = estimate_crude(data, tuple(row["pair"]))
        assert row["estimate"] == pytest.approx(want.tau_hat, abs=1e-12)
        assert row["se"] == pytest.approx(want.se, abs=1e-12)
    assert {r["label"] for r in table["rows"]} == {"2 vs 1", "3 vs 1", "3 vs 2"}


def test_estimate_env_fallback_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("MLTE_METHODS", "crude")
    monkeypatch.setenv("MLTE_SEED", "7")
    rc = run_cli(["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["seed"] == 7
    assert [t["method"] for t in payload["tables"]] == ["crude"]

    rc = run_cli(
        ["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "ow", "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [t["method"] for t in payload["tables"]] == ["ow"]


def test_estimate_unknown_method_fails(capsys):
    rc = run_cli(["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crud"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_requires_data(capsys):
    rc = run_cli(["estimate", "--methods", "crude"])
    assert rc == 1
    assert "requires --data" in capsys.readouterr().err


def test_estimate_csv_input_requires_column_flags(capsys):
    rc = run_cli(["estimate", "--data", DEMO_CSV, "--methods", "crude"])
    assert rc == 1
    assert "--covariates" in capsys.readouterr().err


@pytest.mark.parametrize("cell, text, column", ((2, "nan", "x1"), (1, "nan", "resp"), (4, "inf", "x3")),
                         ids=("nan covariate", "nan outcome", "inf covariate"))
def test_estimate_rejects_a_nan_cell(tmp_path, capsys, cell, text, column):
    lines = open(DEMO_CSV).read().splitlines()
    cells = lines[3].split(",")
    cells[cell] = text
    lines[3] = ",".join(cells)
    path = tmp_path / "nan.csv"
    path.write_text("\n".join(lines) + "\n")
    rc = run_cli(["estimate", "--data", str(path), *DEMO_ARGS, "--methods", "crude"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: line 4: non-finite cell {text!r} in column {column!r}\n"


@pytest.mark.parametrize("covariates, message", (
    ("x1,resp", "covariate 'resp' is the outcome column"),
    ("x1,trt", "covariate 'trt' is the treatment column"),
    ("x1,x1,x2", "column 'x1' is named more than once"),
))
def test_estimate_rejects_a_covariate_that_repeats_or_names_another_role(
    capsys, covariates, message
):
    rc = run_cli(["estimate", "--data", DEMO_CSV, "--treatment", "trt", "--outcome", "resp",
                  "--covariates", covariates, "--methods", "ipw,aow", "--bootstrap", "0"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_estimate_rejects_one_column_as_treatment_and_outcome(capsys):
    rc = run_cli(["estimate", "--data", BINARY_CSV, "--treatment", "resp", "--outcome", "resp",
                  "--covariates", "x1,x2,x3", "--methods", "crude,ipw,aow", "--format", "csv"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: column 'resp' is both the treatment and the outcome column\n"


def test_estimate_rejects_a_dataset_without_covariates(tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"columns": [], "X": [[]] * 30, "T": [1, 2, 3] * 10,
                                "Y": np.linspace(0.0, 1.0, 30).tolist()}))
    rc = run_cli(["estimate", "--data", str(path), "--methods", "crude,match"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err == "error: no covariate columns\n"


def test_out_file_is_utf8_in_an_ascii_locale(tmp_path, ascii_locale_env):
    out = tmp_path / "out.csv"
    argv = ["estimate", "--data", str(GOLDEN / "labels.csv"), "--treatment", "arm", "--outcome",
            "y", "--covariates", "x1,x2", "--methods", "crude", "--format", "csv", "--out", str(out)]
    proc = subprocess.run(
        [sys.executable, "-m", "mlte.cli", *argv], env=ascii_locale_env, capture_output=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "traité vs contrôle" in out.read_bytes().decode("utf-8")


def test_column_names_are_utf8_in_an_ascii_locale(tmp_path, capsys, ascii_locale_env):
    # under the C locale the program reads its arguments and MLTE_ variables
    # with surrogate escapes; the names must still match the UTF-8 header
    text = (GOLDEN / "labels.csv").read_text(encoding="utf-8-sig")
    data = tmp_path / "k2.csv"
    data.write_text(text.replace("arm,y,x1,x2", "bras_é,résultat,x1,x_ü", 1), encoding="utf-8")
    argv = ["estimate", "--data", str(data), "--treatment", "bras_é", "--outcome", "résultat",
            "--methods", "crude", "--format", "csv"]
    assert main(argv + ["--covariates", "x1,x_ü"]) == 0
    env = dict(ascii_locale_env, MLTE_COVARIATES="x1,x_ü")
    proc = subprocess.run([sys.executable, "-m", "mlte.cli", *argv], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out.encode("utf-8")


def test_labels_that_read_as_one_number_fail_alike_under_every_hash_seed(tmp_path, ascii_locale_env):
    # the arms `1` and `1.0` sort equal, so their order followed the string hash
    rng = np.random.default_rng(3)
    rows = "".join(f"{arm},{rng.normal()!r},{rng.normal()!r}\n" for arm in ("1", "1.0", "2") * 10)
    path = tmp_path / "same.csv"
    path.write_text("trt,y,x\n" + rows)
    argv = ["estimate", "--data", str(path), "--treatment", "trt", "--outcome", "y",
            "--covariates", "x", "--methods", "crude", "--format", "csv"]
    first, second = (
        subprocess.run([sys.executable, "-m", "mlte.cli", *argv], capture_output=True,
                       env=dict(ascii_locale_env, PYTHONHASHSEED=seed))
        for seed in ("0", "3")
    )
    assert (first.stdout, first.stderr) == (second.stdout, second.stderr)
    assert first.returncode == second.returncode == 1
    assert first.stderr == b"error: treatment labels '1' and '1.0' read as the same number\n"


def test_estimate_warns_when_estimands_mixed(capsys):
    rc = run_cli(
        ["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude,ow", "--format", "csv"]
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


@pytest.mark.parametrize("command", ("estimate", "diagnose", "plasmode"))
def test_json_input_rejects_the_csv_column_flags(command, tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(3)
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"columns": ["a", "b"], "X": rng.normal(size=(40, 2)).tolist(),
                                "T": [1, 2] * 20, "Y": [int(v) for v in rng.integers(0, 2, 40)]}))
    tail = "; a .json dataset names its own columns\n"
    assert run_cli([command, "--data", str(path), "--covariates", "zzz", "--treatment", "nope"]) == 1
    assert capsys.readouterr().err == f"error: only csv input takes --treatment, --covariates{tail}"
    monkeypatch.setenv("MLTE_OUTCOME", "y")  # a value from the environment counts alike
    assert run_cli([command, "--data", str(path)]) == 1
    assert capsys.readouterr().err == f"error: only csv input takes --outcome{tail}"


def test_estimate_ml_regime_with_rare_covariate_values(tmp_path, capsys):
    path = write_csv(tmp_path / "rare.csv", rare_value_data())
    rc = run_cli(["estimate", "--data", path, "--treatment", "t", "--outcome", "y",
                  "--covariates", "x,g", "--regime", "ml", "--bootstrap", "5", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == {}
    assert len(payload["tables"]) == 8


@pytest.mark.parametrize("seed", range(5))
def test_estimate_ml_regime_with_only_binary_and_constant_covariates(tmp_path, capsys, seed):
    # the super learner's cross-validated columns are nearly equal, where
    # its non-negative least squares can fail; every method still reports
    path = write_csv(tmp_path / "flat.csv", binary_and_constant_data())
    rc = run_cli(["estimate", "--data", path, "--treatment", "t", "--outcome", "y",
                  "--covariates", "b,c", "--regime", "ml", "--bootstrap", "20",
                  "--seed", str(seed), "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failures"] == {}
    assert len(payload["tables"]) == 8


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


def test_plasmode_runs_from_csv_source(tmp_path, capsys):
    out = tmp_path / "pl.json"
    rc = run_cli(
        ["plasmode", "--data", BINARY_CSV, *DEMO_ARGS, "--methods", "crude", "--n", "150",
         "--reps", "2", "--seed", "11", "--format", "json", "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "plasmode"
    assert payload["config"]["resample_size"] == 150
    assert {r["parameter"] for r in payload["rows"]} == {"tau21", "tau31", "tau32"}


@pytest.mark.parametrize("data, flags, message", (
    (BINARY_CSV, ["--regime", "correct"],
     "plasmode regime must be 'mainterms' or 'ml' (no known truth spec)"),
    (DEMO_CSV, ["--regime", "ml"], "plasmode outcome generator must be binary"),
    (BINARY_CSV, ["--n", "5000"], "resample_size must be in [1, 10 * source n]"),
), ids=("correct-regime", "continuous-source", "resample-size"))
def test_plasmode_rejects_a_bad_plan_before_fitting(capsys, monkeypatch, data, flags, message):
    # the ml generator pair takes seconds to fit; a bad plan must not wait for it
    def no_fit(*args, **kwargs):
        raise AssertionError("a generator was fitted for a rejected plan")

    monkeypatch.setattr(mlte.simengine, "fit_outcome", no_fit)
    monkeypatch.setattr(mlte.simengine, "fit_propensity", no_fit)
    rc = run_cli(["plasmode", "--data", data, *DEMO_ARGS, *flags])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_on_unconfounded_assignment(tmp_path, capsys):
    rng = np.random.default_rng(8)
    n = 400
    t = rng.integers(1, 4, n)
    draws = rng.normal(size=(n, 3))
    path = write_csv(tmp_path / "flat.csv", Dataset.from_arrays(
        draws[:, 1:], t, draws[:, 0], columns=("x1", "x2")))
    rc = run_cli(
        ["diagnose", "--data", path, "--treatment", "t", "--outcome", "y",
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


@pytest.mark.parametrize("command", ("estimate", "diagnose", "plasmode"))
def test_a_single_treatment_level_is_rejected(command, tmp_path, capsys):
    rng = np.random.default_rng(2)
    csv_path = tmp_path / "one.csv"
    rows = (f"a,{int(rng.random() < 0.5)},{rng.normal()!r}\n" for _ in range(60))
    csv_path.write_text("arm,y,x\n" + "".join(rows))
    json_path = tmp_path / "one.json"
    json_path.write_text(json.dumps({"columns": ["x"], "X": rng.normal(size=(30, 1)).tolist(),
                                     "T": [1] * 30, "Y": [int(v) for v in rng.integers(0, 2, 30)]}))
    for argv, where in (
        (["--data", str(csv_path), "--treatment", "arm", "--outcome", "y", "--covariates", "x"],
         "column 'arm'"),
        (["--data", str(json_path)], "key 'T'"),
    ):
        assert run_cli([command, *argv]) == 1
        assert capsys.readouterr().err == (
            f"error: treatment {where} has a single level; at least 2 levels are needed\n"
        )


# ---------------------------------------------------------------------------
# flag table and environment fallback


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


class _Captured(Exception):
    """Raised by a stubbed study runner to hand back the config it got."""


def _study_config(argv, monkeypatch, runner):
    """The config object the command builds from `argv` and passes to the
    study runner `runner`, which is not run."""

    def capture(cfg, **kwargs):
        raise _Captured(cfg)

    monkeypatch.setattr(mlte.cli, runner, capture)
    with pytest.raises(_Captured) as exc:
        main(argv)
    return exc.value.args[0]


def test_every_study_setting_comes_from_a_flag(monkeypatch):
    # a config field that no flag sets or derives is a knob only tests turn
    flags = ["--regime", "ml", "--n", "150", "--reps", "3", "--m", "2", "--bootstrap", "4",
             "--seed", "5"]
    common = dict(reps=3, seed=5, regime="ml", bootstrap_reps=4, m=2)
    scen = _study_config(["simulate", "--scenario", "t+y-", *flags], monkeypatch, "run_scenario")
    by_flag = dict(common, n=150, treatment_strength="t+", outcome_strength="y-")
    assert {f.name for f in dataclasses.fields(ScenarioConfig) if f.init} == set(by_flag)
    assert {name: getattr(scen, name) for name in by_flag} == by_flag

    plas = _study_config(["plasmode", "--data", BINARY_CSV, *DEMO_ARGS, *flags], monkeypatch,
                         "run_plasmode")
    by_flag = dict(common, resample_size=150)
    derived = {"source"}  # from --data
    assert {f.name for f in dataclasses.fields(PlasmodeConfig) if f.init} == set(by_flag) | derived
    assert {name: getattr(plas, name) for name in by_flag} == by_flag
    np.testing.assert_array_equal(plas.source.X, load_csv(BINARY_CSV, "trt", "resp", ["x1", "x2", "x3"]).X)


@pytest.mark.parametrize("flag,value", [("regime", "bogus"), ("format", "xml"), ("m", "two")])
def test_environment_values_are_validated_like_flags(capsys, monkeypatch, flag, value):
    argv = ["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude"]
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


def test_environment_ignores_flags_the_command_does_not_take(capsys, monkeypatch):
    monkeypatch.setenv("MLTE_SCENARIO", "bogus")
    monkeypatch.setenv("MLTE_REPS", "not a number")
    rc = run_cli(["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude",
                  "--format", "json"])
    assert rc == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "scenario" not in config and "reps" not in config


def test_environment_value_starting_with_dash_reaches_flag(capsys, monkeypatch):
    # "-3" is parsed as the value of --seed, not as an option, so argparse
    # range-checks it like a command-line value
    monkeypatch.setenv("MLTE_SEED", "-3")
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", "--scenario", "t-y-", "--n", "50", "--reps", "1",
                 "--methods", "crude"])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("estimate", "simulate", "plasmode"))
@pytest.mark.parametrize("source", ("flag", "env"))
def test_empty_method_list_is_an_error(capsys, monkeypatch, command, source):
    argv = [command, "--reps", "1"] if command != "estimate" else [command]
    argv += ["--scenario", "t-y-"] if command == "simulate" else ["--data", DEMO_CSV, *DEMO_ARGS]
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
    ("n", "0", "simulate"), ("reps", "0", "simulate"), ("seed", "-3", "simulate"),
])
@pytest.mark.parametrize("source", ("flag", "env"))
def test_out_of_range_counts_exit_2(capsys, monkeypatch, flag, value, command, source):
    if command == "simulate":
        argv = [command, "--scenario", "t-y-", "--n", "50", "--reps", "1", "--methods", "crude"]
    else:
        argv = [command, "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude"]
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


def test_estimate_has_no_workers_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude", "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("bootstrap", ("0", "1"))
def test_estimate_json_writes_null_without_bootstrap_variance(capsys, bootstrap):
    argv = ["estimate", "--data", DEMO_CSV, *DEMO_ARGS, "--methods", "crude,stan",
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
