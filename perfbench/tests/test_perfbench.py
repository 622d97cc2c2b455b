"""Tests of the benchmark itself, at reduced sizes.

Run with: PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import collections
import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import mlte.simengine  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "sim-correct-boot": {"n": 200, "reps_per_study": 2, "bootstrap_reps": 3},
    "estimate-cli": {"n": 300, "bootstrap": 3},
}


def tiny(name):
    return {**run.SPEC["workloads"][name], **TINY[name]}


def test_workloads_match_contract():
    assert sorted(run.SPEC["workloads"]) == sorted(w["name"] for w in CONTRACT["workloads"])
    layer_metrics = [m for layer in run.SPEC["layers"] for m in layer["metrics"]]
    assert sorted(layer_metrics) == sorted(m["name"] for m in CONTRACT["per_layer"])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke(name, trace, tmp_path):
    result = run.measure(name, tiny(name), seed=5, seconds=0, trace=trace,
                         workdir=str(tmp_path), setup_samples=1)
    assert result["correct"], result["problems"]
    assert result["attempted"] > 0 and result["failed"] == 0
    wanted = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {name: unit for name, (_, unit) in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    if not trace:
        assert all(value > 0 for value, _ in result["metrics"].values())


@pytest.mark.parametrize("name", ("sim-correct-boot", "estimate-cli"))
def test_traced_report_bytes_identical(name, tmp_path):
    wl = workloads.Workload(name, tiny(name), 7, str(tmp_path))
    untraced = wl.study(0)[0]
    with Tracer() as tracer:
        traced = wl.study(0)[0]
    assert tracer.spans and traced == untraced


def span_counts(tracer):
    return collections.Counter(span[0] for span in tracer.spans)


def test_call_counts_correct_regime():
    """correct regime, B=5, 2 replications, pairs (2,1) and (3,1)."""
    B, reps, pairs = 5, 2, 2
    cfg = mlte.simengine.ScenarioConfig.named(
        "t-y-", n=200, reps=reps, seed=3, regime="correct", bootstrap_reps=B
    )
    with Tracer() as tracer:
        mlte.simengine.run_scenario(cfg)
    counts = span_counts(tracer)
    assert counts["learners.fit_outcome"] == reps * (1 + B) == 12
    assert counts["glm.fit_ols"] == reps * (1 + B)
    assert counts["tabular.take"] == reps * B
    assert counts["learners.fit_propensity"] == counts["glm.fit_multinomial"] == reps
    assert counts["glm.fit_logistic"] == reps * pairs * 2  # one TMLE fluctuation per level
    assert counts["matching.build_matches"] == reps
    assert counts["simengine.simulate_dataset"] == counts["simengine.replication"] == reps
    assert counts["outcome_methods.stan"] == reps
    for layer in ("outcome_methods.crude", "outcome_methods.tmle", "weighting.ipw",
                  "weighting.ow", "weighting.aow", "matching.match", "matching.bcm"):
        assert counts[layer] == reps * pairs, layer
    assert counts["weighting.overlap_weights"] == reps
    assert counts["simengine.compute_metrics"] == 8 * pairs
    # per replication: outcome fit 1, propensity 1, stan point estimate 2 per
    # pair, each resample 1 fit + 2 per pair, bcm / tmle / aow 2 per pair
    assert counts["tabular.design_matrix"] == reps * (1 + 1 + 2 * pairs + B * (1 + 2 * pairs) + 3 * 2 * pairs)
    metrics = tracer.layer_metrics(wall_s=1.0, reps=reps)
    assert metrics["outcome_methods.stan.refits"][0] == B
    assert metrics["learners.fit_outcome.calls"][0] == 1 + B


def test_call_counts_ml_super_learner():
    """ml outcome model, B=2, one replication, stan only (plus crude)."""
    B, folds, candidates = 2, 10, 3
    cfg = mlte.simengine.ScenarioConfig.named(
        "t-y-", n=200, reps=1, seed=3, regime="ml", bootstrap_reps=B
    )
    with Tracer() as tracer:
        mlte.simengine.run_scenario(cfg, methods=["stan"])
    counts = span_counts(tracer)
    fits = 1 + B
    assert counts["learners.fit_outcome"] == counts["learners.fit_super_learner"] == fits
    assert counts["glm.fit_ols"] == fits * candidates * (folds + 1)
    assert counts["tabular.take"] == fits * candidates * folds + B
    assert counts["learners.fit_propensity"] == 0


def test_call_counts_estimate_cli(tmp_path):
    params = tiny("estimate-cli")
    wl = workloads.Workload("estimate-cli", params, 4, str(tmp_path))
    with Tracer() as tracer:
        wl.study(0)
    counts = span_counts(tracer)
    assert counts["cli.main"] == counts["tabular.load_csv"] == 1
    assert counts["learners.fit_outcome"] == 1 + params["bootstrap"]
    assert counts["learners.fit_propensity"] == 1
    assert counts["reporting.render"] == 8  # one all-pairs table per method
    assert tracer.layer_metrics(1.0, 1)["learners.stepwise.fits_per_group"][0] >= 1.0


def test_tracer_restores_originals():
    original = mlte.simengine.fit_outcome
    with Tracer():
        assert mlte.simengine.fit_outcome is not original
        assert mlte.learners.fit_outcome is mlte.simengine.fit_outcome
    assert mlte.simengine.fit_outcome is original


def test_reference_comparison_tolerance():
    ref = json.loads((BENCH / "reference" / "sim-correct-boot.json").read_text())["report"]
    tol = run.SPEC["tolerance"]
    assert workloads.compare_to_reference("scenario", ref, ref, tol)[0] == 0
    near = copy.deepcopy(ref)
    near["rows"][3]["bias"] *= 1 + 1e-12
    assert workloads.compare_to_reference("scenario", ref, near, tol)[0] == 0
    off = copy.deepcopy(ref)
    off["rows"][3]["bias"] += 1e-3
    bad, paths = workloads.compare_to_reference("scenario", ref, off, tol)
    assert bad == ref["reps"]
    assert paths == [("rows", 3, "bias")]
    off["truths"]["tau21"]["population"] += 1.0
    assert workloads.compare_to_reference("scenario", ref, off, tol)[0] == len(ref["rows"]) * ref["reps"]


def test_exits_nonzero_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"][1:], "--workload", "sim-correct-boot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
