"""Seeded inputs, one study per workload, and the checks on each study's output.

A *study* is one closed-loop request: a `run_scenario` call rendered to its
JSON report, or one in-process `mlte estimate` call.
Everything the program sees is generated here from the workload seed.
Program entry points are looked up on their modules at call time, so the
outside-in tracer's wrappers are the ones that run when tracing is on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import mlte.cli
import mlte.reporting
import mlte.simengine

COLUMNS = ("x1", "x2", "x3", "b1", "b2")
ARM_LABELS = ("control", "drug_a", "drug_b", "drug_c")
# additive arm effects (levels 1..4)
_CONTINUOUS_EFFECTS = (0.0, 0.5, 1.0, -0.3)


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def _covariates_and_arms(rng, n):
    """Three continuous and two binary covariates and a four-arm treatment
    from a multinomial logit with a square and an interaction term."""
    x1 = rng.normal(0.0, 1.0, n)
    x2 = rng.normal(0.5 * x1, 1.0)
    x3 = rng.gamma(2.0, 1.0, n)
    b1 = (rng.random(n) < 0.4).astype(float)
    b2 = (rng.random(n) < _expit(0.8 * x1)).astype(float)
    X = np.column_stack([x1, x2, x3, b1, b2])
    eta = np.column_stack(
        [
            np.zeros(n),
            0.3 + 0.5 * x1 - 0.3 * x2 + 0.4 * b1 + 0.2 * x1 * x1,
            -0.2 - 0.4 * x1 + 0.15 * x3 - 0.3 * b2,
            0.1 + 0.3 * x2 - 0.4 * b1 + 0.3 * b2 + 0.2 * x1 * b1,
        ]
    )
    p = np.exp(eta - eta.max(axis=1, keepdims=True))
    cum = (p / p.sum(axis=1, keepdims=True)).cumsum(axis=1)
    t = 1 + (rng.random(n)[:, None] > cum[:, :-1]).sum(axis=1)
    return X, t


def write_estimate_csv(path, seed, n, k=4):
    """Continuous-outcome CSV with string-labelled arms for `mlte estimate`."""
    if k != len(ARM_LABELS):
        raise ValueError(f"the CSV generator has {len(ARM_LABELS)} arms, not {k}")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    X, t = _covariates_and_arms(rng, n)
    x1, x2, x3, b1, b2 = X.T
    mean = (
        1.0 + 0.6 * x1 + 0.4 * x2 + 0.3 * x3 + 0.5 * b1 - 0.4 * b2
        + 0.3 * x1 * b1 + 0.1 * x2 * x2 + np.asarray(_CONTINUOUS_EFFECTS)[t - 1]
    )
    y = rng.normal(mean, 1.0)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(("arm", "y") + COLUMNS)
        for i in range(n):
            row = [ARM_LABELS[t[i] - 1], repr(float(y[i]))]
            row += [repr(float(v)) for v in X[i, :3]] + [str(int(v)) for v in X[i, 3:]]
            out.writerow(row)


def study_seed(seed, index):
    """Seed of the index-th study of a run; study 0 of the default seed is the
    reference study."""
    return seed * 100_000 + index


class Workload:
    """Inputs built once per run (set-up) and the studies run against them.

    `study(index)` returns (report text, reps, cells attempted,
    cells failed by the program's own failure accounting).
    """

    def __init__(self, name, params, seed, workdir):
        self.name = name
        self.params = params
        self.seed = seed
        self.kind = params["kind"]
        if self.kind == "estimate":
            self.csv_path = os.path.join(workdir, f"{name}-{seed}.csv")
            write_estimate_csv(self.csv_path, seed, params["n"], params["k"])
        elif self.kind != "scenario":
            raise ValueError(f"unknown workload kind {self.kind!r}")

    def study(self, index):
        if self.kind == "estimate":
            return self._estimate()
        p = self.params
        cfg = mlte.simengine.ScenarioConfig.named(
            p["scenario"], n=p["n"], reps=p["reps_per_study"], seed=study_seed(self.seed, index),
            regime=p["regime"], bootstrap_reps=p["bootstrap_reps"],
        )
        report = mlte.simengine.run_scenario(cfg, workers=p["workers"])
        text = mlte.reporting.render_report(report, fmt="json")
        attempted = len(report.rows) * report.reps
        failed = sum(row["failures"] for row in report.rows)
        return text, report.reps, attempted, failed

    def _estimate(self):
        p = self.params
        argv = [
            "estimate", "--data", self.csv_path, "--treatment", "arm", "--outcome", "y",
            "--covariates", ",".join(COLUMNS), "--regime", p["regime"],
            "--bootstrap", str(p["bootstrap"]), "--seed", str(self.seed), "--format", "json",
        ]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = mlte.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"mlte estimate exited {code}: {err.getvalue().strip()}")
        text = out.getvalue()
        payload = json.loads(text)
        n_pairs = p["k"] * (p["k"] - 1) // 2
        attempted = len(payload["config"]["methods"]) * n_pairs
        done = sum(len(t["rows"]) for t in payload["tables"])
        return text, 1, attempted, attempted - done


# ---------------------------------------------------------------------------
# output checks


def _finite(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def check_invariants(kind, payload):
    """Sanity checks that hold for every seed.  Returns the number of cells
    whose output breaks one."""
    bad = 0
    if kind == "estimate":
        if payload["failures"]:
            return 0  # already counted as failed cells
        for table in payload["tables"]:
            for r in table["rows"]:
                ok = all(_finite(r[key]) for key in ("estimate", "se", "ci_low", "ci_high", "p", "p_adj"))
                ok = ok and r["se"] >= 0 and r["ci_low"] <= r["estimate"] <= r["ci_high"]
                ok = ok and 0.0 <= r["p"] <= r["p_adj"] <= 1.0
                bad += not ok
        return bad
    truths = payload["truths"]
    for r in payload["rows"]:
        ok = all(_finite(r[key]) for key in ("truth", "bias", "rmse"))
        ok = ok and r["truth"] == truths[r["parameter"]][r["estimand"]]
        ok = ok and r["rmse"] >= abs(r["bias"]) - 1e-12
        ok = ok and (r["std"] is None or (_finite(r["std"]) and r["std"] >= 0))
        ok = ok and (r["coverage"] is None or 0.0 <= r["coverage"] <= 1.0)
        if not ok:
            bad += r["reps_used"]
    return bad


def _mismatches(ref, got, path, tol, out):
    """Collect paths where a numeric leaf of `ref` is missing from `got` or
    differs beyond tolerance.  Fields the reference lacks are ignored, so
    additive report changes pass; strings are not compared."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            out.append(path)
            return
        for key, value in ref.items():
            if key not in got:
                out.append(path + (key,))
            else:
                _mismatches(value, got[key], path + (key,), tol, out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            out.append(path)
            return
        for i, (a, b) in enumerate(zip(ref, got)):
            _mismatches(a, b, path + (i,), tol, out)
    elif ref is None:
        if got is not None:
            out.append(path)
    elif isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if not _finite(got) or not math.isclose(got, ref, rel_tol=tol["rtol"], abs_tol=tol["atol"]):
            out.append(path)


def compare_to_reference(kind, reference, payload, tol):
    """Cells whose numeric output differs from the reference study.

    A differing metric row costs that row's replications; a differing
    estimate-table row costs one cell; a difference anywhere else (truths,
    config) fails every cell of the study."""
    paths = []
    _mismatches(reference, payload, (), tol, paths)
    if not paths:
        return 0, []
    if kind == "estimate":
        if any(len(p) < 4 or p[0] != "tables" or p[2] != "rows" for p in paths):
            return sum(len(t["rows"]) for t in reference["tables"]), paths
        return len({p[:4] for p in paths}), paths
    if any(len(p) < 2 or p[0] != "rows" for p in paths):
        return sum(r["reps_used"] + r["failures"] for r in reference["rows"]), paths
    rows = {p[1] for p in paths}
    return sum(reference["rows"][i]["reps_used"] + reference["rows"][i]["failures"] for i in rows), paths
