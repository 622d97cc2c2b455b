"""Acceptance gate: the replication targets and exact identities the package
is required to reproduce, each reported as a single PASS/FAIL line.

Criteria 1-5 read the session fixtures in conftest.py (pinned seeds, 500
replications each).  Monte Carlo standard error on a bias at these settings
is about 0.005, which the stated tolerances already absorb.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mlte.cli import main as cli_main
from fitstubs import StubOutcomeFit, StubPropensityFit
from mlte.learners import fit_outcome, fit_propensity
from mlte.matching import build_matches, estimate_bcm, estimate_match
from mlte.outcome_methods import tmle_fluctuations
from mlte.simengine import (
    ScenarioConfig,
    oracle_truth_mc,
    simulate_dataset,
    truth_outcome_spec,
    truth_propensity_spec,
)
from mlte.tabular import Dataset
from mlte.weighting import (
    aow_influence,
    compute_overlap_weights,
    estimate_aow,
    estimate_ow,
    ow_influence,
)

ADJUSTMENT_METHODS = ("stan", "ipw", "match", "bcm", "tmle", "ow", "aow")


def row(report, method, parameter):
    for r in report.rows:
        if r["method"] == method and r["parameter"] == parameter:
            return r
    raise KeyError((method, parameter))


def bias_pair(report, method):
    return row(report, method, "tau21")["bias"], row(report, method, "tau31")["bias"]


def verdict(capsys, label, checks):
    # emit the line outside pytest's capture so the gate summary is visible
    # in a plain `pytest -v` run
    ok = all(bool(c) for c in checks)
    with capsys.disabled():
        print(f"\n{label}: {'PASS' if ok else 'FAIL'}", flush=True)
    return ok


def arm_mean_outcome(data):
    """Intercept-only outcome working model: per-arm sample means, no
    covariate adjustment at all."""
    means = {j: float(data.y[data.t == j].mean()) for j in range(1, data.k + 1)}

    def predict(level, X):
        return np.full(len(X), means[level])

    return StubOutcomeFit(
        regime="mainterms",
        outcome_kind=data.outcome_kind,
        k=data.k,
        description="arm means",
        _predict=predict,
        _refit=lambda d, seed=0: arm_mean_outcome(d),
    )


# ---------------------------------------------------------------------------
# criteria 1-5: replication targets


def test_criterion_1_weak_confounding_correct_models(weak_confounding_correct_report, capsys):
    rep = weak_confounding_correct_report
    checks = []
    c21, c31 = bias_pair(rep, "crude")
    checks.append(abs(c21 - 0.240) <= 0.02)
    checks.append(abs(c31 - 0.347) <= 0.02)
    for meth in ("stan", "tmle", "aow"):
        b21, b31 = bias_pair(rep, meth)
        checks.append(max(abs(b21), abs(b31)) < 0.015)
    checks.append(abs(row(rep, "stan", "tau21")["std"] - 0.081) <= 0.01)
    checks.append(abs(row(rep, "stan", "tau31")["std"] - 0.082) <= 0.01)
    for meth in ("stan", "tmle"):
        for param in ("tau21", "tau31"):
            checks.append(0.92 <= row(rep, meth, param)["coverage"] <= 0.98)
    checks.append(all(r["reps_used"] == 500 for r in rep.rows))
    assert verdict(capsys, "criterion 1 [weak confounding, correct models: bias/std/coverage]", checks)


def test_criterion_2_strong_confounding_correct_models(strong_confounding_correct_report, capsys):
    rep = strong_confounding_correct_report
    checks = []
    c21, c31 = bias_pair(rep, "crude")
    checks.append(abs(c21 - 1.180) <= 0.03)
    checks.append(abs(c31 - 1.937) <= 0.03)
    for param in ("tau21", "tau31"):
        checks.append(row(rep, "ipw", param)["std"] > 0.45)
        checks.append(row(rep, "aow", param)["std"] < 0.12)
        checks.append(0.15 <= row(rep, "match", param)["bias"] <= 0.28)
        checks.append(abs(row(rep, "bcm", param)["bias"]) < 0.07)
    checks.append(all(r["reps_used"] == 500 for r in rep.rows))
    assert verdict(capsys, "criterion 2 [strong confounding: weighting instability vs augmentation]", checks)


def test_criterion_3_misspecification_ordering_and_sign(strong_confounding_mainterms_report, capsys):
    rep = strong_confounding_mainterms_report
    # worst-case |bias| over both contrasts, per method; the single-contrast
    # orderings disagree with each other, so the method-level ranking is the
    # meaningful one
    worst = {
        meth: max(abs(b) for b in bias_pair(rep, meth)) for meth in ADJUSTMENT_METHODS
    }
    two_smallest = set(sorted(worst, key=worst.get)[:2])
    checks = [
        two_smallest == {"aow", "bcm"},
        row(rep, "stan", "tau21")["bias"] < 0,
    ]
    assert verdict(capsys, "criterion 3 [misspecified models: robustness ordering + sign]", checks)


def test_criterion_3_standardization_bias_value_anchor(strong_confounding_mainterms_report, capsys):
    # Known-infeasible anchor: with both generator signal strengths turned
    # up, the main-terms standardization bias for tau21 lands near -0.245,
    # not -0.121; the -0.121 magnitude reproduces when only the treatment
    # signal is strong (see the sibling test below).  Kept at the stated
    # tolerance rather than widened, so this failure stays visible.
    b21 = row(strong_confounding_mainterms_report, "stan", "tau21")["bias"]
    ok = verdict(capsys, "criterion 3 [stan tau21 value within 0.03 of -0.121]", [abs(b21 + 0.121) <= 0.03])
    assert ok


def test_criterion_3_anchor_reproduces_under_weak_outcome_signal(
    weak_outcome_mainterms_stan_report, capsys
):
    b21 = row(weak_outcome_mainterms_stan_report, "stan", "tau21")["bias"]
    assert verdict(
        capsys,
        "criterion 3 [supporting: anchor value under weak outcome signal]",
        [abs(b21 + 0.121) <= 0.03],
    )


def test_criterion_4_ml_regime_bias_split(weak_confounding_ml_report, capsys):
    rep = weak_confounding_ml_report
    checks = []
    for meth in ("stan", "bcm", "tmle", "aow"):
        b21, b31 = bias_pair(rep, meth)
        checks.append(max(abs(b21), abs(b31)) < 0.03)
    for meth in ("ipw", "ow"):
        b21, b31 = bias_pair(rep, meth)
        checks.append(min(b21, b31) > 0.05)
    assert verdict(capsys, "criterion 4 [adaptive-learner regime: augmented vs plain weighting]", checks)


def test_criterion_5_overlap_weight_variance_calibration(small_n_correct_ow_report, capsys):
    rep = small_n_correct_ow_report
    checks = []
    for param in ("tau21", "tau31"):
        checks.append(row(rep, "ow", param)["coverage"] >= 0.94)
        checks.append(0.92 <= row(rep, "aow", param)["coverage"] <= 0.97)
    assert verdict(capsys, "criterion 5 [overlap-weight variance calibration at n=500]", checks)


# ---------------------------------------------------------------------------
# criterion 6: large-sample behavior of the augmented overlap estimator


def test_criterion_6_robustness_limits(capsys):
    # (a) correct treatment model, intercept-only outcome model: bias
    # vanishes as n grows
    max_bias = {}
    for n in (500, 8000):
        cfg = ScenarioConfig.named(
            "t+y+", n=n, reps=250, seed=41, regime="correct", bootstrap_reps=0
        )
        taus = {(2, 1): [], (3, 1): []}
        for r in range(cfg.reps):
            data = simulate_dataset(cfg, r)
            prop = fit_propensity(data, "correct", truth_spec=truth_propensity_spec())
            ow = compute_overlap_weights(prop, data.t)
            out = arm_mean_outcome(data)
            for pair in taus:
                taus[pair].append(estimate_aow(data, ow, out, prop, pair).tau_hat)
        max_bias[n] = max(
            abs(np.mean(taus[(2, 1)]) - 1.0), abs(np.mean(taus[(3, 1)]) - 1.5)
        )
    checks = [max_bias[8000] < 0.02, max_bias[8000] < max_bias[500]]

    # (b) correct outcome model, wrong treatment model: the estimator
    # still converges, to the estimand reweighted by the wrong model's
    # overlap weight; a large-sample fit of that same wrong model feeds
    # the counterfactual oracle
    cfg = ScenarioConfig.named(
        "t+y+", n=2000, reps=250, seed=42, regime="correct", bootstrap_reps=0
    )
    taus = {(2, 1): [], (3, 1): []}
    for r in range(cfg.reps):
        data = simulate_dataset(cfg, r)
        out = fit_outcome(data, "correct", truth_spec=truth_outcome_spec())
        prop = fit_propensity(data, "mainterms")
        ow = compute_overlap_weights(prop, data.t)
        for pair in taus:
            taus[pair].append(estimate_aow(data, ow, out, prop, pair).tau_hat)
    big = simulate_dataset(
        ScenarioConfig.named("t+y+", n=100000, reps=1, seed=7, regime="mainterms"), 0
    )
    bigfit = fit_propensity(big, "mainterms")
    oracle = oracle_truth_mc(
        cfg, weighting="overlap", prob_fn=bigfit.predict_matrix, draws=10**6, seed=3
    )
    checks.append(abs(np.mean(taus[(2, 1)]) - oracle[(2, 1)]) <= 0.02)
    checks.append(abs(np.mean(taus[(3, 1)]) - oracle[(3, 1)]) <= 0.02)
    assert verdict(capsys, "criterion 6 [augmented overlap estimator: one-sided robustness]", checks)


# ---------------------------------------------------------------------------
# criterion 7: exact identities


def test_criterion_7_exact_identities(capsys):
    tol = 1e-8
    checks = []
    rng = np.random.default_rng(19)
    n = 150
    X = rng.normal(size=(n, 3))
    t = rng.integers(1, 4, n)
    t[:6] = [1, 1, 2, 2, 3, 3]
    y = rng.normal(size=n)
    data = Dataset.from_arrays(X, t, y)
    raw = rng.uniform(0.1, 1.0, (n, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    prop = StubPropensityFit("correct", 3, probs, "fixed", True, lambda Z: probs)
    ow = compute_overlap_weights(prop, data.t)

    def const_fit(values):
        vals = np.asarray(values, dtype=float)
        return StubOutcomeFit(
            "mainterms", "continuous", 3, "const",
            lambda level, Z: np.full(Z.shape[0], vals[level - 1]),
            lambda d, s: None,
        )

    # augmentation cancels exactly for constant and for arm-mean predictions
    for out in (const_fit([3.0, -1.0, 0.5]), arm_mean_outcome(data)):
        for pair in ((2, 1), (3, 1), (3, 2)):
            plain = estimate_ow(data, ow, pair).tau_hat
            aug = estimate_aow(data, ow, out, prop, pair).tau_hat
            checks.append(abs(aug - plain) <= tol)

    # matching bias correction cancels exactly for level-constant predictions
    ms = build_matches(data)
    out_c = const_fit([4.0, 0.0, -2.0])
    for pair in ((2, 1), (3, 2)):
        plain = estimate_match(data, ms, pair)
        corrected = estimate_bcm(data, ms, out_c, pair)
        checks.append(abs(corrected.tau_hat - plain.tau_hat) <= tol)
        checks.append(abs(corrected.variance - plain.variance) <= tol)

    # with two levels the overlap weight is the opposite-arm probability
    t2 = rng.integers(1, 3, n)
    t2[:2] = [1, 2]
    data2 = Dataset.from_arrays(X, t2, y)
    p1 = rng.uniform(0.05, 0.95, n)
    prop2 = StubPropensityFit(
        "correct", 2, np.column_stack([p1, 1 - p1]), "fixed", True, lambda Z: None
    )
    ow2 = compute_overlap_weights(prop2, data2.t)
    opposite = np.where(data2.t == 1, 1 - p1, p1)
    checks.append(float(np.max(np.abs(ow2.w - opposite))) <= tol)

    # targeting step drives each level's weighted score to zero
    scen = ScenarioConfig.named("t-y-", n=400, reps=1, seed=2, regime="mainterms")
    sdata = simulate_dataset(scen, 0)
    sout = fit_outcome(sdata, "mainterms")
    sprop = fit_propensity(sdata, "mainterms")
    fl = tmle_fluctuations(sdata, sout, sprop, (1, 2, 3))
    a, b = fl[1].scale
    ystar = (sdata.y - a) / (b - a)
    for j in (1, 2, 3):
        wj = (sdata.t == j) / sprop.probs[:, j - 1]
        checks.append(abs(float((wj * (ystar - fl[j].q1)).sum())) <= tol)

    # influence contributions average to zero: the plain overlap estimator
    # on any inputs, the augmented one in the balanced-uniform construction
    for pair in ((2, 1), (3, 2)):
        checks.append(abs(float(ow_influence(data, ow, pair)[1].mean())) <= tol)
    tb = np.repeat([1, 2, 3], 100)
    bdata = Dataset.from_arrays(rng.normal(size=(300, 2)), tb, rng.normal(size=300))
    uprobs = np.full((300, 3), 1.0 / 3.0)
    uprop = StubPropensityFit("correct", 3, uprobs, "uniform", True, lambda Z: uprobs)
    uow = compute_overlap_weights(uprop, bdata.t)
    uout = arm_mean_outcome(bdata)
    for pair in ((2, 1), (3, 1)):
        checks.append(
            abs(float(aow_influence(bdata, uow, uout, uprop, pair)[1].mean())) <= tol
        )

    # exact nearest-neighbor search agrees with the quadratic reference
    mdata = Dataset.from_arrays(
        rng.normal(size=(60, 3)), np.r_[np.repeat([1, 2, 3], 18), [1, 2, 3, 1, 2, 3]],
        rng.normal(size=60),
    )
    for metric in ("euclidean-standardized", "mahalanobis"):
        msets = build_matches(mdata, metric=metric)
        if metric == "euclidean-standardized":
            dist = cdist(mdata.X / mdata.X.std(axis=0, ddof=1), mdata.X / mdata.X.std(axis=0, ddof=1))
        else:
            S = np.cov(mdata.X, rowvar=False) + 1e-8 * np.eye(3)
            dist = cdist(mdata.X, mdata.X, metric="mahalanobis", VI=np.linalg.inv(S))
        for lev in (1, 2, 3):
            donors = np.flatnonzero(mdata.t == lev)
            for i in np.flatnonzero(mdata.t != lev):
                want = donors[np.argmin(dist[i, donors])]
                checks.append(msets.match_indices[i, lev - 1, 0] == want)

    assert verdict(capsys, "criterion 7 [exact-identity suite]", checks)


# ---------------------------------------------------------------------------
# criterion 8: byte-level determinism across worker counts


def write_demo_csv(path, binary=False):
    cfg = ScenarioConfig.named("t-y-", n=200, reps=1, seed=31, regime="mainterms")
    data = simulate_dataset(cfg, 0)
    if binary:
        rng = np.random.default_rng(2)
        yout = (rng.random(data.n) < 1.0 / (1.0 + np.exp(-0.5 * data.X[:, 0]))).astype(int)
    else:
        yout = data.y
    with open(path, "w") as fh:
        fh.write("trt,resp,x1,x2,x3\n")
        for i in range(data.n):
            cells = [int(data.t[i]), (int(yout[i]) if binary else float(yout[i])), *map(float, data.X[i])]
            fh.write(",".join(repr(c) for c in cells) + "\n")


def test_criterion_8_worker_count_invariance(tmp_path, capsys):
    demo = tmp_path / "demo.csv"
    binary = tmp_path / "binary.csv"
    write_demo_csv(demo)
    write_demo_csv(binary, binary=True)
    source_args = ["--treatment", "trt", "--outcome", "resp", "--covariates", "x1,x2,x3"]

    def run(name, argv):
        out = tmp_path / name
        assert cli_main(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    checks = []
    base = ["simulate", "--scenario", "t+y-", "--n", "200", "--reps", "6",
            "--methods", "crude,stan,ow", "--bootstrap", "5", "--seed", "17",
            "--format", "json"]
    checks.append(run("sim1.json", base + ["--workers", "1"]) == run("sim8.json", base + ["--workers", "8"]))

    base = ["plasmode", "--data", str(binary), *source_args, "--methods", "crude,ipw",
            "--n", "120", "--reps", "3", "--seed", "23", "--format", "json"]
    checks.append(run("pl1.json", base + ["--workers", "1"]) == run("pl8.json", base + ["--workers", "8"]))

    base = ["estimate", "--data", str(demo), *source_args, "--methods", "crude,match",
            "--seed", "29", "--format", "csv"]
    # estimate runs in one process; it has no --workers
    checks.append(run("est1.csv", base) == run("est2.csv", base))

    base = ["diagnose", "--data", str(demo), *source_args, "--format", "text"]
    checks.append(run("dia1.txt", base) == run("dia2.txt", base))

    assert verdict(capsys, "criterion 8 [byte-identical reports across worker counts]", checks)
