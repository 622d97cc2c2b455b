"""Scenario configs, the synthetic generating process, replication metrics,
and the plasmode loop."""

import re

import numpy as np
import pytest
from scipy.special import expit

from fitstubs import StubOutcomeFit, StubPropensityFit
from reference_paths import reference_oracle_truth
import mlte.simengine
from mlte.reporting import render_report
from mlte.simengine import (
    METHOD_TABLE,
    METHODS,
    SCENARIO_NAMES,
    PlasmodeConfig,
    ScenarioConfig,
    _apply_methods,
    _plasmode_truths,
    compute_metrics,
    outcome_mean,
    run_plasmode,
    run_scenario,
    simulate_dataset,
    treatment_probabilities,
)
from mlte.tabular import Dataset
from mlte.weighting import EffectEstimate

BETA_WEAK = (-0.2, 0.2, 0.2, 0.1, 0.1, 0.2, 0.1, -0.2, 0.1, 0.1)
BETA_STRONG = (-0.8, 0.8, 0.8, 0.2, 0.2, 0.5, 0.5, -0.8, 0.2, 0.2)
GAMMA_WEAK = (0.0, 0.2, 0.2, 0.2, 0.1, 0.1)
GAMMA_STRONG = (0.0, 0.5, 0.5, 0.5, 0.2, 0.2)


# ---------------------------------------------------------------------------
# configuration


def test_named_scenarios_pin_coefficient_tables():
    cases = {
        "t-y-": (BETA_WEAK, GAMMA_WEAK),
        "t+y-": (BETA_STRONG, GAMMA_WEAK),
        "t-y+": (BETA_WEAK, GAMMA_STRONG),
        "t+y+": (BETA_STRONG, GAMMA_STRONG),
    }
    assert set(SCENARIO_NAMES) == set(cases)
    for name, (beta, gamma) in cases.items():
        cfg = ScenarioConfig.named(name, n=100, reps=1, seed=0, regime="mainterms")
        assert cfg.beta == beta
        assert cfg.gamma == gamma
        assert cfg.treatment_strength + cfg.outcome_strength == name
        assert cfg.lam == (1.0, 1.5)
        assert cfg.metric == "euclidean-standardized"


def test_config_validation():
    with pytest.raises(ValueError, match="unknown scenario 't\\?y-'"):
        ScenarioConfig.named("t?y-", n=100, reps=1, seed=0, regime="mainterms")
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig("t-", "y", n=100, reps=1, seed=0, regime="mainterms")
    with pytest.raises(ValueError):
        ScenarioConfig.named("t-y-", n=100, reps=1, seed=0, regime="oracle")
    with pytest.raises(ValueError):
        ScenarioConfig.named("t-y-", n=0, reps=1, seed=0, regime="mainterms")
    # the scenario determines these; none can be set
    for derived in ("beta", "gamma", "lam", "metric"):
        with pytest.raises(TypeError, match=derived):
            ScenarioConfig.named(
                "t-y-", n=100, reps=1, seed=0, regime="mainterms", **{derived: None}
            )


def test_true_effects_additive():
    cfg = ScenarioConfig.named("t+y+", n=100, reps=1, seed=0, regime="mainterms")
    truths = run_scenario(cfg, methods=["crude"]).truths
    expected = {"tau21": 1.0, "tau31": 1.5}
    assert truths == {p: {"population": v, "overlap": v} for p, v in expected.items()}


# ---------------------------------------------------------------------------
# generating process


def test_zero_beta_gives_uniform_assignment():
    X = np.random.default_rng(0).normal(size=(50, 3))
    p = treatment_probabilities((0.0,) * 10, X)
    np.testing.assert_allclose(p, 1.0 / 3.0, atol=1e-12)


def test_outcome_mean_closed_form():
    X = np.array([[1.0, 2.0, 1.0], [0.0, -1.0, 0.0]])
    mu = outcome_mean(GAMMA_WEAK, (1.0, 1.5), X, np.array([2, 1]))
    # row 0: 0.2*1 + 0.2*2 + 0.2*1 + 0.1*2*1 + 0.1*4 + lam[0]
    assert mu[0] == pytest.approx(0.2 + 0.4 + 0.2 + 0.2 + 0.4 + 1.0)
    assert mu[1] == pytest.approx(-0.2 + 0.1)


def test_zero_gamma_group_means_recover_level_effects():
    # the outcome less its covariate part (the mean with zero level
    # effects) is the level effect plus noise
    cfg = ScenarioConfig.named("t-y-", n=10**5, reps=1, seed=6, regime="mainterms")
    data = simulate_dataset(cfg, 0)
    effects = data.y - outcome_mean(GAMMA_WEAK, (0.0, 0.0), data.X, data.t)
    for lev, want in ((1, 0.0), (2, 1.0), (3, 1.5)):
        assert effects[data.t == lev].mean() == pytest.approx(want, abs=0.03)


def test_strong_assignment_violates_overlap_weak_does_not():
    t_plus = ScenarioConfig.named("t+y-", n=10**5, reps=1, seed=20, regime="mainterms")
    t_minus = ScenarioConfig.named("t-y-", n=10**5, reps=1, seed=20, regime="mainterms")
    p_plus = treatment_probabilities(t_plus.beta, simulate_dataset(t_plus, 0).X)
    p_minus = treatment_probabilities(t_minus.beta, simulate_dataset(t_minus, 0).X)
    assert p_plus.min() < 1e-3
    assert (p_plus.min(axis=1) < 0.01).mean() > 0.01
    assert p_minus.min() > 0.01


def test_simulate_dataset_reproducible_per_replication():
    cfg = ScenarioConfig.named("t-y-", n=200, reps=3, seed=9, regime="mainterms")
    a = simulate_dataset(cfg, 1)
    b = simulate_dataset(cfg, 1)
    c = simulate_dataset(cfg, 2)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.y, b.y)
    assert not np.array_equal(a.y, c.y)
    assert a.columns == ("x1", "x2", "x3")
    assert a.outcome_kind == "continuous"
    assert a.k == 3


def test_scenario_truths_equal_the_monte_carlo_oracle():
    # the treatment enters additively, so the closed-form truths are the
    # oracle's average of the effect field under either weighting
    cfg = ScenarioConfig.named("t+y+", n=100, reps=1, seed=0, regime="mainterms")
    truths = run_scenario(cfg, methods=["crude"]).truths
    for weighting in ("population", "overlap"):
        oracle = reference_oracle_truth(cfg, draws=10**4, weighting=weighting)
        assert truths["tau21"][weighting] == pytest.approx(oracle[(2, 1)], abs=1e-12)
        assert truths["tau31"][weighting] == pytest.approx(oracle[(3, 1)], abs=1e-12)


# ---------------------------------------------------------------------------
# metrics


def fake_estimates(taus, variance=0.04, truth_method="crude"):
    return [EffectEstimate((2, 1), t, variance, "population", truth_method) for t in taus]


def test_compute_metrics_all_equal():
    mt = compute_metrics(fake_estimates([2.0] * 5), truth=2.0)
    assert mt["bias"] == 0.0
    assert mt["std"] == 0.0
    assert mt["rmse"] == 0.0
    assert mt["coverage"] == 1.0
    assert mt["reps_used"] == 5
    # the report row's own fields, in report order
    assert list(mt) == ["bias", "std", "rmse", "coverage", "reps_used"]


def test_compute_metrics_alternating():
    mt = compute_metrics(fake_estimates([1.0, -1.0, 1.0, -1.0]), truth=0.0)
    assert mt["bias"] == 0.0
    assert mt["rmse"] == 1.0
    assert mt["std"] == pytest.approx(np.sqrt(4.0 / 3.0))


def test_compute_metrics_rmse_decomposition():
    rng = np.random.default_rng(2)
    taus = rng.normal(0.3, 0.7, 40)
    mt = compute_metrics(fake_estimates(taus), truth=0.1)
    n = len(taus)
    assert mt["rmse"]**2 == pytest.approx(mt["bias"]**2 + mt["std"]**2 * (n - 1) / n, abs=1e-10)


def test_compute_metrics_half_coverage():
    half = 1.959963984540054 * 0.2
    ests = fake_estimates([1.0, 1.0 + 2 * half], variance=0.04)
    mt = compute_metrics(ests, truth=1.0)
    assert mt["coverage"] == 0.5


def test_compute_metrics_degenerate_inputs():
    empty = compute_metrics([], truth=0.0)
    assert empty == {"bias": None, "std": None, "rmse": None, "coverage": None, "reps_used": 0}
    single = compute_metrics(fake_estimates([1.5]), truth=1.0)
    assert single["std"] is None
    assert single["bias"] == pytest.approx(0.5)
    no_ci = compute_metrics(fake_estimates([1.0, 2.0], variance=float("nan")), truth=1.0)
    assert no_ci["coverage"] is None
    assert no_ci["rmse"] is not None


# ---------------------------------------------------------------------------
# replication loop


def test_crude_bias_grows_with_confounding_strength():
    bias = {}
    for name in SCENARIO_NAMES:
        cfg = ScenarioConfig.named(name, n=800, reps=300, seed=77, regime="mainterms")
        report = run_scenario(cfg, methods=["crude"])
        row = next(r for r in report.rows if r["parameter"] == "tau21")
        bias[name] = abs(row["bias"])
    assert bias["t-y-"] < bias["t+y-"] < bias["t-y+"] < bias["t+y+"]


def test_run_scenario_single_rep_report_shape():
    cfg = ScenarioConfig.named("t-y-", n=300, reps=1, seed=4, regime="mainterms")
    report = run_scenario(cfg, methods=["crude", "ipw"])
    assert report.kind == "scenario"
    assert report.reps == 1
    assert {r["method"] for r in report.rows} == {"crude", "ipw"}
    for row in report.rows:
        assert row["std"] is None
        assert row["reps_used"] == 1
        assert row["failures"] == 0
        assert row["coverage"] in (0.0, 1.0)
    assert report.truths["tau21"]["population"] == 1.0
    assert report.truths["tau31"]["overlap"] == 1.5


def test_run_scenario_always_includes_crude_and_orders_methods():
    cfg = ScenarioConfig.named("t-y-", n=300, reps=2, seed=4, regime="mainterms")
    report = run_scenario(cfg, methods=["ow", "ipw"])
    methods = tuple(dict.fromkeys(r["method"] for r in report.rows))
    assert methods == ("crude", "ipw", "ow")
    estimands = {r["method"]: r["estimand"] for r in report.rows}
    assert estimands == {"crude": "population", "ipw": "population", "ow": "overlap"}


def test_run_scenario_rejects_unknown_method_and_pair():
    cfg = ScenarioConfig.named("t-y-", n=100, reps=1, seed=4, regime="mainterms")
    with pytest.raises(ValueError):
        run_scenario(cfg, methods=["cruude"])
    # the contrasts are fixed (tau21, tau31), so no pair can be passed
    with pytest.raises(TypeError):
        run_scenario(cfg, contrasts=[(4, 1)])


def tiny_k3(n=9, seed=3):
    rng = np.random.default_rng(seed)
    return Dataset.from_arrays(rng.normal(size=(n, 2)), np.repeat([1, 2, 3], n // 3), rng.normal(size=n))


def apply_all(data, regime="ml", methods=METHODS):
    return _apply_methods(
        data, regime, methods, [(2, 1), (3, 1), (3, 2)], seed=1, rep=0, bootstrap_reps=5, m=1,
    )


def test_outcome_fit_failure_fails_only_outcome_methods():
    # the ml super learner needs 10 rows for 10-fold stacking; 9 is too few
    results, failures = apply_all(tiny_k3())
    outcome_methods = {meth for meth, row in METHOD_TABLE.items() if "outcome" in row.models}
    assert outcome_methods == {"stan", "bcm", "tmle", "aow"}
    assert set(failures) == outcome_methods
    assert all(msg.startswith("outcome fit: ") for msg in failures.values())
    for meth in ("crude", "ipw", "match", "ow"):
        for pair in ((2, 1), (3, 1), (3, 2)):
            assert np.isfinite(results[(meth, pair)].tau_hat)


def test_a_method_failing_on_one_pair_reports_none_of_its_pairs(monkeypatch):
    # the outcome fit predicts levels 1 and 2 but not 3: bcm estimates
    # (2, 1) and then fails on (3, 1) in every replication
    def predict(level, X):
        if level == 3:
            raise ValueError("no prediction at level 3")
        return X[:, 0]

    stub = StubOutcomeFit("mainterms", "continuous", 3, "stub", predict)
    monkeypatch.setattr(mlte.simengine, "fit_outcome", lambda *args, **kwargs: stub)
    cfg = ScenarioConfig.named("t-y-", n=200, reps=2, seed=1, regime="mainterms")
    report = run_scenario(cfg, methods=["bcm"])
    assert report.method_failures["bcm"] == {"count": 2, "example": "no prediction at level 3"}
    rows = [row for row in report.rows if row["method"] == "bcm"]
    assert [(row["reps_used"], row["failures"]) for row in rows] == [(0, 2)] * len(rows)


def test_programming_errors_in_estimators_propagate(monkeypatch):
    def broken(data, prop, pair):
        raise TypeError("a bug, not a method failure")

    monkeypatch.setattr(mlte.simengine, "estimate_ipw", broken)
    with pytest.raises(TypeError, match="a bug"):
        apply_all(tiny_k3(n=30), regime="mainterms", methods=["crude", "ipw"])


def test_every_method_gives_a_pair_with_a_one_row_arm_no_variance():
    # arm 3 has a single row: its one noise draw enters every estimate, but
    # no variance formula can see it, so (3, 1) gets NaN variance and no CI
    # from every method, while (2, 1) keeps its variance; matching needs 2
    # rows per arm and names the arm
    rng = np.random.default_rng(4)
    n = 200
    X = rng.normal(size=(n, 2))
    t = np.concatenate([np.tile([1, 2], (n - 1) // 2 + 1)[: n - 1], [3]])
    data = Dataset.from_arrays(X, t, X[:, 0] + t + rng.normal(size=n))
    results, failures = _apply_methods(
        data, "mainterms", METHODS, [(3, 1), (2, 1)], seed=0, rep=0, bootstrap_reps=20, m=1
    )
    assert set(failures) == {"match", "bcm"}
    assert all("level 3 has 1 rows" in msg for msg in failures.values())
    for meth in ("crude", "stan", "ipw", "tmle", "ow", "aow"):
        one_row, both = results[(meth, (3, 1))], results[(meth, (2, 1))]
        assert np.isfinite(one_row.tau_hat), meth
        assert np.isnan(one_row.variance) and np.isnan(one_row.ci95).all(), meth
        assert np.isfinite(both.tau_hat) and np.isfinite(both.variance) and both.variance > 0, meth


@pytest.mark.parametrize("pair", [(2, 2), (0, 1), (4, 1)])
@pytest.mark.parametrize("meth", METHODS)
def test_every_method_rejects_an_invalid_contrast_pair(meth, pair):
    # level 0 would index the last level and level 4 past it; (2, 2) is 0
    data = tiny_k3(n=60)
    row = METHOD_TABLE[meth]
    prop = mlte.simengine.fit_propensity(data, "mainterms")
    inputs = {
        "outcome": mlte.simengine.fit_outcome(data, "mainterms"),
        "propensity": prop,
        "matches": mlte.simengine.build_matches(data, m=1),
        "overlap": mlte.simengine.compute_overlap_weights(prop, data.t),
    }
    entry = getattr(mlte.simengine, row.entry)
    args = [inputs[name] for name in row.inputs]
    with pytest.raises(ValueError, match="invalid contrast pair"):
        if row.batched:
            entry(data, *args, [(2, 1), pair], 5, 0)
        else:
            entry(data, *args, pair)


def test_method_table_rows_resolve():
    assert METHODS == tuple(METHOD_TABLE)
    for row in METHOD_TABLE.values():
        assert callable(getattr(mlte.simengine, row.entry))
        assert row.estimand in ("population", "overlap")
        assert row.models <= {"outcome", "propensity", "matches"}


def test_worker_count_does_not_change_results():
    cfg = ScenarioConfig.named("t+y-", n=150, reps=4, seed=13, regime="mainterms", bootstrap_reps=5)
    serial = run_scenario(cfg, methods=["crude", "stan", "ow"], workers=1)
    parallel = run_scenario(cfg, methods=["crude", "stan", "ow"], workers=2)
    assert serial.rows == parallel.rows
    assert serial.method_failures == parallel.method_failures


def test_a_replication_that_draws_no_row_of_a_level_names_the_level():
    # this draw holds levels 1 and 3 only; recoding it would make level 3
    # the second level of a two-level dataset
    cfg = ScenarioConfig.named("t+y+", n=4, reps=1, seed=0, regime="mainterms")
    with pytest.raises(ValueError, match=re.escape("treatment level(s) [2] have zero rows")):
        simulate_dataset(cfg, 0)
    report = run_scenario(cfg)
    assert report.method_failures == {
        meth: {"count": 1, "example": "simulated data: treatment level(s) [2] have zero rows"}
        for meth in METHODS
    }
    assert all(row["reps_used"] == 0 for row in report.rows)


# ---------------------------------------------------------------------------
# plasmode


def binary_source(n=240, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    t = rng.integers(1, 4, n)
    t[:6] = [1, 1, 2, 2, 3, 3]
    y = (rng.random(n) < 0.5).astype(float)
    return Dataset.from_arrays(X, t, y, columns=("x1", "x2"))


def stub_generators(source, level_shift):
    def predict(level, X):
        return expit(level_shift[level - 1] + 0.5 * X[:, 0])

    gen_out = StubOutcomeFit("mainterms", "binary", source.k, "stub", predict, lambda d, s: None)
    raw = np.random.default_rng(1).uniform(0.2, 1.0, (source.n, source.k))
    probs = raw / raw.sum(axis=1, keepdims=True)

    def uniform_probs(X):
        m = np.full((X.shape[0], source.k), 1.0 / source.k)
        return m

    gen_trt = StubPropensityFit("mainterms", source.k, probs, "stub", True, uniform_probs)
    return gen_out, gen_trt


def test_plasmode_truths_match_generator_functionals():
    source = binary_source()
    shift = (-0.5, 0.3, 1.1)
    gen_out, gen_trt = stub_generators(source, shift)
    truths = _plasmode_truths(source, gen_out, gen_trt, [(2, 1), (3, 2)])
    x1 = source.X[:, 0]
    want21 = (expit(0.3 + 0.5 * x1) - expit(-0.5 + 0.5 * x1)).mean()
    assert truths[((2, 1), "population")] == pytest.approx(want21, abs=1e-12)
    probs = gen_trt.probs
    h = 1.0 / (1.0 / probs).sum(axis=1)
    eff32 = expit(1.1 + 0.5 * x1) - expit(0.3 + 0.5 * x1)
    assert truths[((3, 2), "overlap")] == pytest.approx(float((h * eff32).sum() / h.sum()), abs=1e-12)


def test_plasmode_null_generator_has_zero_truth(monkeypatch):
    source = binary_source()
    gen_out, gen_trt = stub_generators(source, (0.7, 0.7, 0.7))
    fitted = []

    def fit_generator(gen):
        def fit(data, regime, seed=None):
            assert data is source
            fitted.append((regime, seed))
            return gen
        return fit

    monkeypatch.setattr(mlte.simengine, "fit_outcome", fit_generator(gen_out))
    monkeypatch.setattr(mlte.simengine, "fit_propensity", fit_generator(gen_trt))
    cfg = PlasmodeConfig(source=source, resample_size=150, reps=2, seed=3)
    report = run_plasmode(cfg, methods=["crude"])
    assert fitted == [("ml", 3), ("ml", None)]
    assert report.kind == "plasmode"
    for label in ("tau21", "tau31", "tau32"):
        assert report.truths[label]["population"] == 0.0
        assert report.truths[label]["overlap"] == 0.0
    assert len(report.rows) == 3  # crude only, all three pairs
    assert all(r["reps_used"] == 2 for r in report.rows)


def test_plasmode_config_validation():
    source = binary_source()
    ok = dict(source=source, resample_size=100, reps=1, seed=0)
    PlasmodeConfig(**ok)
    continuous = Dataset.from_arrays(source.X, source.t, np.linspace(0.0, 1.0, source.n))
    regime = "plasmode regime must be 'mainterms' or 'ml'"
    for change, message in (
        ({"source": continuous}, "plasmode outcome generator must be binary"),
        ({"resample_size": 10 * source.n + 1}, "resample_size must be in"),
        ({"regime": "correct"}, regime),
        ({"regime": "correct", "source": continuous}, regime),  # the regime is checked first
        ({"reps": 0}, "reps must be positive"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            PlasmodeConfig(**{**ok, **change})


def test_plasmode_worker_count_does_not_change_report():
    source = binary_source(n=300, seed=4)
    cfg = PlasmodeConfig(
        source=source, resample_size=150, reps=4, seed=6, regime="mainterms", bootstrap_reps=3,
    )
    serial = run_plasmode(cfg, workers=1)
    parallel = run_plasmode(cfg, workers=2)
    assert all(row["reps_used"] == 4 for row in serial.rows)
    assert render_report(serial, fmt="json") == render_report(parallel, fmt="json")


def test_method_catalog_is_stable():
    assert METHODS == ("crude", "stan", "ipw", "match", "bcm", "tmle", "ow", "aow")
