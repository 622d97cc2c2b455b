"""Outcome and propensity model regimes, including the stacked learner."""

import dataclasses
import pickle

import numpy as np
import pytest

from mlte.learners import (
    _cv_folds,
    _stepwise_groups,
    fit_outcome,
    fit_propensity,
    fit_super_learner,
    _additive_spline_spec,
    _mainterms_spec,
    _rich_parametric_spec,
)
from mlte.simengine import (
    ScenarioConfig,
    simulate_dataset,
    treatment_probabilities,
    truth_outcome_spec,
    truth_propensity_spec,
)
from mlte.glm import fit_ols
from mlte.tabular import Dataset, bind_design, main, spline


def scenario_data(scenario="t-y-", n=800, seed=0, rep=0, regime="correct"):
    cfg = ScenarioConfig.named(scenario, n=n, reps=1, seed=seed, regime=regime)
    return cfg, simulate_dataset(cfg, rep)


# ---------------------------------------------------------------------------
# outcome fits


def test_correct_outcome_recovers_noiseless_coefficients():
    rng = np.random.default_rng(1)
    n = 500
    X = np.column_stack([rng.normal(size=n), rng.normal(size=n), (rng.random(n) < 0.5).astype(float)])
    t = np.tile([1, 2, 3], n // 3 + 1)[:n]
    # exactly the truth-spec functional form, no noise
    y = 0.3 + 0.5 * X[:, 0] - 0.2 * X[:, 1] + 0.7 * X[:, 2] + 0.4 * X[:, 1] * X[:, 2] + 0.1 * X[:, 1] ** 2
    y = y + 1.0 * (t == 2) + 1.5 * (t == 3)
    data = Dataset.from_arrays(X, t, y, columns=("x1", "x2", "x3"))
    fit = fit_outcome(data, "correct", truth_spec=truth_outcome_spec())
    np.testing.assert_allclose(fit.predict_matrix(X)[np.arange(n), t - 1], y, atol=1e-8)


def test_outcome_counterfactual_switches_treatment():
    _, data = scenario_data()
    fit = fit_outcome(data, "correct", truth_spec=truth_outcome_spec())
    m2 = fit.predict(2, data.X)
    m3 = fit.predict(3, data.X)
    # additive effects: level contrast constant across covariates
    diff = m3 - m2
    np.testing.assert_allclose(diff, diff[0], atol=1e-8)


def test_correct_outcome_requires_truth_spec():
    _, data = scenario_data()
    with pytest.raises(ValueError):
        fit_outcome(data, "correct")


def test_mainterms_outcome_predicts_finite():
    _, data = scenario_data()
    fit = fit_outcome(data, "mainterms")
    M = fit.predict_matrix(data.X)
    assert M.shape == (data.n, 3)
    assert np.all(np.isfinite(M))


def test_outcome_predict_rejects_bad_level():
    _, data = scenario_data()
    fit = fit_outcome(data, "mainterms")
    with pytest.raises(ValueError):
        fit.predict(4, data.X)


def test_binary_outcome_predictions_are_probabilities():
    rng = np.random.default_rng(4)
    n = 400
    X = rng.normal(size=(n, 2))
    t = np.tile([1, 2], n // 2)
    y = (rng.random(n) < 0.3 + 0.4 * (t == 2)).astype(float)
    data = Dataset.from_arrays(X, t, y)
    fit = fit_outcome(data, "mainterms")
    M = fit.predict_matrix(X)
    assert M.min() >= 0.0 and M.max() <= 1.0


# ---------------------------------------------------------------------------
# super learner


def test_super_learner_weights_on_simplex():
    _, data = scenario_data(n=600, seed=5)
    fit = fit_outcome(data, "ml", seed=11)
    sl = fit.super_learner
    w = np.asarray(sl.weights)
    assert np.all(w >= -1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-8)
    assert len(sl.cv_risks) == len(w)


def test_super_learner_prefers_correct_candidate_family():
    # linear truth: the main-terms candidate should carry most weight
    rng = np.random.default_rng(6)
    n = 900
    X = rng.normal(size=(n, 2))
    t = np.tile([1, 2, 3], n // 3)
    y = 1.0 + 0.8 * X[:, 0] - 0.5 * X[:, 1] + 0.7 * (t == 2) + 1.1 * (t == 3) + 0.05 * rng.normal(size=n)
    data = Dataset.from_arrays(X, t, y)
    candidates = (
        _mainterms_spec(data, with_dummies=True),
        _rich_parametric_spec(data, with_dummies=True),
        _additive_spline_spec(data, with_dummies=True),
    )
    sl = fit_super_learner(data, candidates, seed=3)
    assert np.asarray(sl.weights).argmax() == 0


def test_super_learner_seed_reproducible():
    _, data = scenario_data(n=500, seed=7)
    f1 = fit_outcome(data, "ml", seed=42)
    f2 = fit_outcome(data, "ml", seed=42)
    np.testing.assert_array_equal(f1.predict_matrix(data.X), f2.predict_matrix(data.X))
    np.testing.assert_array_equal(np.asarray(f1.super_learner.weights), np.asarray(f2.super_learner.weights))


def test_outcome_refit_runs_full_pipeline():
    _, data = scenario_data(n=400, seed=8)
    fit = fit_outcome(data, "ml", seed=1)
    rng = np.random.default_rng(2)
    boot = data.take(rng.integers(0, data.n, data.n))
    refit = fit.refit(boot, seed=9)
    assert refit.regime == "ml"
    assert np.all(np.isfinite(refit.predict_matrix(data.X)))


# ---------------------------------------------------------------------------
# propensity fits


def test_correct_propensity_consistent_on_large_sample():
    cfg, data = scenario_data(n=60000, seed=9)
    fit = fit_propensity(data, "correct", truth_spec=truth_propensity_spec())
    truth = treatment_probabilities(cfg.beta, data.X)
    err = np.abs(fit.probs - truth)
    # max error sits on extreme covariate rows, so bound the mean tightly
    # and the max loosely
    assert err.mean() < 0.006
    assert err.max() < 0.1


def test_propensity_rows_sum_to_one():
    for regime in ("correct", "mainterms", "ml"):
        _, data = scenario_data(n=700, seed=10)
        spec = truth_propensity_spec() if regime == "correct" else None
        fit = fit_propensity(data, regime, truth_spec=spec)
        np.testing.assert_allclose(fit.probs.sum(axis=1), 1.0, atol=1e-10)
        assert fit.probs.min() > 0


def test_propensity_predict_matrix_matches_training_probs():
    _, data = scenario_data(n=500, seed=12)
    for regime in ("mainterms", "ml"):
        fit = fit_propensity(data, regime)
        np.testing.assert_allclose(fit.predict_matrix(data.X), fit.probs, atol=1e-12)


def test_ml_propensity_stepwise_is_parsimonious_under_weak_assignment():
    # weak treatment signals: BIC should keep the model small
    _, data = scenario_data("t-y-", n=1000, seed=13)
    fit = fit_propensity(data, "ml")
    assert "stepwise" in fit.description
    n_groups = int(fit.description.split("(")[1].split()[1])
    assert n_groups <= 4


def test_ml_propensity_deterministic():
    _, data = scenario_data(n=600, seed=14)
    f1 = fit_propensity(data, "ml")
    f2 = fit_propensity(data, "ml")
    np.testing.assert_array_equal(f1.probs, f2.probs)
    assert f1.description == f2.description


# ---------------------------------------------------------------------------
# fits as plain data


@pytest.mark.parametrize("regime", ("correct", "mainterms", "ml"))
def test_fits_pickle_and_predict_identically(regime):
    _, data = scenario_data("t+y+", n=400, seed=15)
    _, new = scenario_data("t+y+", n=50, seed=16)
    out = fit_outcome(data, regime, truth_spec=truth_outcome_spec(), seed=4)
    prop = fit_propensity(data, regime, truth_spec=truth_propensity_spec())
    for fit in (out, prop):
        assert not any(callable(getattr(fit, f.name)) for f in dataclasses.fields(fit))
        copy = pickle.loads(pickle.dumps(fit))
        np.testing.assert_array_equal(copy.predict_matrix(new.X), fit.predict_matrix(new.X))
    np.testing.assert_array_equal(pickle.loads(pickle.dumps(prop)).probs, prop.probs)


# ---------------------------------------------------------------------------
# low-cardinality covariates


def ordinal_data(n=600, seed=17, levels=3):
    """A spline-eligible covariate, a binary one and an ordinal one with
    `levels` distinct values, all entering the treatment and the outcome."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    b = (rng.random(n) < 0.4).astype(float)
    o = rng.integers(0, levels, n).astype(float)
    eta = np.column_stack([np.zeros(n), 0.6 * x + 0.5 * o, -0.4 * x + 0.8 * b - 0.3 * o])
    p = np.exp(eta) / np.exp(eta).sum(axis=1, keepdims=True)
    t = 1 + (rng.random(n)[:, None] > p.cumsum(axis=1)[:, :-1]).sum(axis=1)
    y = x + 0.5 * o + b + 0.7 * t + rng.normal(size=n)
    return Dataset.from_arrays(np.column_stack([x, b, o]), t, y, columns=("x", "b", "o"))


@pytest.mark.parametrize("levels", (3, 4))
def test_ml_regime_enters_low_cardinality_columns_as_main_terms(levels):
    data = ordinal_data(levels=levels)
    out = fit_outcome(data, "ml", seed=2)
    assert np.all(np.isfinite(out.predict_matrix(data.X)))
    spline_spec = out.super_learner.candidates[2]
    assert main("o") in spline_spec.terms and spline("x") in spline_spec.terms
    prop = fit_propensity(data, "ml")
    np.testing.assert_allclose(prop.probs.sum(axis=1), 1.0, atol=1e-10)
    chosen = prop.description.split("groups: ")[1].rstrip(")").split(", ")
    assert "o" in chosen  # the ordinal main group is selected
    groups = _stepwise_groups(data)
    assert [name for name in groups if "o" in name.replace(".curv", "")] == ["o"]
    assert {"x", "x.curv", "b", "x:b", "x.curv:b"} <= set(groups)


def rare_value_data(n=300, seed=0):
    """An ordinal column with values 1/2/3 about 100 times each plus one
    row each of 4 and 5: five distinct values, but its quantile knots
    coincide (1, 1, 2, 3, 5)."""
    rng = np.random.default_rng(seed)
    g = np.concatenate([np.repeat([1.0, 2.0, 3.0], [100, 99, n - 201]), [4.0, 5.0]])
    rng.shuffle(g)
    x = rng.normal(size=n)
    t = rng.integers(1, 4, n)
    y = x + 0.3 * g + t + rng.normal(size=n)
    return Dataset.from_arrays(np.column_stack([x, g]), t, y, columns=("x", "g"))


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_ml_outcome_fits_column_with_rare_values(seed):
    data = rare_value_data()
    out = fit_outcome(data, "ml", seed=seed)
    assert main("g") in out.super_learner.candidates[2].terms
    assert np.all(np.isfinite(out.predict_matrix(data.X)))
    assert "g.curv" not in _stepwise_groups(data)


def rare_top_value_data(n=300, seed=0):
    """An ordinal column with values 1..4 (60/60/60/119 rows) plus one row
    of 5: distinct knots 1, 2, 3, 4, 5 on the full data, coinciding knots
    on every cross-validation fold without the 5."""
    rng = np.random.default_rng(seed)
    g = rng.permutation(np.concatenate([np.repeat([1.0, 2.0, 3.0, 4.0], [60, 60, 60, n - 181]), [5.0]]))
    x = rng.normal(size=n)
    t = rng.integers(1, 4, n)
    y = x + 0.3 * g + t + rng.normal(size=n)
    return Dataset.from_arrays(np.column_stack([x, g]), t, y, columns=("x", "g"))


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_ml_outcome_fits_spline_column_whose_folds_cannot_carry_it(seed):
    data = rare_top_value_data()
    out = fit_outcome(data, "ml", seed=seed)
    assert spline("g") in out.super_learner.candidates[2].terms
    assert np.all(np.isfinite(out.predict_matrix(data.X)))


# ---------------------------------------------------------------------------
# cross-validation folds and their designs


def reference_folds(n, folds, seed):
    """Round-robin fold assignment over a seeded permutation, as a loop."""
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=int)
    for i in range(folds):
        fold_of[perm[i::folds]] = i
    return fold_of


def test_cv_folds_keep_the_permutation_when_every_training_fold_has_every_level():
    _, data = scenario_data(n=300, seed=3)
    for seed in range(5):
        np.testing.assert_array_equal(_cv_folds(data, 10, seed), reference_folds(data.n, 10, seed))


def small_arm_data(arm_rows, n=200, seed=0):
    """Three arms; arm 3 has `arm_rows` rows."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2))
    t = np.concatenate([np.tile([1, 2], (n - arm_rows) // 2 + 1)[: n - arm_rows], np.full(arm_rows, 3)])
    y = X[:, 0] + t + rng.normal(size=n)
    return Dataset.from_arrays(X, t, y)


@pytest.mark.parametrize("arm_rows", (2, 3))
def test_cv_folds_put_every_level_in_every_training_fold(arm_rows):
    data = small_arm_data(arm_rows)
    repaired = 0
    for seed in range(60):
        fold_of, reference = _cv_folds(data, 10, seed), reference_folds(data.n, 10, seed)
        # the permutation is kept unless it leaves the small arm in one fold
        in_one_fold = len(set(reference[data.t == 3])) == 1
        assert np.any(fold_of != reference) == in_one_fold
        repaired += in_one_fold
        for f in range(10):
            assert set(data.t[fold_of != f]) == {1, 2, 3}
    assert repaired > 0 or arm_rows > 2


def test_cv_folds_reject_a_single_row_level():
    with pytest.raises(ValueError, match="treatment level 3 has 1 row"):
        _cv_folds(small_arm_data(1), 10, 0)


def test_sliced_fold_designs_equal_per_fold_expansion():
    data = ordinal_data(n=300)
    for spec in (_mainterms_spec(data, True), _rich_parametric_spec(data, True)):
        D = bind_design(data, spec).matrix(data.X, data.t)
        fold_of = _cv_folds(data, 10, 1)
        for f in range(10):
            train, test = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
            sub = data.take(train)
            bound = bind_design(sub, spec)
            assert not bound.knots
            np.testing.assert_array_equal(D[train], bound.matrix(sub.X, sub.t))
            np.testing.assert_array_equal(D[test], bound.matrix(data.X[test], data.t[test]))


def reference_super_learner(data, candidates, folds, seed):
    """Cross-validated predictions by binding and expanding every candidate
    on every training fold, then the same stacking."""
    from scipy.optimize import nnls

    fold_of = reference_folds(data.n, folds, seed)
    cv_pred = np.zeros((data.n, len(candidates)))
    for c, spec in enumerate(candidates):
        for f in range(folds):
            train, test = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
            sub = data.take(train)
            bound = bind_design(sub, spec)
            fit = fit_ols(bound.matrix(sub.X, sub.t), sub.y)
            cv_pred[test, c] = fit.predict(bound.matrix(data.X[test], data.t[test]))
    weights, _ = nnls(cv_pred, data.y)
    return weights / weights.sum(), ((cv_pred - data.y[:, None]) ** 2).mean(axis=0)


def test_super_learner_equals_reference_fold_loop():
    data = ordinal_data(n=400, seed=21)
    candidates = (
        _mainterms_spec(data, with_dummies=True),
        _rich_parametric_spec(data, with_dummies=True),
        _additive_spline_spec(data, with_dummies=True),
    )
    sl = fit_super_learner(data, candidates, seed=5)
    weights, cv_risks = reference_super_learner(data, candidates, 10, 5)
    np.testing.assert_array_equal(sl.weights, weights)
    np.testing.assert_array_equal(sl.cv_risks, cv_risks)
