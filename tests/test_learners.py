"""Outcome and propensity model regimes, including the stacked learner."""

import dataclasses
import pickle
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mlte.learners import (
    _is_binary_sorted,
    _cv_folds,
    _ml_candidates,
    _nnls,
    _sorted_columns,
    _stepwise_groups,
    fit_outcome,
    fit_propensity,
    fit_super_learner,
    _additive_spline_spec,
    _rich_parametric_spec,
)
from mlte.simengine import (
    ScenarioConfig,
    simulate_dataset,
    treatment_probabilities,
    truth_outcome_spec,
    truth_propensity_spec,
)
import mlte.learners
from mlte.glm import LinearFit, fit_multinomial
from mlte.tabular import (
    Dataset,
    DesignSpec,
    _knots_of_sorted,
    bind_design,
    curvature,
    intercept,
    main,
    spline,
    square,
)
from drawn_inputs import super_learner_inputs
from reference_paths import reference_folds, reference_super_learner
from test_tabular import coincident_knot_column


def scenario_data(scenario="t-y-", n=800, seed=0, rep=0, regime="correct"):
    cfg = ScenarioConfig.named(scenario, n=n, reps=1, seed=seed, regime=regime)
    return cfg, simulate_dataset(cfg, rep)


def ml_candidates(data):
    """The three candidates of an ml outcome fit."""
    return _ml_candidates(data, _sorted_columns(data))


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


def test_ml_outcome_prediction_is_the_weighted_sum_of_its_components():
    # weights 0, 0.78 and 0.22: the zero-weight candidate is skipped and
    # the other two are summed in component order
    _, data = scenario_data()
    fit = fit_outcome(data, "ml", seed=42)
    assert [w == 0.0 for w, _, _ in fit.components] == [True, False, False]
    for level in range(1, data.k + 1):
        want = sum(w * glm.predict(bound.matrix(data.X, level))
                   for w, bound, glm in fit.components if w != 0.0)
        np.testing.assert_array_equal(fit.predict(level, data.X), want)


def test_outcome_predict_rejects_an_overflowing_prediction():
    _, data = scenario_data(n=300)
    fit = fit_outcome(data, "mainterms")
    (_, bound, _), = fit.components
    huge = dataclasses.replace(fit, components=((1.0, bound, LinearFit(np.full(bound.n_columns, 1e308))),))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite outcome prediction"):
        # every coefficient 1e308 on covariates of 10: the sum overflows to inf
        huge.predict(1, np.full((2, data.X.shape[1]), 10.0))


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
    w = np.array([weight for weight, _, _ in fit.components])
    assert np.all(w >= -1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-8)
    assert len(fit.cv_risks) == len(w)
    assert fit_outcome(data, "mainterms").cv_risks is None


def test_super_learner_prefers_correct_candidate_family():
    # linear truth: the main-terms candidate should carry most weight
    rng = np.random.default_rng(6)
    n = 900
    X = rng.normal(size=(n, 2))
    t = np.tile([1, 2, 3], n // 3)
    y = 1.0 + 0.8 * X[:, 0] - 0.5 * X[:, 1] + 0.7 * (t == 2) + 1.1 * (t == 3) + 0.05 * rng.normal(size=n)
    components, _ = fit_super_learner(Dataset.from_arrays(X, t, y), seed=3)
    assert np.argmax([weight for weight, _, _ in components]) == 0


def test_super_learner_seed_reproducible():
    _, data = scenario_data(n=500, seed=7)
    f1 = fit_outcome(data, "ml", seed=42)
    f2 = fit_outcome(data, "ml", seed=42)
    np.testing.assert_array_equal(f1.predict_matrix(data.X), f2.predict_matrix(data.X))
    assert [w for w, _, _ in f1.components] == [w for w, _, _ in f2.components]


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


def test_ml_propensity_keeps_the_fit_of_its_stepwise_search(monkeypatch):
    # one multinomial fit per BIC evaluation and none after the search: the
    # chosen design's fit from the search is the propensity model
    _, data = scenario_data("t+y+", n=600, seed=17)
    fits = []

    def counting(*args, **kwargs):
        fits.append(1)
        return fit_multinomial(*args, **kwargs)

    monkeypatch.setattr(mlte.learners, "fit_multinomial", counting)
    fit = fit_propensity(data, "ml")
    chosen = fit.description.split(": ")[1].rstrip(")").split(", ")
    assert chosen and chosen != ["intercept only"]
    groups = _stepwise_groups(data, _sorted_columns(data))
    evaluations = 1 + sum(
        sum(1 for name, (_, needs) in groups.items()
            if name not in chosen[:r] and needs.issubset(chosen[:r]))
        for r in range(len(chosen) + 1)
    )
    assert len(fits) == evaluations
    np.testing.assert_array_equal(fit.probs, fit.predict_matrix(data.X))


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
        bounds = [bound for _, bound, _ in fit.components] if fit is out else [fit.bound]
        fit.predict_matrix(new.X)  # every bound design now keeps new.X's term block
        assert all(bound._memo is not None for bound in bounds)
        copy = pickle.loads(pickle.dumps(fit))
        copies = [bound for _, bound, _ in copy.components] if fit is out else [copy.bound]
        assert all(bound._memo is None for bound in copies)
        assert copies == bounds
        np.testing.assert_array_equal(copy.predict_matrix(new.X), fit.predict_matrix(new.X))
    np.testing.assert_array_equal(pickle.loads(pickle.dumps(prop)).probs, prop.probs)


def test_unpickled_data_and_probabilities_stay_read_only():
    # plasmode workers receive their data and fits as pickles
    _, data = scenario_data("t+y-", n=200, seed=15)
    prop = fit_propensity(data, "mainterms")
    copy, prop_copy = pickle.loads(pickle.dumps((data, prop)))
    for array in (copy.X, copy.t, copy.y, prop_copy.probs):
        assert not array.flags.writeable
    np.testing.assert_array_equal(copy.X, data.X)
    np.testing.assert_array_equal(prop_copy.probs, prop.probs)


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
    spline_spec = out.components[2][1].spec
    assert main("o") in spline_spec.terms and curvature("x") in spline_spec.terms
    prop = fit_propensity(data, "ml")
    np.testing.assert_allclose(prop.probs.sum(axis=1), 1.0, atol=1e-10)
    chosen = prop.description.split("groups: ")[1].rstrip(")").split(", ")
    assert "o" in chosen  # the ordinal main group is selected
    groups = _stepwise_groups(data, _sorted_columns(data))
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
    assert main("g") in out.components[2][1].spec.terms
    assert np.all(np.isfinite(out.predict_matrix(data.X)))
    assert "g.curv" not in _stepwise_groups(data, _sorted_columns(data))


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
    assert curvature("g") in out.components[2][1].spec.terms
    assert np.all(np.isfinite(out.predict_matrix(data.X)))


# ---------------------------------------------------------------------------
# cross-validation folds and their designs


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
    for spec in ml_candidates(data)[:2]:
        D = bind_design(data, spec).matrix(data.X, data.t)
        fold_of = _cv_folds(data, 10, 1)
        for f in range(10):
            train, test = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
            sub = data.take(train)
            bound = bind_design(sub, spec)
            assert not bound.knots
            np.testing.assert_array_equal(D[train], bound.matrix(sub.X, sub.t))
            np.testing.assert_array_equal(D[test], bound.matrix(data.X[test], data.t[test]))


def assert_super_learner_equals_reference(data, seed=5):
    """`fit_super_learner` against `reference_super_learner` on the ml
    candidates: weights, cv risks and coefficients, bit for bit."""
    components, cv_risks = fit_super_learner(data, seed=seed)
    want_weights, want_risks, coefficients = reference_super_learner(data, ml_candidates(data), 10, seed)
    np.testing.assert_array_equal([w for w, _, _ in components], want_weights)
    np.testing.assert_array_equal(cv_risks, want_risks)
    for (_, _, fit), coef in zip(components, coefficients):
        np.testing.assert_array_equal(fit.coefficients, coef)


def test_super_learner_equals_reference_fold_loop():
    assert_super_learner_equals_reference(ordinal_data(n=400, seed=21))


def tied_column_data(n=400, seed=4):
    """A spline-eligible column rounded to one decimal, so that most of its
    values repeat, next to a continuous one."""
    rng = np.random.default_rng(seed)
    x, r = rng.normal(size=n), np.round(rng.normal(size=n), 1)
    t = rng.integers(1, 4, n)
    y = x + 0.5 * r + t + rng.normal(size=n)
    return Dataset.from_arrays(np.column_stack([x, r]), t, y, columns=("x", "r"))


@pytest.mark.parametrize("make", (ordinal_data, rare_top_value_data, tied_column_data))
def test_one_sort_fold_knots_equal_binding_each_fold(make, monkeypatch):
    # every binding a fit makes, on the full data and on each training fold,
    # against binding the same rows by sorting each column
    data = make()
    bindings = []

    def checked(sub, spec, sorted_columns):
        bindings.append((spec, bind_design(sub, spec, sorted_columns), bind_design(sub, spec)))
        return bindings[-1][1]

    monkeypatch.setattr(mlte.learners, "bind_design", checked)
    fit_super_learner(data, seed=3)
    assert len(bindings) == 3 + 10  # each candidate once, the spline one per fold
    for _, got, want in bindings:
        assert got == want
        assert all(got.knots[pos].tobytes() == want.knots[pos].tobytes() for pos in want.knots)
    # the fold without the single 5 binds that column as a main term
    assert sum(got.spec != spec for spec, got, _ in bindings) == (make is rare_top_value_data)


def binary_and_constant_data(n=60):
    """Arms 1, 2, 3 in turn, a binary covariate and a constant one: the
    three candidates' cross-validated predictions are (nearly) equal, where
    `_nnls` fails and the least-risk candidate takes all the weight."""
    rng = np.random.default_rng(0)
    t = np.tile([1, 2, 3], n // 3)
    b = (rng.random(n) < 0.5).astype(float)
    y = b + t + rng.normal(size=n)
    return Dataset.from_arrays(np.column_stack([b, np.ones(n)]), t, y, columns=("b", "c"))


@pytest.mark.parametrize("make", (ordinal_data, rare_top_value_data, binary_and_constant_data))
def test_super_learner_equals_reference_on_low_cardinality_columns(make):
    data = make()
    np.testing.assert_array_equal(_cv_folds(data, 10, 5), reference_folds(data.n, 10, 5))
    assert_super_learner_equals_reference(data)


@settings(max_examples=60)
@given(super_learner_inputs())
def test_super_learner_equals_reference_on_drawn_inputs(data):
    assume(np.array_equal(_cv_folds(data, 10, 5), reference_folds(data.n, 10, 5)))
    assert_super_learner_equals_reference(data)


def memory_data(n=2000, seed=11):
    """The shape of an `mlte estimate` input: three continuous covariates,
    two binary ones and four arms."""
    rng = np.random.default_rng(seed)
    x1, x3 = rng.normal(size=n), rng.uniform(-1.0, 1.0, n)
    x2 = rng.normal(0.5 * x1, 1.0)
    b1, b2 = (rng.random(n) < 0.4).astype(float), (rng.random(n) < 0.6).astype(float)
    t = rng.integers(1, 5, n)
    y = x1 + np.sin(x2) + x3 * b1 + b2 + 0.5 * t + rng.normal(size=n)
    return Dataset.from_arrays(np.column_stack([x1, x2, x3, b1, b2]), t, y)


def design_bytes(data):
    """Bytes of the full-data designs of the three ml candidates."""
    return data.n * 8 * sum(bind_design(data, spec).n_columns for spec in ml_candidates(data))


def traced_peak(call):
    """Peak bytes that tracemalloc sees allocated while `call()` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_super_learner_memory_is_bounded_by_two_design_copies():
    # a fit works one candidate at a time in one buffer it owns: that
    # candidate's design and one fold's gathered rows of it; no other
    # candidate's design is alive meanwhile
    data = memory_data()
    assert traced_peak(lambda: fit_super_learner(data, seed=3)) < 2 * design_bytes(data)


@pytest.mark.parametrize("regime", ("correct", "ml"))
def test_predict_rejects_levels_outside_one_to_k(regime):
    _, data = scenario_data(n=300)
    out = fit_outcome(data, regime, truth_outcome_spec(), seed=1)
    for level in (0, data.k + 1):
        with pytest.raises(ValueError, match=rf"treatment level {level} outside 1\.\.{data.k}"):
            out.predict(level, data.X)


def nnls_problems(seed, count):
    """Seeded stacking-like problems: columns are noisy copies of the
    outcome, some duplicated (the spline candidate equals the main-terms
    one when no covariate is spline-eligible), some with an all-zero
    optimum, some with a single column, and some with correlated columns
    of mixed sign, where columns leave the active set again; each problem
    is rescaled by up to 1e6 either way."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m, k = int(rng.integers(20, 601)), (1, 3, 3, 3, 5)[i % 5]
        y = rng.normal(size=m)
        A = y[:, None] + rng.normal(scale=rng.uniform(0.1, 3.0), size=(m, k))
        kind = i % 7
        if kind == 1 and k >= 3:
            A[:, 2] = A[:, 0]
        elif kind == 2 and k >= 2:
            A[:, 1] = A[:, 0]
        elif kind == 3 and k >= 3:
            A[:, 2] = A[:, 1]
        elif kind == 4:
            y = -y  # every column points away from y: the optimum is 0
        elif kind == 5:
            A = rng.normal(size=(m, k))
        elif kind == 6:
            Z = rng.normal(size=(m, k))
            A = Z + 0.5 * Z @ rng.normal(size=(k, k))
            y = A @ rng.normal(size=k) + rng.normal(size=m)
        scale = 10.0 ** rng.uniform(-6, 6)
        yield scale * A, scale * y


def test_nnls_matches_scipy():
    from scipy.optimize import nnls

    zero_optima = ties = single = 0
    for A, y in nnls_problems(seed=3, count=700):
        expected, _ = nnls(A, y)
        got = _nnls(A, y)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12 * max(1.0, expected.max()))
        # the same columns are exactly 0, so equal columns break ties alike
        np.testing.assert_array_equal(got == 0, expected == 0)
        zero_optima += not expected.any()
        ties += any(np.array_equal(A[:, i], A[:, j]) for i in range(A.shape[1]) for j in range(i))
        single += A.shape[1] == 1
    assert zero_optima > 50 and ties > 150 and single > 100


# ---------------------------------------------------------------------------
# one sort per covariate per ml fit


def covariate_column(kind, seed, n=300):
    """A column of one of the kinds whose binary and spline answers the ml
    designs read from its sorted copy."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(-3, 4, n) * rng.uniform(1e-3, 1e3)
    if kind == "signed zeros":
        return rng.choice([-0.0, 0.0] + [1.0] * (seed % 2), n)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "two values":
        return rng.choice([-7.5, 2.25], n)
    if kind == "ordinal":
        return rng.integers(0, 3, n).astype(float)
    if kind == "coincident knots":
        return coincident_knot_column()
    if kind == "rare top value":
        return rng.permutation(np.concatenate([np.repeat([1.0, 2.0, 3.0, 4.0], [60, 60, 60, n - 181]), [5.0]]))
    return rng.normal(size=n)


KINDS = ("ties", "signed zeros", "constant", "two values", "ordinal", "coincident knots",
         "rare top value", "continuous")


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(KINDS), st.integers(0, 2**16)), min_size=1, max_size=4))
def test_sorted_column_answers_equal_unique_and_sorting_each_column(kinds):
    X = np.column_stack([covariate_column(kind, seed) for kind, seed in kinds])
    data = Dataset.from_arrays(X, np.tile([1, 2, 3], 100), np.zeros(300))
    columns = _sorted_columns(data)
    binary, eligible = [], []
    for x, s in zip(X.T, columns):
        assert _is_binary_sorted(s) == (len(np.unique(x)) <= 2)
        knots, want = _knots_of_sorted(s), _knots_of_sorted(np.sort(x))
        if want is None:
            assert knots is None
        else:
            np.testing.assert_array_equal(knots, want)
            assert knots.tobytes() == want.tobytes()
        binary.append(len(np.unique(x)) <= 2)
        eligible.append(want is not None)
    names = data.columns
    assert _additive_spline_spec(data, True, columns).terms == (intercept(),) + tuple(
        term for c, ok in zip(names, eligible) for term in (spline(c) if ok else [main(c)]))
    rich = _rich_parametric_spec(data, True, columns).terms
    assert [term for term in rich if term[0] == "interaction" and term[1] == term[2]] == [
        square(c) for c, b in zip(names, binary) if not b]
    splined = [c for c, ok in zip(names, eligible) if ok]
    binaries = [c for c, ok, b in zip(names, eligible, binary) if b and not ok]
    assert set(_stepwise_groups(data, columns)) == set(names) | {f"{c}.curv" for c in splined} | {
        f"{c}{curv}:{b}" for c in splined for b in binaries for curv in ("", ".curv")}


def stepwise_data():
    return scenario_data("t+y+", n=600, seed=17)[1]


@pytest.mark.parametrize("make", (ordinal_data, rare_value_data, rare_top_value_data,
                                  tied_column_data, stepwise_data))
def test_stepwise_designs_bound_from_shared_sorted_columns_equal_sorting_each(make):
    data = make()
    columns = _sorted_columns(data)
    all_terms = DesignSpec(tuple(term for term, _ in _stepwise_groups(data, columns).values()))
    chosen = fit_propensity(data, "ml").bound
    for got, want in ((bind_design(data, all_terms, columns), bind_design(data, all_terms)),
                      (chosen, bind_design(data, chosen.spec))):
        assert got == want
        assert all(got.knots[pos].tobytes() == want.knots[pos].tobytes() for pos in want.knots)


def test_ml_fits_sort_each_covariate_once(monkeypatch):
    # counted by calling module, so that the sorts numpy makes inside its
    # own routines do not count
    data = ordinal_data()
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, sys._getframe(1).f_globals["__name__"]))
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "sort", counting("sort", np.sort))
    monkeypatch.setattr(np, "argsort", counting("sort", np.argsort))
    monkeypatch.setattr(np, "unique", counting("unique", np.unique))
    for fit in (lambda: fit_outcome(data, "ml", seed=2), lambda: fit_propensity(data, "ml")):
        calls.clear()
        fit()
        assert ("unique", "mlte.learners") not in calls
        sorts = [module for name, module in calls if name == "sort" and module.startswith("mlte")]
        assert len(sorts) <= data.X.shape[1]
