"""IPW and overlap-weighting estimators plus the EffectEstimate container."""

import numpy as np
import pytest
from hypothesis import given, settings

from drawn_inputs import strata_inputs
from fitstubs import StubOutcomeFit, StubPropensityFit
from mlte.simengine import METHOD_TABLE, _apply_methods
from mlte.tabular import Dataset, all_pairs
from mlte.weighting import (
    EffectEstimate,
    aow_influence,
    compute_overlap_weights,
    estimate_aow,
    estimate_ipw,
    estimate_ow,
    ow_influence,
)


def propensity_from_probs(probs, regime="correct"):
    probs = np.asarray(probs, dtype=float)
    return StubPropensityFit(regime, probs, "fixed probs", True, lambda X: probs)


def constant_outcome_fit(data, per_level):
    """OutcomeFit returning a fixed value for each treatment level."""
    per_level = np.asarray(per_level, dtype=float)

    def predict(level, X):
        return np.full(X.shape[0], per_level[level - 1])

    return StubOutcomeFit("correct", data.k, "constant", predict, lambda d, s: None)


def tiny_k2():
    X = np.arange(8, dtype=float).reshape(4, 2)
    t = np.array([1, 1, 2, 2])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    return Dataset.from_arrays(X, t, y)


# ---------------------------------------------------------------------------
# IPW


def test_ipw_hand_computed():
    data = tiny_k2()
    p1 = np.array([0.5, 0.25, 0.4, 0.8])
    prop = propensity_from_probs(np.column_stack([p1, 1 - p1]))
    est = estimate_ipw(data, prop, (2, 1))
    # psi = [-1/0.5, -2/0.25, 3/0.6, 4/0.2] = [-2, -8, 5, 20]
    assert est.tau_hat == pytest.approx(3.75)
    assert est.variance == pytest.approx(436.75 / 16)
    assert est.method == "ipw"
    assert est.estimand == "population"


@pytest.mark.parametrize("pair", [(1, 1), (0, 2), (3, 1)])
def test_ipw_rejects_bad_pair(pair):
    data = tiny_k2()
    prop = propensity_from_probs(np.full((4, 2), 0.5))
    with pytest.raises(ValueError):
        estimate_ipw(data, prop, pair)


# ---------------------------------------------------------------------------
# overlap weights


def test_two_level_overlap_weight_is_opposite_probability():
    rng = np.random.default_rng(0)
    n = 50
    p1 = rng.uniform(0.05, 0.95, n)
    t = rng.integers(1, 3, n)
    prop = propensity_from_probs(np.column_stack([p1, 1 - p1]))
    ow = compute_overlap_weights(prop, t)
    expected = np.where(t == 1, 1 - p1, p1)
    np.testing.assert_allclose(ow.w, expected, rtol=1e-12)
    np.testing.assert_allclose(ow.h, p1 * (1 - p1), rtol=1e-12)


def test_overlap_weights_three_levels_harmonic():
    probs = np.array([[0.2, 0.3, 0.5]])
    prop = propensity_from_probs(probs)
    ow = compute_overlap_weights(prop, np.array([2]))
    h = 1.0 / (1 / 0.2 + 1 / 0.3 + 1 / 0.5)
    assert ow.h[0] == pytest.approx(h, rel=1e-12)
    assert ow.w[0] == pytest.approx(h / 0.3, rel=1e-12)


def test_overlap_weights_row_mismatch():
    prop = propensity_from_probs(np.full((4, 2), 0.5))
    with pytest.raises(ValueError):
        compute_overlap_weights(prop, np.array([1, 2]))


def test_ow_influence_sums_to_zero():
    rng = np.random.default_rng(3)
    n = 200
    X = rng.normal(size=(n, 2))
    t = rng.integers(1, 4, n)
    t[:3] = [1, 2, 3]
    y = rng.normal(size=n)
    data = Dataset.from_arrays(X, t, y)
    raw = rng.uniform(0.1, 1.0, (n, 3))
    prop = propensity_from_probs(raw / raw.sum(axis=1, keepdims=True))
    ow = compute_overlap_weights(prop, data.t)
    for pair in ((2, 1), (3, 1), (3, 2)):
        tau, D = ow_influence(data, ow, pair)
        assert abs(D.sum()) < 1e-10
        est = estimate_ow(data, ow, pair)
        assert est.tau_hat == pytest.approx(tau)
        assert est.variance == pytest.approx(float((D**2).sum()) / n**2)


def test_aow_reduces_to_ow_for_constant_predictions():
    rng = np.random.default_rng(4)
    n = 120
    X = rng.normal(size=(n, 2))
    t = rng.integers(1, 4, n)
    t[:3] = [1, 2, 3]
    y = rng.normal(size=n)
    data = Dataset.from_arrays(X, t, y)
    raw = rng.uniform(0.2, 1.0, (n, 3))
    prop = propensity_from_probs(raw / raw.sum(axis=1, keepdims=True))
    ow = compute_overlap_weights(prop, data.t)
    out = constant_outcome_fit(data, [5.0, -1.0, 2.5])
    for pair in ((2, 1), (3, 2)):
        plain = estimate_ow(data, ow, pair)
        aug = estimate_aow(data, ow, out, prop, pair)
        assert aug.tau_hat == pytest.approx(plain.tau_hat, abs=1e-12)
        assert aug.method == "aow"
        tau, D = aow_influence(data, ow, out, prop, pair)
        assert aug.variance == pytest.approx(float((D**2).sum()) / n**2)


# ---------------------------------------------------------------------------
# closed forms on saturated strata


def stratified_contrast(data, strata, pair, estimand):
    """Sum_s w_s (ybar_{a,s} - ybar_{b,s}) / Sum_s w_s over strata s, with
    w_s = n_s for the post-stratified (population) contrast and
    w_s = n_s h_s, h_s = 1 / Sum_l (1 / p_{l,s}) from the stratum's arm
    shares p_{l,s}, for the overlap-stratified one."""
    in_cell = [[(strata == s) & (data.t == lev) for lev in range(1, data.k + 1)]
               for s in range(strata.max() + 1)]
    size = np.array([[cell.sum() for cell in row] for row in in_cell], dtype=float)
    n_s = size.sum(axis=1)
    w = n_s if estimand == "population" else n_s / (n_s[:, None] / size).sum(axis=1)
    mean = [[data.y[cell].mean() for cell in row] for row in in_cell]
    gap = np.array([row[pair[0] - 1] - row[pair[1] - 1] for row in mean])
    return float((w * gap).sum() / w.sum())


@settings(max_examples=25)
@given(strata_inputs())
@pytest.mark.parametrize("method", ("ipw", "tmle", "ow", "aow"))
def test_estimators_equal_the_stratified_contrast_on_saturated_strata(method, drawn):
    # the mainterms multinomial on stratum dummies is saturated, so its
    # probabilities are each stratum's arm shares (to the Newton tolerance,
    # which sets rtol); stan's outcome design has no treatment-by-stratum
    # terms and is the stated exception
    data, strata = drawn
    pairs = all_pairs(data.k)
    results, failures = _apply_methods(data, "mainterms", [method], pairs, 0, 0, 0, 1)
    assert failures == {}
    estimand = METHOD_TABLE[method].estimand
    for pair in pairs:
        est = results[(method, pair)]
        assert est.estimand == estimand
        assert est.tau_hat == pytest.approx(stratified_contrast(data, strata, pair, estimand), rel=1e-6)


# ---------------------------------------------------------------------------
# EffectEstimate


def test_effect_estimate_ci_and_coverage():
    est = EffectEstimate((2, 1), 1.0, 0.04, "population", "crude")
    lo, hi = est.ci95
    assert lo == pytest.approx(1.0 - 1.959963984540054 * 0.2)
    assert hi == pytest.approx(1.0 + 1.959963984540054 * 0.2)
    assert est.se == pytest.approx(0.2)
    assert est.covers(1.0)
    assert est.covers(lo) and est.covers(hi)
    assert not est.covers(hi + 1e-9)


def test_effect_estimate_nan_variance_gives_nan_ci():
    est = EffectEstimate((2, 1), 1.0, float("nan"), "population", "stan")
    assert np.isnan(est.ci95[0]) and np.isnan(est.ci95[1])
    assert not est.covers(1.0)


def test_effect_estimate_validation():
    with pytest.raises(ValueError):
        EffectEstimate((2, 1), 0.0, -1.0, "population", "crude")
    with pytest.raises(ValueError):
        EffectEstimate((2, 1), 0.0, 1.0, "conditional", "crude")


def test_effect_estimate_casts_its_numbers_and_derives_its_interval():
    # estimators hand over numpy scalars; the record holds Python numbers,
    # and its interval is tau -/+ z * sqrt(variance) to the last bit
    est = EffectEstimate(
        (np.int64(3), np.int32(1)), np.float64(0.7), np.float64(0.09), "overlap", "ow"
    )
    assert est.pair == (3, 1) and all(type(c) is int for c in est.pair)
    assert type(est.tau_hat) is float and type(est.variance) is float
    half = 1.959963984540054 * float(np.sqrt(0.09))
    assert est.ci95 == (0.7 - half, 0.7 + half)
    assert EffectEstimate((2, 1), 0.5, float("inf"), "population", "crude").covers(0.5) is False
