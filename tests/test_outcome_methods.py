"""Crude, standardization, and TMLE estimators."""

import numpy as np
import pytest

from fitstubs import StubOutcomeFit
from mlte import learners
from mlte.learners import fit_outcome, fit_propensity
from mlte.outcome_methods import (
    _bootstrap_resample,
    estimate_crude,
    estimate_tmle,
    stan_bootstrap,
    stan_estimates,
    tmle_fluctuations,
)
from mlte.simengine import ScenarioConfig, simulate_dataset
from mlte.tabular import Dataset


def linear_outcome_fit(data):
    """Stub predictor m_t(x) = t * x1, for hand-checkable plug-in contrasts."""

    def predict(level, X):
        return level * X[:, 0]

    return StubOutcomeFit("correct", data.outcome_kind, data.k, "stub", predict, lambda d, s: None)


def scenario_data(n=300, seed=0):
    cfg = ScenarioConfig.named("t-y-", n=n, reps=1, seed=seed, regime="mainterms")
    return simulate_dataset(cfg, 0)


# ---------------------------------------------------------------------------
# crude


def test_crude_hand_computed():
    X = np.zeros((5, 1))
    data = Dataset.from_arrays(X, [1, 1, 1, 2, 2], [1.0, 2.0, 3.0, 10.0, 14.0])
    est = estimate_crude(data, (2, 1))
    assert est.tau_hat == pytest.approx(10.0)
    # per-arm sample variances over arm sizes: 1/3 + 8/2
    assert est.variance == pytest.approx(1.0 / 3.0 + 4.0)
    assert est.n_used == 5


def test_crude_ignores_other_arms():
    X = np.zeros((6, 1))
    data = Dataset.from_arrays(X, [1, 1, 2, 2, 3, 3], [0.0, 2.0, 50.0, 60.0, 4.0, 6.0])
    est = estimate_crude(data, (3, 1))
    assert est.tau_hat == pytest.approx(4.0)
    assert est.n_used == 4


def test_crude_missing_level_raises():
    X = np.zeros((4, 1))
    data = Dataset.from_arrays(X, [1, 1, 2, 2], [0.0, 1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        estimate_crude(data, (5, 1))


def test_crude_single_row_arm_drops_its_variance_term():
    X = np.zeros((4, 1))
    data = Dataset.from_arrays(X, [1, 2, 2, 2], [5.0, 1.0, 2.0, 3.0])
    est = estimate_crude(data, (2, 1))
    assert est.variance == pytest.approx(np.var([1.0, 2.0, 3.0], ddof=1) / 3)


# ---------------------------------------------------------------------------
# standardization


def test_stan_point_estimate_averages_predicted_contrast():
    data = scenario_data()
    out = linear_outcome_fit(data)
    est = stan_estimates(data, out, [(2, 1)], bootstrap_reps=0)[(2, 1)]
    assert est.tau_hat == pytest.approx(data.X[:, 0].mean())
    est31 = stan_estimates(data, out, [(3, 1)], bootstrap_reps=0)[(3, 1)]
    assert est31.tau_hat == pytest.approx(2 * data.X[:, 0].mean())


def test_stan_without_bootstrap_has_nan_inference():
    data = scenario_data()
    out = linear_outcome_fit(data)
    est = stan_estimates(data, out, [(2, 1)], bootstrap_reps=0)[(2, 1)]
    assert np.isnan(est.variance)
    assert np.isnan(est.ci95[0])


def test_stan_single_bootstrap_rep_cannot_form_variance(monkeypatch):
    # one draw gives no variance, so none is drawn: fit_outcome runs only for
    # the point fit
    calls = []
    real = learners.fit_outcome

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(learners, "fit_outcome", counting)
    data = scenario_data(n=200)
    out = learners.fit_outcome(data, "ml", seed=1)
    est = stan_estimates(data, out, [(2, 1), (3, 1)], bootstrap_reps=1, seed=5)
    assert calls == ["ml"]
    assert all(np.isnan(e.variance) and np.isnan(e.ci95).all() for e in est.values())


def test_stan_bootstrap_seed_determinism():
    data = scenario_data(n=200)
    out = fit_outcome(data, "mainterms")
    v1 = stan_bootstrap(data, out, [(2, 1)], bootstrap_reps=12, seed=9)
    v2 = stan_bootstrap(data, out, [(2, 1)], bootstrap_reps=12, seed=9)
    v3 = stan_bootstrap(data, out, [(2, 1)], bootstrap_reps=12, seed=10)
    assert v1[(2, 1)] == v2[(2, 1)]
    assert v1[(2, 1)] != v3[(2, 1)]
    assert v1[(2, 1)] > 0


def test_stan_bootstrap_shares_resamples_across_pairs():
    data = scenario_data(n=200)
    out = fit_outcome(data, "mainterms")
    alone = stan_bootstrap(data, out, [(2, 1)], bootstrap_reps=12, seed=3)
    together = stan_bootstrap(data, out, [(2, 1), (3, 1)], bootstrap_reps=12, seed=3)
    assert alone[(2, 1)] == together[(2, 1)]


def test_bootstrap_resample_keeps_every_level():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 2))
    t = np.full(40, 1)
    t[20:38] = 2
    t[38:] = 3  # rare level: 2 of 40 rows
    data = Dataset.from_arrays(X, t, rng.normal(size=40))
    for s in range(30):
        boot = _bootstrap_resample(data, np.random.default_rng(s))
        assert (np.bincount(boot.t, minlength=4)[1:] >= 2).all()


def test_ml_stan_with_a_three_row_arm_gives_finite_estimates():
    # a resample keeping one row of the arm used to break cross-validation
    rng = np.random.default_rng(4)
    n = 200
    X = rng.normal(size=(n, 2))
    t = np.concatenate([np.tile([1, 2], (n - 3) // 2 + 1)[: n - 3], [3, 3, 3]])
    data = Dataset.from_arrays(X, t, X[:, 0] + t + rng.normal(size=n))
    out = fit_outcome(data, "ml", seed=1)
    for seed in range(8):
        est = stan_estimates(data, out, [(3, 1), (2, 1)], bootstrap_reps=20, seed=seed)
        assert all(np.isfinite([e.tau_hat, e.variance]).all() for e in est.values())


def test_mainterms_stan_with_a_one_row_arm_gives_finite_estimates():
    # every resample keeps a 1-row arm's only row, so its draws understate
    # the variance: that pair gets no variance, the other keeps its bootstrap
    rng = np.random.default_rng(4)
    n = 200
    X = rng.normal(size=(n, 2))
    t = np.concatenate([np.tile([1, 2], (n - 1) // 2 + 1)[: n - 1], [3]])
    data = Dataset.from_arrays(X, t, X[:, 0] + t + rng.normal(size=n))
    out = fit_outcome(data, "mainterms")
    est = stan_estimates(data, out, [(3, 1), (2, 1)], bootstrap_reps=50, seed=0)
    assert all(np.isfinite(e.tau_hat) for e in est.values())
    assert np.isfinite(est[(2, 1)].variance) and est[(2, 1)].variance > 0
    assert np.isnan(est[(3, 1)].variance) and np.isnan(est[(3, 1)].ci95).all()
    alone = stan_bootstrap(data, out, [(2, 1)], bootstrap_reps=50, seed=0)
    assert est[(2, 1)].variance == alone[(2, 1)]


def test_bootstrap_resample_gives_up_eventually():
    data = scenario_data(n=60)

    class StuckRng:
        def integers(self, lo, hi, size):
            return np.zeros(size, dtype=int)

    with pytest.raises(RuntimeError, match="fewer than 2 rows"):
        _bootstrap_resample(data, StuckRng())


# ---------------------------------------------------------------------------
# TMLE


def tmle_inputs(n=400, seed=2):
    data = scenario_data(n=n, seed=seed)
    out = fit_outcome(data, "mainterms")
    prop = fit_propensity(data, "mainterms")
    return data, out, prop


def test_tmle_fluctuation_solves_weighted_score():
    data, out, prop = tmle_inputs()
    fl = tmle_fluctuations(data, out, prop, (1, 2, 3))
    a, b = fl[1].scale
    ystar = (data.y - a) / (b - a)
    for j in (1, 2, 3):
        wj = (data.t == j) / prop.probs[:, j - 1]
        score = float((wj * (ystar - fl[j].q1)).sum())
        assert abs(score) < 1e-8


def test_tmle_continuous_bounds_are_empirical_range():
    data, out, prop = tmle_inputs()
    fl = tmle_fluctuations(data, out, prop, (1,))
    assert fl[1].scale == (data.y.min(), data.y.max())


def test_tmle_binary_outcome_uses_unit_bounds():
    rng = np.random.default_rng(7)
    n = 300
    X = rng.normal(size=(n, 2))
    t = np.tile([1, 2, 3], n // 3)
    y = (rng.random(n) < 0.4).astype(float)
    data = Dataset.from_arrays(X, t, y)
    out = fit_outcome(data, "mainterms")
    prop = fit_propensity(data, "mainterms")
    fl = tmle_fluctuations(data, out, prop, (2,))
    assert fl[2].scale == (0.0, 1.0)
    est = estimate_tmle(data, out, prop, (2, 1))
    assert np.isfinite(est.tau_hat) and est.variance > 0


def test_tmle_degenerate_bounds_raise():
    X = np.zeros((6, 1))
    data = Dataset.from_arrays(X, [1, 2, 3, 1, 2, 3], np.full(6, 3.0))
    out = linear_outcome_fit(data)
    prop = fit_propensity(data, "mainterms")
    with pytest.raises(ValueError):
        estimate_tmle(data, out, prop, (2, 1))


def test_tmle_influence_centered():
    data, out, prop = tmle_inputs()
    est = estimate_tmle(data, out, prop, (3, 1))
    # reconstruct the influence mean from the reported pieces: the targeting
    # step forces the augmentation scores to zero, so the plug-in part must
    # match tau up to solver tolerance
    fl = tmle_fluctuations(data, out, prop, (3, 1))
    a, b = fl[3].scale
    plugin = float(((fl[3].q1 - fl[1].q1) * (b - a)).mean())
    assert est.tau_hat == pytest.approx(plugin, abs=1e-12)
