"""Solvers checked against independent optimizers and closed forms."""

import numpy as np
import pytest
import scipy.special
from scipy.optimize import minimize
from scipy.special import expit

from mlte import glm
from mlte.glm import (
    fit_logistic,
    fit_multinomial,
    fit_ols,
    predict_probs,
)


def design_and_response(n=300, q=4, seed=1):
    rng = np.random.default_rng(seed)
    D = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    beta = rng.normal(size=q)
    return rng, D, beta


# ---------------------------------------------------------------------------
# link functions: numpy versions of scipy.special.expit and logit

_TINY = np.finfo(float).tiny


def test_expit_matches_scipy_within_4_ulp_without_warning():
    rng = np.random.default_rng(11)
    x = np.concatenate([
        rng.normal(scale=5.0, size=100_000),
        rng.uniform(-745.0, 745.0, size=100_000),
        [0.0, -0.0, 1e-300, -1e-300, 800.0, -800.0, np.inf, -np.inf],
    ])
    with np.errstate(all="raise"):
        ours = glm.expit(x)
    ref = scipy.special.expit(x)
    # scipy computes 1/(1+exp(-x)), which flushes to 0 once exp(-x)
    # overflows (x < -709.78); there the numpy version keeps the subnormal
    # exp(x), so compare subnormal results absolutely
    normal = ref >= _TINY
    assert normal.sum() > 190_000
    np.testing.assert_array_max_ulp(ours[normal], ref[normal], maxulp=4)
    np.testing.assert_allclose(ours[~normal], ref[~normal], rtol=0, atol=_TINY)
    assert ours[x == np.inf].tolist() == [1.0] and ours[x == -np.inf].tolist() == [0.0]


def test_logit_matches_scipy_within_4_ulp_without_warning():
    rng = np.random.default_rng(12)
    p = np.concatenate([
        rng.uniform(1e-12, 1 - 1e-12, size=100_000),
        np.geomspace(1e-12, 0.5, 10_000),
        1 - np.geomspace(1e-12, 0.5, 10_000),
        np.nextafter([0.3, 0.3, 0.65, 0.65], [0.0, 1.0, 0.0, 1.0]),
        [1e-12, 1 - 1e-12, 0.3, 0.5, 0.65],
    ])
    with np.errstate(all="raise"):
        ours = glm.logit(p)
    np.testing.assert_array_max_ulp(ours, scipy.special.logit(p), maxulp=4)


def test_logit_inverts_expit():
    p = np.linspace(0.01, 0.99, 99)
    np.testing.assert_allclose(glm.expit(glm.logit(p)), p, rtol=1e-14)


# ---------------------------------------------------------------------------
# least squares


def test_ols_matches_lstsq():
    rng, D, beta = design_and_response(seed=2)
    y = D @ beta + rng.normal(size=len(D))
    fit = fit_ols(D, y)
    ref, *_ = np.linalg.lstsq(D, y, rcond=None)
    np.testing.assert_allclose(fit.coefficients, ref, atol=1e-10)


def test_ols_underdetermined_raises():
    with pytest.raises(ValueError):
        fit_ols(np.ones((2, 3)), np.zeros(2))


def test_ols_predict():
    rng, D, beta = design_and_response()
    y = D @ beta
    fit = fit_ols(D, y)
    np.testing.assert_allclose(fit.predict(D), y, atol=1e-8)


# ---------------------------------------------------------------------------
# logistic


def nll(beta, D, y):
    eta = D @ beta
    return np.logaddexp(0.0, eta).sum() - y @ eta


def test_logistic_matches_direct_minimizer():
    rng, D, beta = design_and_response(seed=3)
    y = (rng.random(len(D)) < expit(D @ beta)).astype(float)
    fit = fit_logistic(D, y)
    ref = minimize(nll, np.zeros(D.shape[1]), args=(D, y), method="BFGS", tol=1e-12)
    np.testing.assert_allclose(fit.coefficients, ref.x, atol=1e-5)
    assert fit.converged


def test_logistic_score_is_zero_at_optimum():
    rng, D, beta = design_and_response(seed=4)
    y = (rng.random(len(D)) < expit(D @ beta)).astype(float)
    fit = fit_logistic(D, y)
    p = expit(D @ fit.coefficients)
    np.testing.assert_allclose(D.T @ (y - p), 0.0, atol=1e-7)


def test_logistic_weighted_offset_intercept_only():
    # with an offset and weights the intercept solves sum w*(y - expit(off+e)) = 0
    rng = np.random.default_rng(5)
    n = 400
    off = rng.normal(size=n)
    w = rng.random(n) + 0.1
    y = (rng.random(n) < expit(off + 0.7)).astype(float)
    fit = fit_logistic(np.ones((n, 1)), y, weights=w, offset=off)
    eps = fit.coefficients[0]
    assert abs((w * (y - expit(off + eps))).sum()) < 1e-7


def test_logistic_accepts_fractional_response():
    rng = np.random.default_rng(6)
    D = np.column_stack([np.ones(50), rng.normal(size=50)])
    y = rng.random(50)  # quasi-likelihood: y in [0, 1]
    fit = fit_logistic(D, y)
    p = expit(D @ fit.coefficients)
    np.testing.assert_allclose(D.T @ (y - p), 0.0, atol=1e-7)


def test_logistic_flags_separation():
    # a narrow margin forces the slope past any plausible magnitude
    x = np.concatenate([-(np.arange(10) + 1) / 10.0, (np.arange(10) + 1) / 10.0])
    D = np.column_stack([np.ones(20), x])
    y = (x > 0).astype(float)
    fit = fit_logistic(D, y)
    assert fit.separation
    assert np.all(np.isfinite(fit.coefficients))


def test_logistic_predict_prob_with_offset():
    rng, D, beta = design_and_response(seed=7)
    y = (rng.random(len(D)) < expit(D @ beta)).astype(float)
    off = np.full(len(D), 0.3)
    fit = fit_logistic(D, y, offset=off)
    assert fit.converged
    np.testing.assert_allclose(D.T @ (y - expit(D @ fit.coefficients + off)), 0.0, atol=1e-8)


# ---------------------------------------------------------------------------
# multinomial


def multinomial_data(n=600, q=3, k=3, seed=8):
    rng = np.random.default_rng(seed)
    D = np.column_stack([np.ones(n), rng.normal(size=(n, q - 1))])
    B = rng.normal(size=(k - 1, q)) * 0.8
    eta = np.column_stack([np.zeros(n), D @ B.T])
    p = np.exp(eta - eta.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    u = rng.random(n)
    t = 1 + (u > p.cumsum(axis=1)[:, :-1].T).sum(axis=0)
    return D, t.astype(int)


def test_multinomial_two_levels_equals_logistic():
    D, t = multinomial_data(k=2, seed=9)
    mfit = fit_multinomial(D, t, k=2)
    lfit = fit_logistic(D, (t == 2).astype(float))
    np.testing.assert_allclose(mfit.coefficients[0], lfit.coefficients, atol=1e-6)


def test_multinomial_score_zero_per_level():
    D, t = multinomial_data()
    fit = fit_multinomial(D, t, k=3)
    eta = np.column_stack([np.zeros(len(D)), D @ fit.coefficients.T])
    p = np.exp(eta - eta.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    for j in (2, 3):
        score = D.T @ ((t == j).astype(float) - p[:, j - 1])
        np.testing.assert_allclose(score, 0.0, atol=1e-6)


def test_multinomial_matches_direct_minimizer():
    D, t = multinomial_data(n=400, seed=10)
    fit = fit_multinomial(D, t, k=3)

    def negll(flat):
        B = flat.reshape(2, D.shape[1])
        eta = np.column_stack([np.zeros(len(D)), D @ B.T])
        lse = np.log(np.exp(eta - eta.max(axis=1, keepdims=True)).sum(axis=1)) + eta.max(axis=1)
        return lse.sum() - eta[np.arange(len(D)), t - 1].sum()

    ref = minimize(negll, np.zeros(2 * D.shape[1]), method="BFGS", tol=1e-12)
    np.testing.assert_allclose(fit.coefficients.ravel(), ref.x, atol=1e-4)


def test_multinomial_requires_all_levels():
    D = np.ones((6, 1))
    with pytest.raises(ValueError):
        fit_multinomial(D, np.array([1, 1, 2, 2, 2, 1]), k=3)


def test_predict_probs_rows_sum_to_one():
    D, t = multinomial_data(seed=11)
    fit = fit_multinomial(D, t, k=3)
    P = predict_probs(fit, D)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert P.min() >= 1e-6


def test_predict_probs_clips_extremes():
    D = np.column_stack([np.ones(4), np.array([-50.0, -40.0, 40.0, 50.0])])
    t = np.array([1, 1, 2, 2])
    fit = fit_multinomial(D, t, k=2)
    P = predict_probs(fit, D)
    assert P.min() >= 1e-6
    assert P.max() <= 1 - 1e-6
