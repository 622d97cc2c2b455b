"""Reference paths: each fast path of the package written out once the plain,
slow way, for the differential tests that pin the fast path to it.

- `reference_damped_newton`: `glm._damped_newton`, pinned by test_glm.py's
  test_newton_evaluates_each_accepted_point_once_and_matches_the_reference.
- `reference_spline_knots`: `tabular._knots_of_sorted`, pinned by
  test_tabular.py's test_spline_knots_equal_numpy_quantiles.
- `reference_natural_cubic_basis`: the spline columns of
  `BoundDesign.matrix`, pinned by test_tabular.py's
  test_natural_cubic_basis_matches_power_formula and, on drawn columns,
  test_bound_spline_is_its_column_then_its_natural_cubic_basis.
- `reference_folds`: `learners._cv_folds`, pinned by test_learners.py's
  test_cv_folds_keep_the_permutation_when_every_training_fold_has_every_level
  and test_cv_folds_put_every_level_in_every_training_fold.
- `reference_super_learner`: `learners.fit_super_learner`, which builds
  the three ml candidates from one argsort per covariate and works one
  candidate at a time in one buffer with a design region and a rows
  region; pinned on those candidates by test_learners.py's
  test_super_learner_equals_reference_fold_loop,
  test_super_learner_equals_reference_on_low_cardinality_columns (one of
  whose datasets makes `_nnls` fail) and, on drawn datasets,
  test_super_learner_equals_reference_on_drawn_inputs.
- `reference_matches`: the chunked search of `matching.build_matches`,
  pinned by test_matching.py's test_match_sets_equal_full_matrix_reference,
  test_m_nearest_selection_equals_stable_argsort_on_ties and, on drawn
  datasets, test_match_sets_equal_full_matrix_reference_on_drawn_inputs.
- `brute_force_matches`: `matching.build_matches` with its whitening,
  pinned by test_matching.py's test_match_sets_agree_with_brute_force and
  by test_acceptance.py's test_criterion_7_exact_identities.
- `reference_oracle_truth`: the Monte Carlo counterfactual oracle behind
  the scenario truths of `simengine.run_scenario`, pinned by
  test_simengine.py's test_scenario_truths_equal_the_monte_carlo_oracle; it
  also gives test_acceptance.py's test_criterion_6_robustness_limits the
  estimand of overlap weights built from a wrong treatment model.

The scipy oracles (expit, logit, nnls, norm.sf, minimize) are imported
directly by the tests that use them.
"""

import numpy as np
from scipy.spatial.distance import cdist

from mlte import glm, matching
from mlte.glm import fit_ols
from mlte.learners import _nnls
from mlte.simengine import _draw_covariates, outcome_mean, treatment_probabilities
from mlte.tabular import bind_design
from mlte.weighting import _overlap_tilt


def reference_damped_newton(X, theta, loglik, derivatives, max_iter):
    """The driver as it was: the accepted point is evaluated once as the
    halving loop's trial and once more after it."""
    scale = max(np.trace(X.T @ X) / X.shape[1], 1.0)
    ll, state = loglik(theta)
    for it in range(1, max_iter + 1):
        grad, neg_hess = derivatives(state)
        if np.max(np.abs(grad)) < glm._GRAD_TOL:
            return theta, True, it - 1
        step = glm._solve_psd(neg_hess, grad, scale).reshape(theta.shape)
        factor = 1.0
        for _ in range(30):
            if loglik(theta + factor * step)[0] >= ll - 1e-12:
                break
            factor *= 0.5
        theta = theta + factor * step
        ll, state = loglik(theta)
    return theta, False, max_iter


def reference_spline_knots(x, n_interior):
    """Range and np.quantile knots, and the distinct-value count."""
    qs = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    return np.concatenate([[x.min()], np.quantile(x, qs), [x.max()]]), len(np.unique(x))


def reference_natural_cubic_basis(x, knots):
    """The basis written term by term with `** 3`."""
    K = len(knots)

    def d(k):
        num = np.maximum(x - knots[k], 0.0) ** 3 - np.maximum(x - knots[-1], 0.0) ** 3
        return num / (knots[-1] - knots[k])

    return np.column_stack([x] + [d(k) - d(K - 2) for k in range(K - 2)])


def reference_folds(n, folds, seed):
    """Round-robin fold assignment over a seeded permutation, as a loop."""
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=int)
    for i in range(folds):
        fold_of[perm[i::folds]] = i
    return fold_of


def reference_super_learner(data, candidates, folds, seed):
    """Cross-validated predictions by binding and expanding every candidate
    on every training fold, then the same stacking (the candidate with the
    least cross-validated risk when every weight is 0 or `_nnls` fails)."""
    fold_of = reference_folds(data.n, folds, seed)
    cv_pred = np.zeros((data.n, len(candidates)))
    for c, spec in enumerate(candidates):
        for f in range(folds):
            train, test = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
            sub = data.take(train)
            bound = bind_design(sub, spec)
            fit = fit_ols(bound.matrix(sub.X, sub.t), sub.y)
            cv_pred[test, c] = fit.predict(bound.matrix(data.X[test], data.t[test]))
    risks = ((cv_pred - data.y[:, None]) ** 2).mean(axis=0)
    try:
        weights = _nnls(cv_pred, data.y)
    except RuntimeError:
        weights = np.zeros(len(candidates))
    if weights.sum() <= 0:
        weights = (np.arange(len(candidates)) == np.argmin(risks)).astype(float)
    coefficients = [
        fit_ols(bind_design(data, spec).matrix(data.X, data.t), data.y).coefficients for spec in candidates
    ]
    return weights / weights.sum(), risks, coefficients


def reference_matches(data, m, metric):
    """The search without chunking: every query-donor squared distance in
    one full matrix, summed column by column as sum_j (q_j - d_j)^2."""
    Z = matching._whiten(data.X, metric)
    n, k = data.n, data.k
    match_indices = np.empty((n, k, m), dtype=np.intp)
    nn_same = np.empty(n, dtype=np.intp)
    for lev in range(1, k + 1):
        donors = np.flatnonzero(data.t == lev)
        D = (Z[:, None, 0] - Z[None, donors, 0]) ** 2
        for j in range(1, Z.shape[1]):
            D = D + (Z[:, None, j] - Z[None, donors, j]) ** 2
        match_indices[:, lev - 1] = donors[np.argsort(D, axis=1, kind="stable")[:, :m]]
        match_indices[donors, lev - 1] = donors[:, None]
        D[donors, np.arange(len(donors))] = np.inf
        nn_same[donors] = donors[D[donors].argmin(axis=1)]
    return match_indices, nn_same


def brute_force_matches(data, m=1, metric="euclidean-standardized"):
    """The search from its definition, with scipy's cdist: distances on the
    covariates scaled by their sample SDs, or Mahalanobis distances under
    the sample covariance plus 1e-8 on its diagonal; each row's m nearest
    donors of every other level, the row itself at its own level, and its
    nearest other row of its own level."""
    if metric == "euclidean-standardized":
        Z = data.X / data.X.std(axis=0, ddof=1)
        dist = cdist(Z, Z)
    else:
        S = np.cov(data.X, rowvar=False) + 1e-8 * np.eye(data.X.shape[1])
        dist = cdist(data.X, data.X, metric="mahalanobis", VI=np.linalg.inv(S))
    match_indices = np.empty((data.n, data.k, m), dtype=np.intp)
    nn_same = np.empty(data.n, dtype=np.intp)
    for lev in range(1, data.k + 1):
        donors = np.flatnonzero(data.t == lev)
        match_indices[:, lev - 1] = donors[np.argsort(dist[:, donors], axis=1, kind="stable")[:, :m]]
        match_indices[donors, lev - 1] = donors[:, None]
        same = dist[np.ix_(donors, donors)]
        np.fill_diagonal(same, np.inf)
        nn_same[donors] = donors[same.argmin(axis=1)]
    return match_indices, nn_same


def reference_oracle_truth(
    cfg,
    pairs=((2, 1), (3, 1)),
    draws=10**6,
    seed=0,
    weighting="population",
    prob_fn=None,
):
    """Monte Carlo counterfactual oracle for the true contrasts.

    Draws covariates from the generating distribution and averages the
    treatment-effect field, optionally reweighted by the harmonic overlap
    weight h(X) built from `prob_fn` (defaults to the true assignment
    probabilities).  Supplying a fitted, deliberately wrong model as
    prob_fn yields the estimand that overlap-weight estimators target
    under that model.  Returns {pair: truth}.
    """
    X = _draw_covariates(np.random.default_rng(seed), draws)
    if weighting == "population":
        w = np.ones(draws)
    elif weighting == "overlap":
        probs = treatment_probabilities(cfg.beta, X) if prob_fn is None else prob_fn(X)
        w = _overlap_tilt(probs)
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    wsum = w.sum()
    out = {}
    for pair in pairs:
        t1, t0 = int(pair[0]), int(pair[1])
        effect = outcome_mean(cfg.gamma, cfg.lam, X, np.full(draws, t1)) - outcome_mean(
            cfg.gamma, cfg.lam, X, np.full(draws, t0)
        )
        out[(t1, t0)] = float((w * effect).sum() / wsum)
    return out
