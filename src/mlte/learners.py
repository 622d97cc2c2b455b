"""Outcome and treatment model fitting under three implementation regimes.

The estimators never fit models themselves; they consume an ``OutcomeFit``
(counterfactual outcome predictions for any treatment level) and a
``PropensityFit`` (treatment probabilities), produced here under one of
three regimes:

* ``correct``    the caller supplies the true design (simulation studies),
* ``mainterms``  main effects only, the common applied default,
* ``ml``         a cross-validation-weighted ensemble for the outcome and an
                 adaptively selected spline multinomial for the treatment.

Both fits are plain data: bound designs and GLM coefficients, no closures,
so they pickle and can be shipped to worker processes.

The ml outcome ensemble stacks three candidates (main terms; mains plus all
pairwise interactions and squares; additive natural cubic splines) with
non-negative-least-squares weights on 10-fold cross-validated predictions.
A candidate without spline knots is expanded once on the full data and its
fold designs are row slices of that expansion, bit for bit what expanding
each fold gives; the spline candidate is bound on each training fold,
because its quantile knots depend on the fold.  Folds keep every treatment
level in every training fold.
The ml treatment model searches a natural-spline basis (spline mains for
continuous covariates, mains for binary ones, and spline-by-binary
interactions) by forward stepwise group selection under BIC, in the spirit
of adaptive polychotomous spline regression.  Every group is a design term,
so the chosen model is an ordinary bound design.  A covariate with too few
distinct values for the spline's knots enters as a main term only, in both
models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .glm import MultinomialFit, fit_logistic, fit_multinomial, fit_ols, predict_probs
from .tabular import (
    BoundDesign,
    Dataset,
    DesignSpec,
    _spline_eligible,
    bind_design,
    curvature,
    intercept,
    interaction,
    main,
    spline,
    square,
)

__all__ = [
    "OutcomeFit",
    "PropensityFit",
    "SuperLearnerSpec",
    "fit_outcome",
    "fit_propensity",
    "fit_super_learner",
    "REGIMES",
]

REGIMES = ("correct", "mainterms", "ml")

_SL_FOLDS = 10


@dataclass(frozen=True)
class SuperLearnerSpec:
    """Result of `_SL_FOLDS`-fold cross-validated stacking.

    `weights` lie on the simplex and align with `candidates`; `components`
    holds one (weight, bound design, full-data fit) triple per candidate,
    and `cv_risks` the per-candidate cross-validated mean squared errors.
    """

    candidates: tuple
    weights: np.ndarray
    components: tuple
    cv_risks: np.ndarray


@dataclass(frozen=True)
class OutcomeFit:
    """Counterfactual outcome predictor Ê(Y | T=t, X).

    `components` is a tuple of (weight, BoundDesign, LinearFit or
    LogisticFit) triples whose weighted sum is the prediction: one triple
    of weight 1 for the parametric regimes, the stacked candidates for
    `ml` (whose stacking record is `super_learner`).  ``predict(level, X)``
    returns one prediction per row of X, on the probability scale for binary
    outcomes.  ``refit(data, seed)`` rebuilds the whole fit (including any
    cross-validation) on new data, which is how the standardization
    bootstrap resamples it.
    """

    regime: str
    outcome_kind: str
    k: int
    description: str
    components: tuple
    truth_spec: Optional[DesignSpec] = None
    super_learner: Optional[SuperLearnerSpec] = None

    def predict(self, level, X):
        if not (1 <= level <= self.k):
            raise ValueError(f"treatment level {level} outside 1..{self.k}")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        t = np.full(X.shape[0], level, dtype=int)
        pred = np.zeros(X.shape[0])
        for weight, bound, fit in self.components:
            if weight == 0.0:
                continue
            D = bound.matrix(X, t)
            pred += weight * (fit.predict_prob(D) if self.outcome_kind == "binary" else fit.predict(D))
        if not np.all(np.isfinite(pred)):
            raise ValueError("non-finite outcome prediction")
        return pred

    def predict_matrix(self, X):
        """All counterfactual predictions, one column per treatment level."""
        return np.column_stack([self.predict(level, X) for level in range(1, self.k + 1)])

    def refit(self, data: Dataset, seed=0):
        return fit_outcome(data, self.regime, self.truth_spec, seed=seed)


@dataclass(frozen=True)
class PropensityFit:
    """Fitted treatment probabilities P̂(T = t | X): a multinomial GLM on a
    bound design, with its probabilities on the training rows."""

    regime: str
    k: int
    probs: np.ndarray
    description: str
    bound: BoundDesign
    fit: MultinomialFit

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        self.probs.setflags(write=False)

    @property
    def converged(self):
        return self.fit.converged

    def predict_matrix(self, X):
        return predict_probs(self.fit, self.bound.matrix(X))


# ---------------------------------------------------------------------------
# design construction helpers


def _is_binary_column(x):
    return len(np.unique(x)) <= 2


def _mainterms_spec(data: Dataset, with_dummies):
    terms = [intercept()] + [main(c) for c in data.columns]
    return DesignSpec(tuple(terms), includes_treatment_dummies=with_dummies)


def _rich_parametric_spec(data: Dataset, with_dummies):
    """Mains, every pairwise covariate interaction, and squares of the
    non-binary covariates."""
    terms = [intercept()] + [main(c) for c in data.columns]
    cols = data.columns
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            terms.append(interaction(cols[i], cols[j]))
    for j, c in enumerate(cols):
        if not _is_binary_column(data.X[:, j]):
            terms.append(square(c))
    return DesignSpec(tuple(terms), includes_treatment_dummies=with_dummies)


def _additive_spline_spec(data: Dataset, with_dummies):
    terms = [intercept()]
    for j, c in enumerate(data.columns):
        terms.append(spline(c) if _spline_eligible(data.X[:, j]) else main(c))
    return DesignSpec(tuple(terms), includes_treatment_dummies=with_dummies)


def _fit_glm(D, data: Dataset):
    """GLM of `data`'s outcome on design D (rows aligned with `data`)."""
    if data.outcome_kind == "binary":
        return fit_logistic(D, data.y)
    return fit_ols(D, data.y)


# ---------------------------------------------------------------------------
# super learner


def _cv_folds(data: Dataset, folds, seed):
    """Fold of each row for V-fold cross-validation.

    Rows are dealt round-robin in a seeded permutation (row perm[i] lands in
    fold i mod `folds`).  A treatment level whose rows all land in one fold
    would be missing from that fold's training rows; its last row then moves
    to the next fold, so every training fold holds every level.  A level
    with a single row cannot be split and raises ValueError.
    """
    n, k = data.n, data.k
    perm = np.random.default_rng(seed).permutation(n)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.arange(n) % folds
    counts = np.bincount(fold_of * k + (data.t - 1), minlength=folds * k).reshape(folds, k)
    for level in np.flatnonzero(counts.max(axis=0) == counts.sum(axis=0)) + 1:
        rows = np.flatnonzero(data.t == level)
        if len(rows) < 2:
            raise ValueError(
                f"treatment level {level} has {len(rows)} row; {folds}-fold cross-validation "
                "needs at least 2 rows in every level"
            )
        fold_of[rows[-1]] = (fold_of[rows[-1]] + 1) % folds
    return fold_of


def fit_super_learner(data: Dataset, candidates, seed=0):
    """Stack candidate outcome designs by `_SL_FOLDS`-fold cross-validation.

    Each candidate is a DesignSpec; fold membership comes from a seeded
    permutation (see _cv_folds).  Candidate predictions on held-out folds
    are combined by non-negative least squares against the observed outcome
    and the solution is normalized to the simplex.  An all-zero NNLS
    solution falls back to the single candidate with the smallest
    cross-validated risk.  Squared-error loss is used for both outcome kinds
    (binary outcomes are stacked on the probability scale).

    A candidate whose design binds without spline knots is expanded once on
    the full data and sliced by fold rows; expansion is row by row, so this
    is exactly the per-fold expansion.  A candidate with knots is bound on
    each training fold.

    ``nnls`` is imported here, not at module level, so that only ml outcome
    fits pay for loading ``scipy.optimize``.
    """
    n, folds = data.n, _SL_FOLDS
    if n < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold stacking")
    if not candidates:
        raise ValueError("need at least one candidate")
    fold_of = _cv_folds(data, folds, seed)
    splits = [(np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)) for f in range(folds)]

    binary = data.outcome_kind == "binary"
    bounds = [bind_design(data, spec) for spec in candidates]
    designs = [bound.matrix(data.X, data.t) for bound in bounds]
    cv_pred = np.zeros((n, len(candidates)))
    for c, (spec, bound, D) in enumerate(zip(candidates, bounds, designs)):
        for train, test in splits:
            sub = data.take(train)
            if bound.knots:
                fold_bound = bind_design(sub, spec)
                D_train = fold_bound.matrix(sub.X, sub.t)
                D_test = fold_bound.matrix(data.X[test], data.t[test])
            else:
                D_train, D_test = D[train], D[test]
            fit = _fit_glm(D_train, sub)
            cv_pred[test, c] = fit.predict_prob(D_test) if binary else fit.predict(D_test)

    from scipy.optimize import nnls  # deferred: scipy.optimize costs ~0.25 s to import

    weights, _ = nnls(cv_pred, data.y)
    cv_risks = ((cv_pred - data.y[:, None]) ** 2).mean(axis=0)
    if weights.sum() <= 0:
        weights = np.zeros(len(candidates))
        weights[int(np.argmin(cv_risks))] = 1.0
    weights = weights / weights.sum()

    components = tuple(
        (float(w), bound, _fit_glm(D, data)) for w, bound, D in zip(weights, bounds, designs)
    )
    return SuperLearnerSpec(
        candidates=tuple(candidates),
        weights=weights,
        components=components,
        cv_risks=cv_risks,
    )


# ---------------------------------------------------------------------------
# outcome fitting


def fit_outcome(data: Dataset, regime, truth_spec: Optional[DesignSpec] = None, seed=0):
    """Fit the outcome model for a regime and wrap it as an OutcomeFit.

    correct    GLM on the caller-supplied `truth_spec` (simulation use),
    mainterms  GLM on intercept + covariate mains + treatment dummies,
    ml         super learner over the three standard candidates.

    Gaussian link for continuous outcomes, logit for binary.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "ml":
        candidates = (
            _mainterms_spec(data, with_dummies=True),
            _rich_parametric_spec(data, with_dummies=True),
            _additive_spline_spec(data, with_dummies=True),
        )
        sl = fit_super_learner(data, candidates, seed=seed)
        wtxt = "/".join(f"{w:.2f}" for w in sl.weights)
        desc = f"super learner ({len(candidates)} candidates, {_SL_FOLDS}-fold cv, weights {wtxt})"
        return OutcomeFit("ml", data.outcome_kind, data.k, desc, sl.components, super_learner=sl)

    if regime == "correct":
        if truth_spec is None:
            raise ValueError("correct regime requires truth_spec")
        spec = DesignSpec(truth_spec.terms, includes_treatment_dummies=True)
    else:
        spec = _mainterms_spec(data, with_dummies=True)
    bound = bind_design(data, spec)
    glm = "logistic" if data.outcome_kind == "binary" else "ols"
    desc = f"{glm} regression, {regime} design ({bound.n_columns} columns)"
    components = ((1.0, bound, _fit_glm(bound.matrix(data.X, data.t), data)),)
    return OutcomeFit(regime, data.outcome_kind, data.k, desc, components, truth_spec)


# ---------------------------------------------------------------------------
# propensity fitting


def _propensity_from_design(data: Dataset, bound: BoundDesign, regime, desc):
    D = bound.matrix(data.X)
    mfit = fit_multinomial(D, data.t, data.k)
    return PropensityFit(regime, data.k, predict_probs(mfit, D), desc, bound, mfit)


def _stepwise_groups(data: Dataset):
    """Candidate groups for the stepwise treatment model, as design terms.

    Returns {name: (term, names of the groups it needs)}.  Spline-eligible
    covariates contribute a linear group and a curvature group (the
    nonlinear natural-spline columns); binary covariates contribute a main
    group; each spline-eligible covariate also pairs with each binary one
    through linear-by-binary and curvature-by-binary interaction groups.
    Any other covariate (too few distinct values for the knots) is a main
    group only.  Hierarchy: curvature needs its linear term, interactions
    need both parents.
    """
    groups = {}
    splined, binaries = [], []
    for j, name in enumerate(data.columns):
        x = data.X[:, j]
        groups[name] = (main(name), frozenset())
        if _spline_eligible(x):
            splined.append(name)
            groups[f"{name}.curv"] = (curvature(name), frozenset({name}))
        elif _is_binary_column(x):
            binaries.append(name)
    for cname in splined:
        for bname in binaries:
            groups[f"{cname}:{bname}"] = (interaction(cname, bname), frozenset({cname, bname}))
            groups[f"{cname}.curv:{bname}"] = (
                curvature(cname, by=bname),
                frozenset({f"{cname}.curv", f"{cname}:{bname}"}),
            )
    return groups


def _stepwise_multinomial(data: Dataset):
    """Forward group selection on the spline basis under BIC.

    Starts from the intercept-only model and greedily adds the eligible
    group with the best BIC until no addition improves it.  Parameter count
    is (k-1) per design column.  Weak treatment-covariate signal therefore
    yields a deliberately sparse model, mirroring how adaptive spline
    classifiers behave under light confounding.  Each group's columns are
    expanded once.  Returns the candidate groups (see _stepwise_groups) and
    the chosen group names in selection order.
    """
    n, k = data.n, data.k
    groups = _stepwise_groups(data)
    all_terms = DesignSpec(tuple(term for term, _ in groups.values()))
    columns = dict(zip(groups, bind_design(data, all_terms).blocks(data.X)))
    logn = np.log(n)

    def bic_of(D):
        P = predict_probs(fit_multinomial(D, data.t, k), D)
        ll = float(np.log(P[np.arange(n), data.t - 1]).sum())
        return -2.0 * ll + (k - 1) * D.shape[1] * logn

    D = np.ones((n, 1))
    chosen = []
    bic = bic_of(D)
    while True:
        best = None
        for name, (_, needs) in groups.items():
            if name in chosen or not needs.issubset(chosen):
                continue
            D_try = np.column_stack([D, columns[name]])
            bic_try = bic_of(D_try)
            if bic_try < bic - 1e-9 and (best is None or bic_try < best[0]):
                best = (bic_try, name, D_try)
        if best is None:
            break
        bic, picked, D = best
        chosen.append(picked)
    return groups, tuple(chosen)


def fit_propensity(data: Dataset, regime, truth_spec: Optional[DesignSpec] = None):
    """Fit the treatment model for a regime and wrap it as a PropensityFit.

    correct    multinomial GLM on the caller-supplied `truth_spec`,
    mainterms  multinomial GLM on intercept + covariate mains,
    ml         forward-BIC spline multinomial (see _stepwise_multinomial).
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "correct":
        if truth_spec is None:
            raise ValueError("correct regime requires truth_spec")
        spec = DesignSpec(truth_spec.terms, includes_treatment_dummies=False)
        bound = bind_design(data, spec)
        return _propensity_from_design(
            data, bound, regime, f"multinomial GLM, supplied design ({bound.n_columns} columns)"
        )
    if regime == "mainterms":
        spec = _mainterms_spec(data, with_dummies=False)
        bound = bind_design(data, spec)
        return _propensity_from_design(
            data, bound, regime, f"multinomial GLM, main terms ({bound.n_columns} columns)"
        )

    groups, chosen = _stepwise_multinomial(data)
    bound = bind_design(data, DesignSpec((intercept(),) + tuple(groups[name][0] for name in chosen)))
    desc = f"stepwise spline multinomial (BIC, {len(chosen)} groups: {', '.join(chosen) or 'intercept only'})"
    return _propensity_from_design(data, bound, "ml", desc)
