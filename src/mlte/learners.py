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
pairwise interactions and squares; additive natural cubic splines, each a
covariate's main and curvature terms) with non-negative-least-squares
weights on 10-fold cross-validated predictions;
the non-negative least squares is Lawson and Hanson's active-set method,
written in numpy (`_nnls`), and where it fails the least-risk candidate
takes all the weight.  The library is fixed: `fit_super_learner` builds
the three candidates itself (`_ml_candidates`) from one argsort per
covariate, whose order also gives every training fold's knots.
A fit binds the three on the full data and then works one candidate at a
time, as the plain fold loop does: cross-validate, fit on the full data.
Its designs share one float buffer the fit owns: a design region as wide
as the widest full-data binding, and a rows region for one fold's gathered
training and held-out rows, bit for bit what expanding each fold gives.
The full-data binding decides the path: a candidate without knots is
expanded once, on the full data; the spline candidate is bound on each
training fold, since its quantile knots depend on the fold (a fold that
cannot carry a covariate's spline keeps only its main term), and its
full-data design is expanded after the folds.  The fit keeps none of these
designs: a bound design's memo (see `tabular`) comes from the first
prediction on the same rows.  Folds keep every treatment level in every
training fold.
The ml treatment model searches a natural-spline basis (spline mains for
continuous covariates, mains for binary ones, and spline-by-binary
interactions) by forward stepwise group selection under BIC, in the spirit
of adaptive polychotomous spline regression.  Every group is a design term,
so the chosen model is an ordinary bound design, and the search hands over
its own fit of that design.
Both models sort each covariate once per fit and read from that one copy
whether it is binary (at most two distinct values), whether it can carry
the spline and where its knots lie.  A covariate enters as a main term
only, in both models, when it cannot carry the spline: it has fewer
distinct values than the spline's five knots, or two of its quantile knots
coincide, as they do for a column dominated by a few values however many
others it takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .glm import MultinomialFit, fit_logistic, fit_multinomial, fit_ols
from .tabular import (
    BoundDesign,
    Dataset,
    DesignSpec,
    _knots_of_sorted,
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
    "fit_outcome",
    "fit_propensity",
    "fit_super_learner",
    "REGIMES",
]

REGIMES = ("correct", "mainterms", "ml")

_SL_FOLDS = 10


@dataclass(frozen=True)
class OutcomeFit:
    """Counterfactual outcome predictor Ê(Y | T=t, X).

    `components` is a tuple of (weight, BoundDesign, LinearFit or
    LogisticFit) triples whose weighted sum of predictions is the
    prediction: one triple of weight 1 for the parametric regimes, the
    stacked candidates for `ml`, whose cross-validated risks are
    `cv_risks` (None under the other regimes).  ``predict(level, X)``
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
    cv_risks: Optional[np.ndarray] = None

    def predict(self, level, X):
        if not (1 <= level <= self.k):
            raise ValueError(f"treatment level {level} outside 1..{self.k}")
        pred = None
        for weight, bound, fit in self.components:
            if weight != 0.0:
                term = weight * fit.predict(bound.matrix(X, level))
                pred = term if pred is None else pred + term
        if not np.logical_and.reduce(np.isfinite(pred)):
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

    def __setstate__(self, state):
        # unpickled arrays come back writeable
        self.__dict__.update(state)
        self.probs.setflags(write=False)

    @property
    def converged(self):
        return self.fit.converged

    def predict_matrix(self, X):
        return self.fit.predict(self.bound.matrix(X))


# ---------------------------------------------------------------------------
# design construction helpers


def _sorted_columns(data: Dataset):
    """Each covariate of `data` sorted ascending, one sort per column: the
    ml designs read from these which covariates are binary and which can
    carry a spline, and bind their knots from them.  The super learner
    sorts by argsort instead, whose orders it also needs."""
    return [np.sort(x) for x in data.X.T]


def _is_binary_sorted(s):
    """Whether a column, sorted ascending as `s`, has at most two distinct
    values (like np.unique, counting -0.0 and 0.0 as one)."""
    return np.count_nonzero(s[1:] != s[:-1]) <= 1


def _mainterms_spec(data: Dataset, with_dummies):
    terms = [intercept()] + [main(c) for c in data.columns]
    return DesignSpec(tuple(terms), includes_treatment_dummies=with_dummies)


def _rich_parametric_spec(data: Dataset, with_dummies, sorted_columns):
    """Mains, every pairwise covariate interaction, and squares of the
    non-binary covariates (read from `_sorted_columns`)."""
    terms = [intercept()] + [main(c) for c in data.columns]
    cols = data.columns
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            terms.append(interaction(cols[i], cols[j]))
    for c, s in zip(cols, sorted_columns):
        if not _is_binary_sorted(s):
            terms.append(square(c))
    return DesignSpec(tuple(terms), includes_treatment_dummies=with_dummies)


def _additive_spline_spec(data: Dataset, with_dummies, sorted_columns):
    """A spline (main and curvature terms) of every covariate that can
    carry one (read from `_sorted_columns`), a main term of every other."""
    terms = [intercept()]
    for c, s in zip(data.columns, sorted_columns):
        terms.extend(spline(c) if _knots_of_sorted(s) is not None else [main(c)])
    return DesignSpec(tuple(terms), includes_treatment_dummies=with_dummies)


def _parametric_spec(data: Dataset, regime, truth_spec, with_dummies):
    """The design of a parametric regime: the caller's `truth_spec` under
    `correct`, intercept plus covariate mains under `mainterms`."""
    if regime == "mainterms":
        return _mainterms_spec(data, with_dummies)
    if truth_spec is None:
        raise ValueError("correct regime requires truth_spec")
    if truth_spec.includes_treatment_dummies == with_dummies:
        return truth_spec
    return DesignSpec(truth_spec.terms, includes_treatment_dummies=with_dummies)


def _fit_glm(D, data: Dataset):
    """GLM of `data`'s outcome on design D (rows aligned with `data`): the
    only place that picks the link, logit for a binary outcome."""
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


def _nnls(A, b):
    """argmin ||A x - b|| over x >= 0, by the active-set method of Lawson and
    Hanson (Solving Least Squares Problems, 1974, ch. 23) on A'A and A'b.

    The inactive columns are scanned in the order of Lawson and Hanson's
    index array (an entering column swaps places with the first inactive
    one, a leaving column goes to the front), and the first largest
    gradient entry enters; so exactly equal columns get the weight in the
    same column as ``scipy.optimize.nnls``.  Columns off the active set
    have weight exactly 0.  Exactly or nearly equal columns can keep the
    method from converging or make an active set's A'A singular; either
    raises RuntimeError.
    """
    AtA, Atb = A.T @ A, A.T @ b
    n = len(Atb)
    tol = 10 * np.finfo(float).eps * n * np.abs(AtA).sum(axis=0).max()
    x, active, free = np.zeros(n), [], list(range(n))
    for _ in range(3 * n):
        w = Atb - AtA @ x
        if not free or w[free].max() <= tol:
            return x
        pos = int(np.argmax(w[free]))
        active.append(free[pos])
        free[pos] = free[0]
        del free[0]
        while True:
            s = np.zeros(n)
            try:
                s[active] = np.linalg.solve(AtA[np.ix_(active, active)], Atb[active])
            except np.linalg.LinAlgError as err:
                raise RuntimeError("non-negative least squares met a singular active set") from err
            if s[active].min() > 0:
                break
            # step from x towards s until the first active weight reaches 0
            alpha, first = min((x[j] / (x[j] - s[j]), j) for j in active if s[j] <= 0)
            x += alpha * (s - x)
            x[first] = 0.0
            for j in [j for j in active if x[j] <= 0]:
                active.remove(j)
                free.insert(0, j)
                x[j] = 0.0
        x = s
    raise RuntimeError("non-negative least squares did not converge")


def _ml_candidates(data: Dataset, sorted_columns):
    """The three candidates of an ml outcome fit, read from each covariate
    sorted ascending (as `_sorted_columns` gives them): main terms, the rich
    parametric design and the additive spline design, each with treatment
    dummies."""
    return (
        _mainterms_spec(data, with_dummies=True),
        _rich_parametric_spec(data, True, sorted_columns),
        _additive_spline_spec(data, True, sorted_columns),
    )


def _sorted_outside(ordered, f):
    """The `sorted_columns` mapping of `bind_design` for the rows outside
    fold f: each column's ordered values with fold f's removed, still
    ascending, so every fold binds its knots without a sort."""
    return {j: values[fold != f] for j, (values, fold) in ordered.items()}


def _gather(D, rows, into):
    """Rows `rows` of design D, gathered into the start of the flat buffer
    `into`.  `mode="clip"` because numpy buffers `out` under the default
    "raise"; the rows come from `flatnonzero`, so none is clipped."""
    return np.take(D, rows, axis=0, out=into[: len(rows) * D.shape[1]].reshape(len(rows), -1), mode="clip")


def fit_super_learner(data: Dataset, seed=0):
    """Stack the three ml candidates (`_ml_candidates`) by
    `_SL_FOLDS`-fold cross-validation.

    Fold membership comes from a seeded permutation (see _cv_folds).
    Candidate predictions on held-out folds are combined by non-negative
    least squares against the observed outcome and the solution is
    normalized to the simplex.  An all-zero solution, or one that `_nnls`
    cannot find, falls back to the single candidate with the smallest
    cross-validated risk.  Squared-error loss is used for both outcome
    kinds (binary outcomes are stacked on the probability scale).

    Each covariate is sorted once, by one argsort: the sorted columns give
    the candidates' binary and spline questions and the full-data knots,
    and the same orders, with each row's fold, give every training fold's
    knots (`_sorted_outside`) for the columns that carry them.

    Candidates are taken one at a time, in the plain fold loop's order:
    cross-validated, then fitted on the full data.  Every design is
    expanded, through `matrix(..., out=)`, into one buffer the fit owns, of
    2 * n * w floats for the widest full-data binding w: a design region
    for the current candidate's design and a rows region for one fold's
    training and held-out rows, gathered from it (row-by-row expansion
    makes them exactly the per-fold expansion).  No fold binds wider than
    the full data, since the spline candidate splines only the columns
    whose full-data knots exist.  A candidate whose full-data binding has
    no knots is expanded once, on the full data; any other is bound and
    expanded on all n rows per training fold, and expanded on the full
    data after its folds.  No bound design keeps a memo of these designs.

    Returns (components, cv_risks): one (weight, bound design, full-data
    fit) triple per candidate, in candidate order, with the weights on the
    simplex, and each candidate's cross-validated mean squared error.
    """
    n, folds = data.n, _SL_FOLDS
    if n < folds:
        raise ValueError(f"need at least {folds} rows for {folds}-fold stacking")
    fold_of = _cv_folds(data, folds, seed)
    orders = [np.argsort(x) for x in data.X.T]
    columns = [x[order] for x, order in zip(data.X.T, orders)]
    bounds = [bind_design(data, spec, columns) for spec in _ml_candidates(data, columns)]
    knotted = {bound.column_index[bound.spec.terms[pos][1]] for bound in bounds for pos in bound.knots}
    ordered = {j: (columns[j], fold_of[orders[j]]) for j in knotted}
    del orders  # the fold loop needs only the knotted columns' folds
    tests = [np.flatnonzero(fold_of == f) for f in range(folds)]

    # a design region as wide as the widest binding, and a rows region for
    # one fold's gathered training and held-out rows
    width = max(bound.n_columns for bound in bounds)
    buffer = np.empty(2 * n * width)
    design, rows = buffer[: n * width], buffer[n * width:]

    cv_pred = np.zeros((n, len(bounds)))
    fits = []
    for c, bound in enumerate(bounds):
        if not bound.knots:
            D = bound.matrix(data.X, data.t, out=design)
        for f, test in enumerate(tests):
            train = np.flatnonzero(fold_of != f)
            sub = data.take(train)
            if bound.knots:
                D = bind_design(sub, bound.spec, _sorted_outside(ordered, f)).matrix(data.X, data.t, out=design)
            D_train = _gather(D, train, rows)
            D_test = _gather(D, test, rows[D_train.size:])
            cv_pred[test, c] = _fit_glm(D_train, sub).predict(D_test)
        if bound.knots:
            D = bound.matrix(data.X, data.t, out=design)
        fits.append(_fit_glm(D, data))

    cv_risks = ((cv_pred - data.y[:, None]) ** 2).mean(axis=0)
    try:
        weights = _nnls(cv_pred, data.y)
    except RuntimeError:
        weights = np.zeros(len(bounds))
    if weights.sum() <= 0:
        weights = (np.arange(len(bounds)) == np.argmin(cv_risks)).astype(float)
    weights = weights / weights.sum()
    return tuple((float(w), bound, fit) for w, bound, fit in zip(weights, bounds, fits)), cv_risks


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
        components, cv_risks = fit_super_learner(data, seed=seed)
        wtxt = "/".join(f"{w:.2f}" for w, _, _ in components)
        desc = f"super learner ({len(components)} candidates, {_SL_FOLDS}-fold cv, weights {wtxt})"
        return OutcomeFit("ml", data.outcome_kind, data.k, desc, components, cv_risks=cv_risks)

    bound = bind_design(data, _parametric_spec(data, regime, truth_spec, with_dummies=True))
    glm = "logistic" if data.outcome_kind == "binary" else "ols"
    desc = f"{glm} regression, {regime} design ({bound.n_columns} columns)"
    components = ((1.0, bound, _fit_glm(bound.matrix(data.X, data.t), data)),)
    return OutcomeFit(regime, data.outcome_kind, data.k, desc, components, truth_spec)


# ---------------------------------------------------------------------------
# propensity fitting


def _stepwise_groups(data: Dataset, sorted_columns):
    """Candidate groups for the stepwise treatment model, as design terms,
    read from `_sorted_columns`.

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
    for name, s in zip(data.columns, sorted_columns):
        groups[name] = (main(name), frozenset())
        if _knots_of_sorted(s) is not None:
            splined.append(name)
            groups[f"{name}.curv"] = (curvature(name), frozenset({name}))
        elif _is_binary_sorted(s):
            binaries.append(name)
    for cname in splined:
        for bname in binaries:
            groups[f"{cname}:{bname}"] = (interaction(cname, bname), frozenset({cname, bname}))
            groups[f"{cname}.curv:{bname}"] = (
                curvature(cname, by=bname),
                frozenset({f"{cname}.curv", f"{cname}:{bname}"}),
            )
    return groups


def _stepwise_multinomial(data: Dataset, sorted_columns):
    """Forward group selection on the spline basis under BIC.

    Starts from the intercept-only model and greedily adds the eligible
    group with the best BIC until no addition improves it.  Parameter count
    is (k-1) per design column.  Weak treatment-covariate signal therefore
    yields a deliberately sparse model, mirroring how adaptive spline
    classifiers behave under light confounding.  Each group's columns are
    expanded once; names pair with `blocks()` by position, as no curvature
    group leaves a binding on the rows and sorted columns that made it
    eligible.  Returns the candidate groups (see _stepwise_groups), the
    chosen group names in selection order, and the multinomial fit and the
    fitted probabilities of the chosen design.
    """
    n, k = data.n, data.k
    groups = _stepwise_groups(data, sorted_columns)
    all_terms = DesignSpec(tuple(term for term, _ in groups.values()))
    columns = dict(zip(groups, bind_design(data, all_terms, sorted_columns).blocks(data.X)))
    logn = np.log(n)

    def scored_fit(D):
        """(BIC, fit, probabilities) of the multinomial model on design D."""
        mfit = fit_multinomial(D, data.t, k)
        P = mfit.predict(D)
        ll = float(np.log(P[np.arange(n), data.t - 1]).sum())
        return -2.0 * ll + (k - 1) * D.shape[1] * logn, mfit, P

    D = np.ones((n, 1))
    chosen = []
    model = scored_fit(D)
    while True:
        best = None
        for name, (_, needs) in groups.items():
            if name in chosen or not needs.issubset(chosen):
                continue
            D_try = np.column_stack([D, columns[name]])
            trial = scored_fit(D_try)
            if trial[0] < model[0] - 1e-9 and (best is None or trial[0] < best[0][0]):
                best = (trial, name, D_try)
        if best is None:
            break
        model, picked, D = best
        chosen.append(picked)
    _, mfit, P = model
    return groups, tuple(chosen), mfit, P


def fit_propensity(data: Dataset, regime, truth_spec: Optional[DesignSpec] = None):
    """Fit the treatment model for a regime and wrap it as a PropensityFit.

    correct    multinomial GLM on the caller-supplied `truth_spec`,
    mainterms  multinomial GLM on intercept + covariate mains,
    ml         forward-BIC spline multinomial (see _stepwise_multinomial);
               the search's own fit of the chosen design is kept, and the
               design is bound only so that `predict_matrix` can expand it.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if regime == "ml":
        columns = _sorted_columns(data)
        groups, chosen, mfit, probs = _stepwise_multinomial(data, columns)
        spec = DesignSpec((intercept(),) + tuple(groups[name][0] for name in chosen))
        bound = bind_design(data, spec, columns)
        desc = f"stepwise spline multinomial (BIC, {len(chosen)} groups: {', '.join(chosen) or 'intercept only'})"
        return PropensityFit("ml", data.k, probs, desc, bound, mfit)
    bound = bind_design(data, _parametric_spec(data, regime, truth_spec, with_dummies=False))
    D = bound.matrix(data.X)
    mfit = fit_multinomial(D, data.t, data.k)
    design = "supplied design" if regime == "correct" else "main terms"
    desc = f"multinomial GLM, {design} ({bound.n_columns} columns)"
    return PropensityFit(regime, data.k, mfit.predict(D), desc, bound, mfit)
