"""Hypothesis inputs shared by the drawn-input tests: covariate columns of
the kinds that steer the fast paths (ties, few values, a value some folds
lose, too few values for a spline), datasets built from them, and datasets
whose one categorical covariate enters as stratum dummies.
"""

import numpy as np
from hypothesis import strategies as st

from mlte.tabular import Dataset

DRAWN_KINDS = ("continuous", "one decimal", "ordinal", "rare value", "binary", "constant")


def drawn_column(kind, rng, n):
    """A covariate of kind `kind` (one of `DRAWN_KINDS`) on `n` rows."""
    if kind == "continuous":
        return rng.normal(size=n)
    if kind == "one decimal":
        return np.round(rng.normal(size=n), 1)
    if kind == "ordinal":
        return rng.integers(0, 3, n).astype(float)
    if kind == "rare value":
        return rng.permutation(np.append(rng.integers(1, 5, n - 1), 5)).astype(float)
    if kind == "binary":
        return (rng.random(n) < 0.5).astype(float)
    return np.full(n, rng.normal())


@st.composite
def super_learner_inputs(draw):
    """A dataset of 40-200 rows, 1-4 drawn covariates and 3-4 arms of at
    least 2 rows each, the last arm's size drawn."""
    n, k = draw(st.integers(40, 200)), draw(st.integers(3, 4))
    last = draw(st.integers(2, n // k))
    kinds = draw(st.lists(st.sampled_from(DRAWN_KINDS), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    others = np.append(np.repeat(np.arange(1, k), 2), rng.integers(1, k, n - last - 2 * (k - 1)))
    t = rng.permutation(np.append(others, np.full(last, k)))
    X = np.column_stack([drawn_column(kind, rng, n) for kind in kinds])
    return Dataset.from_arrays(X, t, X.sum(axis=1) + t + rng.normal(size=n))


@st.composite
def strata_inputs(draw):
    """A dataset of 100-600 rows whose covariates are the dummies of one
    categorical covariate of 2-5 strata (the first stratum the reference),
    with 2-4 arms and at least 2 rows in every stratum x arm cell; returned
    with each row's stratum 0..S-1.  Each stratum draws its arm shares from
    Dirichlet(3, ..., 3).  Cell means are 3 per arm level plus a stratum-by-
    arm term, so every contrast is far from 0 and no main-terms outcome
    model is correct."""
    S, k, n = draw(st.integers(2, 5)), draw(st.integers(2, 4)), draw(st.integers(100, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    strata = rng.integers(0, S, n)
    t = np.empty(n, dtype=int)
    for s, p in enumerate(rng.dirichlet(np.full(k, 3.0), S)):
        t[strata == s] = rng.choice(np.arange(1, k + 1), int((strata == s).sum()), p=p)
    filled = 2 * S * k
    strata[:filled], t[:filled] = np.repeat(np.arange(S), 2 * k), np.tile(np.arange(1, k + 1), 2 * S)
    cell_means = 3.0 * np.arange(1, k + 1) + 0.3 * rng.normal(size=(S, k))
    y = cell_means[strata, t - 1] + 0.5 * rng.normal(size=n)
    X = (strata[:, None] == np.arange(1, S)).astype(float)
    return Dataset.from_arrays(X, t, y), strata
