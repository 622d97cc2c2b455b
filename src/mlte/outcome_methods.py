"""Outcome-model estimators: standardization and targeted maximum likelihood.

Standardization is the plug-in contrast of counterfactual predictions
averaged over the empirical covariate distribution, with a nonparametric
bootstrap (full learner refit per resample) for its variance.  TMLE updates
the initial outcome predictions by a one-parameter logistic fluctuation per
treatment level, solving the efficient score equation, and reads its
variance off the empirical influence function.  The unadjusted group-mean
contrast lives here too since the simulation engine reports it as the
no-adjustment baseline.  Everything here runs on numpy alone: the TMLE
link functions are `glm.logit` and `glm.expit`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .glm import expit, fit_logistic, logit
from .learners import OutcomeFit, PropensityFit
from .tabular import Dataset
from .weighting import EffectEstimate, _arms_support_variance, _check_pair

__all__ = [
    "TmleFluctuation",
    "stan_estimates",
    "estimate_tmle",
    "estimate_crude",
    "tmle_fluctuations",
]

_Q_CLIP = 1e-4
_BOOTSTRAP_REDRAW_LIMIT = 10


def estimate_crude(data: Dataset, pair) -> EffectEstimate:
    """Unadjusted difference of group means with the two-sample variance
    (NaN for a pair with a 1-row arm)."""
    t1, t0 = _check_pair(pair, data.k)
    y1 = data.y[data.t == t1]
    y0 = data.y[data.t == t0]
    tau = y1.mean() - y0.mean()
    supported = _arms_support_variance(data.t, pair)
    var = y1.var(ddof=1) / len(y1) + y0.var(ddof=1) / len(y0) if supported else np.nan
    return EffectEstimate((t1, t0), tau, var, "population", "crude")


# ---------------------------------------------------------------------------
# standardization


def _plugin_contrast(out: OutcomeFit, X, pair):
    t1, t0 = pair
    diff = out.predict(t1, X) - out.predict(t0, X)
    return float(np.add.reduce(diff) / len(diff))  # diff.mean() without its Python-level dispatch


def _resample_need(data: Dataset):
    """Rows a resample must keep of each level: 2, or 1 for a 1-row level."""
    return np.minimum(np.bincount(data.t, minlength=data.k + 1)[1:], 2)


def _bootstrap_resample(data: Dataset, rng, need):
    """One with-replacement resample keeping at least 2 rows of every level.

    Two rows is the fewest that cross-validation folds (``_cv_folds``) and
    the match search accept; a level with a single row in the data needs
    only to stay present (`need`, from `_resample_need`).  Redraws
    (consuming fresh randomness from `rng`) while a level has fewer; gives
    up after a fixed number of attempts.
    """
    for _ in range(_BOOTSTRAP_REDRAW_LIMIT):
        rows = rng.integers(0, data.n, data.n)
        if (np.bincount(data.t[rows], minlength=data.k + 1)[1:] >= need).all():
            return data.take(rows)
    raise RuntimeError(
        f"bootstrap resample kept fewer than 2 rows (1 for a 1-row level) of some "
        f"treatment level after {_BOOTSTRAP_REDRAW_LIMIT} redraws"
    )


def stan_bootstrap(data: Dataset, out: OutcomeFit, pairs, bootstrap_reps=200, seed=0):
    """Bootstrap variance of the standardization estimator, shared resamples
    across contrast pairs.

    Each resample refits the outcome learner from scratch (cross-validation
    included) on the resampled rows and recomputes every requested contrast.
    Returns {pair: variance}.  Variances are NaN, and nothing is drawn, when
    bootstrap_reps < 2 (fewer than 2 draws give no variance).  A pair with an
    arm of fewer than 2 rows also gets NaN: every resample keeps that arm's
    only row, so the draws would understate the variance.
    """
    pairs = [tuple(p) for p in pairs]
    variances = {p: float("nan") for p in pairs}
    live = [p for p in pairs if _arms_support_variance(data.t, p)]
    if bootstrap_reps < 2 or not live:
        return variances
    draws = {p: np.empty(bootstrap_reps) for p in live}
    need = _resample_need(data)
    for b in range(bootstrap_reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        boot = _bootstrap_resample(data, rng, need)
        # only the ml super learner draws from its seed (its folds)
        refit_seed = np.random.SeedSequence(seed, spawn_key=(b, 1)) if out.regime == "ml" else 0
        refit = out.refit(boot, seed=refit_seed)
        for p in live:
            draws[p][b] = _plugin_contrast(refit, boot.X, p)
        del boot, refit  # free this resample and its refit before the next is drawn and fitted
    variances.update({p: float(np.var(draws[p], ddof=1)) for p in live})
    return variances


def stan_estimates(data: Dataset, out: OutcomeFit, pairs, bootstrap_reps=200, seed=0):
    """Standardization (g-computation) estimates for several pairs, with
    nonparametric bootstrap inference from resamples shared across pairs.

    Each point estimate averages predicted outcome contrasts over all n
    rows.  Pass bootstrap_reps=0 to skip inference; the variances are then
    NaN and the confidence intervals absent, as they are for a pair with a
    1-row arm.  Returns {pair: EffectEstimate}.
    """
    pairs = [_check_pair(p, data.k) for p in pairs]
    variances = stan_bootstrap(data, out, pairs, bootstrap_reps, seed)
    return {
        p: EffectEstimate(p, _plugin_contrast(out, data.X, p), variances[p], "population", "stan")
        for p in pairs
    }


# ---------------------------------------------------------------------------
# targeted maximum likelihood


@dataclass(frozen=True)
class TmleFluctuation:
    """Targeting-step record for one treatment level: the fluctuation
    intercept, the updated predictions on the working [0, 1] scale, and the
    outcome bounds (a, b) that define that scale: (0, 1) for binary
    outcomes, the observed range for continuous ones."""

    level: int
    epsilon: float
    q1: np.ndarray
    scale: tuple


def _outcome_bounds(data: Dataset):
    if data.outcome_kind == "binary":
        return 0.0, 1.0
    a, b = float(data.y.min()), float(data.y.max())
    if not b > a:
        raise ValueError(f"degenerate outcome bounds ({a}, {b})")
    return a, b


def tmle_fluctuations(data: Dataset, out: OutcomeFit, prop: PropensityFit, levels):
    """Run the one-parameter logistic fluctuation for each requested level.

    The outcome is mapped to Y* = (Y - a)/(b - a); initial predictions are
    mapped alike and clipped to [1e-4, 1 - 1e-4] before the logit.  For each
    level j an intercept-only logistic regression of Y* with offset
    logit(Q0) and weights I(T=j)/P(T=j|X) yields epsilon, and
    Q1 = expit(logit(Q0) + epsilon).  Returns {level: TmleFluctuation}.
    """
    a, b = _outcome_bounds(data)
    ystar = (data.y - a) / (b - a)
    ones = np.ones((data.n, 1))
    result = {}
    for j in levels:
        j = int(j)
        q0 = np.clip((out.predict(j, data.X) - a) / (b - a), _Q_CLIP, 1.0 - _Q_CLIP)
        wj = (data.t == j) / prop.probs[:, j - 1]
        offset = logit(q0)
        fl = fit_logistic(ones, ystar, weights=wj, offset=offset)
        eps = float(fl.coefficients[0])
        q1 = expit(offset + eps)
        result[j] = TmleFluctuation(level=j, epsilon=eps, q1=q1, scale=(a, b))
    return result


def estimate_tmle(data: Dataset, out: OutcomeFit, prop: PropensityFit, pair) -> EffectEstimate:
    """Targeted maximum likelihood for one pairwise contrast.

    Fluctuates each of the two levels once, averages the back-transformed
    updated predictions, and estimates the variance as the sample variance
    of the efficient influence contribution divided by n.
    """
    t1, t0 = _check_pair(pair, data.k)
    fl = tmle_fluctuations(data, out, prop, (t1, t0))
    a, b = fl[t1].scale
    span = b - a
    ystar = (data.y - a) / span
    q1_1, q1_0 = fl[t1].q1, fl[t0].q1
    w1 = (data.t == t1) / prop.probs[:, t1 - 1]
    w0 = (data.t == t0) / prop.probs[:, t0 - 1]
    tau = float(((q1_1 - q1_0) * span).mean())
    D = (
        w1 * (ystar - q1_1) * span
        - w0 * (ystar - q1_0) * span
        + (q1_1 * span + a)
        - (q1_0 * span + a)
        - tau
    )
    var = float(D.var(ddof=1) / data.n) if _arms_support_variance(data.t, pair) else np.nan
    return EffectEstimate((t1, t0), tau, var, "population", "tmle")
