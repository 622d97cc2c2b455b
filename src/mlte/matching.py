"""Nearest-neighbor matching estimators for multi-level treatments.

Every unit is matched, with replacement, to its m nearest neighbors in each
treatment arm other than its own, so each potential-outcome mean is imputed
for the full sample.  Distances are exact (no approximate search) and are
computed in a whitened coordinate system: covariates scaled by their sample
standard deviation by default, or by the inverse sample covariance
(Mahalanobis) on request.  The bias-corrected variant shifts each donor
outcome by the difference in outcome-model predictions between the matched
unit and the donor.

Variances follow the matching literature's usage-count form: the variance
of the imputed contrasts plus a term driven by how often each unit is
reused as a donor, with the unit-level outcome variance estimated from the
nearest same-arm neighbor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import OutcomeFit
from .tabular import Dataset
from .weighting import EffectEstimate, make_estimate

__all__ = ["MatchSets", "build_matches", "estimate_match", "estimate_bcm"]

METRICS = ("euclidean-standardized", "mahalanobis")

_CHUNK = 1024
_COV_RIDGE = 1e-8


@dataclass(frozen=True)
class MatchSets:
    """Match structure for one dataset.

    match_indices[i, j, :] holds the m donor row indices matched to row i
    for treatment level j+1; rows already at level j+1 store their own index.
    usage_counts[i, j] counts how often row i served as a donor for level
    j+1 queries.  nn_same[i] is the nearest neighbor of i within its own
    arm, used for the unit-level variance estimate.
    """

    match_indices: np.ndarray
    usage_counts: np.ndarray
    nn_same: np.ndarray
    m: int

    def __post_init__(self):
        self.match_indices.setflags(write=False)
        self.usage_counts.setflags(write=False)
        self.nn_same.setflags(write=False)


def _whiten(X: np.ndarray, metric: str) -> np.ndarray:
    if metric == "euclidean-standardized":
        sd = X.std(axis=0, ddof=1)
        sd = np.where(sd > 0, sd, 1.0)
        return X / sd
    if metric == "mahalanobis":
        S = np.atleast_2d(np.cov(X, rowvar=False))
        S = S + _COV_RIDGE * np.eye(S.shape[0])
        A = np.linalg.inv(S)
        return X @ np.linalg.cholesky(A)
    raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")


def _nearest(Zq: np.ndarray, Zd: np.ndarray, m: int) -> np.ndarray:
    """Indices (into Zd's rows) of the m nearest donors for each query row.

    Ties resolve to the donor appearing first in Zd, i.e. the smallest row
    index when donors are passed in ascending order.
    """
    out = np.empty((len(Zq), m), dtype=np.intp)
    dsq = (Zd * Zd).sum(axis=1)
    for lo in range(0, len(Zq), _CHUNK):
        q = Zq[lo : lo + _CHUNK]
        D = (q * q).sum(axis=1)[:, None] + dsq[None, :] - 2.0 * (q @ Zd.T)
        if m == 1:
            out[lo : lo + _CHUNK, 0] = D.argmin(axis=1)
        else:
            out[lo : lo + _CHUNK] = np.argsort(D, axis=1, kind="stable")[:, :m]
    return out


def build_matches(data: Dataset, m: int = 1, metric: str = "euclidean-standardized") -> MatchSets:
    """Find the m nearest cross-arm donors for every row and treatment level.

    Requires every level to contain at least max(m, 2) rows: m so that
    every query has enough donors, 2 so that each row has a same-arm
    neighbor for the variance estimate.  Search is exact, chunked to keep
    the distance matrix in memory for large n.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    Z = _whiten(data.X, metric)
    n, k = data.n, data.k
    need = max(m, 2)
    for lev in range(1, k + 1):
        have = int((data.t == lev).sum())
        if have < need:
            raise ValueError(f"treatment level {lev} has {have} rows; need at least {need}")
    match_indices = np.empty((n, k, m), dtype=np.intp)
    usage_counts = np.zeros((n, k), dtype=np.intp)
    nn_same = np.empty(n, dtype=np.intp)
    for lev in range(1, k + 1):
        didx = np.flatnonzero(data.t == lev)
        qidx = np.flatnonzero(data.t != lev)
        sel = didx[_nearest(Z[qidx], Z[didx], m)]
        match_indices[qidx, lev - 1, :] = sel
        match_indices[didx, lev - 1, :] = didx[:, None]
        np.add.at(usage_counts[:, lev - 1], sel.ravel(), 1)
        # nearest neighbor within the arm, self excluded
        Down = (
            (Z[didx] * Z[didx]).sum(axis=1)[:, None]
            + (Z[didx] * Z[didx]).sum(axis=1)[None, :]
            - 2.0 * (Z[didx] @ Z[didx].T)
        )
        np.fill_diagonal(Down, np.inf)
        nn_same[didx] = didx[Down.argmin(axis=1)]
    return MatchSets(match_indices=match_indices, usage_counts=usage_counts, nn_same=nn_same, m=m)


def _imputed_mean(data: Dataset, ms: MatchSets, level: int) -> np.ndarray:
    return data.y[ms.match_indices[:, level - 1, :]].mean(axis=1)


def _match_variance(data: Dataset, ms: MatchSets, pair, diff: np.ndarray, tau: float) -> float:
    t1, t0 = pair
    n, m = data.n, ms.m
    sigma2 = (data.y - data.y[ms.nn_same]) ** 2 / 2.0
    rel = (data.t == t1) | (data.t == t0)
    K = ms.usage_counts[np.arange(n), data.t - 1].astype(float)
    reuse = ((K / m) ** 2 + (2.0 * m - 1.0) / m**2 * K) * sigma2
    return float(((diff - tau) ** 2).sum() / n**2 + reuse[rel].sum() / n**2)


def estimate_match(data: Dataset, ms: MatchSets, pair) -> EffectEstimate:
    """Matching estimator: difference of imputed potential-outcome means."""
    t1, t0 = int(pair[0]), int(pair[1])
    diff = _imputed_mean(data, ms, t1) - _imputed_mean(data, ms, t0)
    tau = float(diff.mean())
    var = _match_variance(data, ms, (t1, t0), diff, tau)
    return make_estimate((t1, t0), tau, var, "population", "match", data.n)


def estimate_bcm(data: Dataset, ms: MatchSets, out: OutcomeFit, pair) -> EffectEstimate:
    """Bias-corrected matching: donor outcomes shifted by the outcome-model
    prediction gap between the matched unit and its donor before averaging."""
    t1, t0 = int(pair[0]), int(pair[1])
    diffs = {}
    for lev in (t1, t0):
        mh = out.predict(lev, data.X)
        idx = ms.match_indices[:, lev - 1, :]
        diffs[lev] = data.y[idx].mean(axis=1) + mh - mh[idx].mean(axis=1)
    diff = diffs[t1] - diffs[t0]
    tau = float(diff.mean())
    var = _match_variance(data, ms, (t1, t0), diff, tau)
    return make_estimate((t1, t0), tau, var, "population", "bcm", data.n)
