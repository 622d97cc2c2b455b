"""Nearest-neighbor matching estimators for multi-level treatments.

Every unit is matched, with replacement, to its m nearest neighbors in each
treatment arm other than its own, so each potential-outcome mean is imputed
for the full sample.  Distances are exact (no approximate search) and are
computed in a whitened coordinate system: covariates scaled by their sample
standard deviation by default, or by the inverse sample covariance
(Mahalanobis) on request.  Each squared distance is summed as
sum_j (q_j - d_j)^2 over queries taken _CHUNK rows at a time, so a search
holds O(_CHUNK * n) floats, and identical whitened donor rows get
bit-identical distances.  Ties resolve to the lowest row index, duplicate
rows of binary or ordinal covariates included (the standardized scaling
maps identical rows to identical whitened rows).  For m > 1 each query's
m nearest are selected by a partition, and only the donors at or below the
m-th distance are sorted, which gives exactly the stable-sort order.  The
bias-corrected variant shifts each donor outcome by the difference in
outcome-model predictions between the matched unit and the donor.

Variances follow the usage-count form of Abadie & Imbens (2006): the
variance of the imputed contrasts plus a term driven by how often each unit
is reused as a donor, with the unit-level outcome variance estimated from
the nearest same-arm neighbor, found by the same search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import OutcomeFit
from .tabular import Dataset
from .weighting import EffectEstimate, _check_pair

__all__ = ["MatchSets", "build_matches", "estimate_match", "estimate_bcm"]

METRICS = ("euclidean-standardized", "mahalanobis")

_CHUNK = 64
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


def _nearest(Zq: np.ndarray, Zd: np.ndarray, m: int, exclude_self: bool = False) -> np.ndarray:
    """Indices (into Zd's rows) of the m nearest donors for each query row.

    Squared distances are summed exactly as sum_j (q_j - d_j)^2, column by
    column into two (_CHUNK x donors) buffers allocated once per call, so
    memory is O(_CHUNK * len(Zd)) and every distance is the same arithmetic
    whatever the chunk shape or BLAS.  Identical donor rows therefore get
    identical distances, and ties resolve to the donor appearing first in
    Zd, i.e. the smallest row index when donors are passed in ascending
    order.  With `exclude_self`, Zq and Zd are the same rows and row i never
    matches itself.  For m > 1, `_m_smallest` selects each chunk's donors,
    partitioning in the second buffer.
    """
    nq = len(Zq)
    out = np.empty((nq, m), dtype=np.intp)
    cols = np.ascontiguousarray(Zd.T)
    rows = max(1, min(_CHUNK, nq))
    dist, term = np.empty((rows, len(Zd))), np.empty((rows, len(Zd)))
    for lo in range(0, nq, rows):
        q = Zq[lo : lo + rows]
        D, T = dist[: len(q)], term[: len(q)]
        for j, col in enumerate(cols):
            # fill with the query value, then subtract the donor column:
            # faster than subtracting with the query value broadcast
            A = T if j else D
            np.copyto(A, q[:, j : j + 1])
            np.subtract(A, col, out=A)
            np.multiply(A, A, out=A)
            if j:
                np.add(D, T, out=D)
        if exclude_self:
            D[np.arange(len(q)), np.arange(lo, lo + len(q))] = np.inf
        if m == 1:
            out[lo : lo + rows, 0] = D.argmin(axis=1)
        else:
            out[lo : lo + rows] = _m_smallest(D, m, T)
    return out


def _m_smallest(D, m, work):
    """Columns of the m smallest entries of each row of D, ordered by
    (value, column): exactly ``np.argsort(D, axis=1, kind="stable")[:, :m]``.

    Selects instead of sorting whole rows: the m-th smallest value of each
    row comes from a partition in `work` (a buffer of D's shape), every
    column at or below it is a candidate (so ties at that value stay in),
    and only the candidates are sorted, stably by (row, value), which keeps
    tied columns in ascending order.
    """
    np.copyto(work, D)
    work.partition(m - 1, axis=1)
    keep = D <= work[:, m - 1 : m]
    rows, cols = np.nonzero(keep)
    order = np.lexsort((D[rows, cols], rows))
    counts = np.count_nonzero(keep, axis=1)
    starts = np.cumsum(counts) - counts
    return cols[order][starts[:, None] + np.arange(m)]


def build_matches(data: Dataset, m: int = 1, metric: str = "euclidean-standardized") -> MatchSets:
    """Find the m nearest cross-arm donors for every row and treatment level.

    Requires every level to contain at least max(m, 2) rows: m so that
    every query has enough donors, 2 so that each row has a same-arm
    neighbor for the variance estimate.  Both searches, cross-arm and
    same-arm, go through `_nearest`: exact squared distances in query
    chunks, so memory is O(_CHUNK * n) rather than arm x arm, and tied
    donors, duplicate rows included, resolve to the lowest row index.
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
        Zd = Z[didx]
        sel = didx[_nearest(Z[qidx], Zd, m)]
        match_indices[qidx, lev - 1, :] = sel
        match_indices[didx, lev - 1, :] = didx[:, None]
        np.add.at(usage_counts[:, lev - 1], sel.ravel(), 1)
        nn_same[didx] = didx[_nearest(Zd, Zd, 1, exclude_self=True)[:, 0]]
    return MatchSets(match_indices=match_indices, usage_counts=usage_counts, nn_same=nn_same, m=m)


def _match_variance(data: Dataset, ms: MatchSets, pair, diff: np.ndarray, tau: float) -> float:
    t1, t0 = pair
    n, m = data.n, ms.m
    sigma2 = (data.y - data.y[ms.nn_same]) ** 2 / 2.0
    rel = (data.t == t1) | (data.t == t0)
    K = ms.usage_counts[np.arange(n), data.t - 1].astype(float)
    reuse = ((K / m) ** 2 + (2.0 * m - 1.0) / m**2 * K) * sigma2
    return float(((diff - tau) ** 2).sum() / n**2 + reuse[rel].sum() / n**2)


def _matched_estimate(data: Dataset, ms: MatchSets, pair, method, out: OutcomeFit = None):
    """Contrast of imputed potential-outcome means: each row's donor-outcome
    mean, shifted by `out`'s prediction gap between row and donors if given."""
    t1, t0 = _check_pair(pair, data.k)
    imputed = {}
    for lev in (t1, t0):
        idx = ms.match_indices[:, lev - 1, :]
        imputed[lev] = data.y[idx].mean(axis=1)
        if out is not None:
            mh = out.predict(lev, data.X)
            imputed[lev] = imputed[lev] + mh - mh[idx].mean(axis=1)
    diff = imputed[t1] - imputed[t0]
    tau = float(diff.mean())
    var = _match_variance(data, ms, (t1, t0), diff, tau)
    return EffectEstimate((t1, t0), tau, var, "population", method)


def estimate_match(data: Dataset, ms: MatchSets, pair) -> EffectEstimate:
    """Matching estimator: difference of imputed potential-outcome means."""
    return _matched_estimate(data, ms, pair, "match")


def estimate_bcm(data: Dataset, ms: MatchSets, out: OutcomeFit, pair) -> EffectEstimate:
    """Bias-corrected matching: donor outcomes shifted by the outcome-model
    prediction gap between the matched unit and its donor before averaging."""
    return _matched_estimate(data, ms, pair, "bcm", out)
