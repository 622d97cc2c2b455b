"""Weighting estimators: IPW, overlap weights, augmented overlap weights.

Inverse probability weighting is implemented in the Horvitz-Thompson form
(sum divided by n, not by the weight total), which is the form whose
instability under poor overlap the simulation engine is meant to exhibit.
Overlap weighting targets the overlap population: each unit is weighted by
h(X)/P(T=t_i|X) where h(X) is the harmonic-type combination of all level
probabilities, and the contrast is a difference of weighted means.  The
augmented version adds an outcome-regression correction and is consistent
when either the treatment or the outcome model is correct.

All three report influence-function variances that treat the fitted
probabilities as known, and NaN variance (no interval) to a pair with an
arm of fewer than 2 rows.  The simulation engine's overlap truths use the
same tilt h (`_overlap_tilt`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .learners import OutcomeFit, PropensityFit
from .tabular import Dataset

__all__ = [
    "EffectEstimate",
    "OverlapWeights",
    "compute_overlap_weights",
    "estimate_ipw",
    "estimate_ow",
    "estimate_aow",
    "ow_influence",
    "aow_influence",
]

_Z975 = 1.959963984540054


@dataclass(frozen=True)
class EffectEstimate:
    """One estimated pairwise contrast.

    `estimand` distinguishes the population average effect from the overlap
    population effect so the two are never silently mixed in reports.
    A variance of NaN means inference was not requested (for example a
    standardization run with the bootstrap turned off); the CI is NaN then.
    Construction casts the pair to ints and the other numbers to Python
    floats.
    """

    pair: tuple
    tau_hat: float
    variance: float
    estimand: str
    method: str

    def __post_init__(self):
        object.__setattr__(self, "pair", (int(self.pair[0]), int(self.pair[1])))
        object.__setattr__(self, "tau_hat", float(self.tau_hat))
        object.__setattr__(self, "variance", float(self.variance))
        if self.estimand not in ("population", "overlap"):
            raise ValueError(f"unknown estimand {self.estimand!r}")
        if np.isfinite(self.variance) and self.variance < 0:
            raise ValueError("negative variance")

    @property
    def se(self):
        return float(np.sqrt(self.variance))

    @property
    def ci95(self):
        """The 95% Wald interval tau_hat -/+ _Z975 * se, or (nan, nan)
        without a finite variance."""
        if not np.isfinite(self.variance):
            return (float("nan"), float("nan"))
        half = _Z975 * self.se
        return (self.tau_hat - half, self.tau_hat + half)

    def covers(self, truth):
        lo, hi = self.ci95
        return bool(lo <= truth <= hi)


def _arms_support_variance(t, pair):
    """Whether both arms of `pair` hold at least 2 rows of treatment codes
    `t`: no variance formula sees the noise of a 1-row arm's one outcome."""
    return min(np.count_nonzero(t == int(level)) for level in pair) >= 2


@dataclass(frozen=True)
class OverlapWeights:
    """Per-observation overlap weights.

    h[i] = [sum_l 1/P(T=l|X_i)]^-1 and w[i] = h[i]/P(T=t_i|X_i).  For two
    treatment levels w reduces to the fitted probability of the opposite
    level, the classical overlap weight.
    """

    h: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if h.shape != w.shape:
            raise ValueError("h and w must align")
        if not (np.all(np.isfinite(h)) and np.all(np.isfinite(w))):
            raise ValueError("non-finite overlap weight")
        if h.min() <= 0 or w.min() <= 0:
            raise ValueError("overlap weights must be positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "w", w)
        self.h.setflags(write=False)
        self.w.setflags(write=False)


def compute_overlap_weights(prop: PropensityFit, t_obs) -> OverlapWeights:
    """Harmonic-combination overlap weights from fitted probabilities."""
    t_obs = np.asarray(t_obs, dtype=int)
    P = prop.probs
    if P.shape[0] != len(t_obs):
        raise ValueError("propensity rows do not match observations")
    h = _overlap_tilt(P)
    w = h / P[np.arange(len(t_obs)), t_obs - 1]
    return OverlapWeights(h=h, w=w)


def _overlap_tilt(P):
    """h = [sum_l 1/P_l]^-1 of each row of the probability matrix P."""
    return 1.0 / (1.0 / P).sum(axis=1)


def _check_pair(pair, k):
    t1, t0 = int(pair[0]), int(pair[1])
    if not (1 <= t1 <= k and 1 <= t0 <= k) or t1 == t0:
        raise ValueError(f"invalid contrast pair {pair} for k={k}")
    return t1, t0


def estimate_ipw(data: Dataset, prop: PropensityFit, pair) -> EffectEstimate:
    """Horvitz-Thompson inverse probability weighting.

    tau_hat = (1/n) sum_i [I(T_i=t) - I(T_i=t')] Y_i / P(T=t_i | X_i), and
    the variance is the centered sandwich form (1/n^2) sum (psi_i - tau)^2
    with the fitted probabilities treated as known.
    """
    t1, t0 = _check_pair(pair, data.k)
    n = data.n
    p_fact = prop.probs[np.arange(n), data.t - 1]
    sign = (data.t == t1).astype(float) - (data.t == t0).astype(float)
    psi = sign * data.y / p_fact
    tau = psi.mean()
    var = float(((psi - tau) ** 2).sum() / n**2) if _arms_support_variance(data.t, pair) else np.nan
    return EffectEstimate((t1, t0), tau, var, "population", "ipw")


def _overlap_arm_means(data: Dataset, ow: OverlapWeights, t1, t0):
    """(i1, i0, s1, s0, tau1, tau0): row masks, weight totals and weighted
    outcome means of arms t1 and t0; raises if an arm has no weight."""
    i1 = data.t == t1
    i0 = data.t == t0
    s1 = ow.w[i1].sum()
    s0 = ow.w[i0].sum()
    if s1 <= 0 or s0 <= 0:
        raise ValueError("a contrast arm has no effective weight")
    tau1 = float((data.y[i1] * ow.w[i1]).sum() / s1)
    tau0 = float((data.y[i0] * ow.w[i0]).sum() / s0)
    return i1, i0, s1, s0, tau1, tau0


def ow_influence(data: Dataset, ow: OverlapWeights, pair):
    """Point estimate and influence contributions of the overlap-weighted
    contrast: D_i = [I(t)(Y-tau_t) w - I(t')(Y-tau_t') w] / hbar with hbar
    the sample mean of h and tau_t the weighted group means.  The influence
    sum is identically zero because each arm is centered at its own
    weighted mean.  Returns (tau, D)."""
    t1, t0 = _check_pair(pair, data.k)
    i1, i0, _, _, tau1, tau0 = _overlap_arm_means(data, ow, t1, t0)
    hbar = ow.h.mean()
    D = (i1 * (data.y - tau1) * ow.w - i0 * (data.y - tau0) * ow.w) / hbar
    return tau1 - tau0, D


def estimate_ow(data: Dataset, ow: OverlapWeights, pair) -> EffectEstimate:
    """Overlap-weighted difference of weighted group means.

    Targets the overlap population.  The variance is the empirical second
    moment of the influence contributions divided by n^2.
    """
    tau, D = ow_influence(data, ow, pair)
    var = float((D**2).sum() / data.n**2) if _arms_support_variance(data.t, pair) else np.nan
    return EffectEstimate(pair, tau, var, "overlap", "ow")


def aow_influence(
    data: Dataset, ow: OverlapWeights, out: OutcomeFit, prop: PropensityFit, pair
):
    """Point estimate and influence contributions of the augmented
    overlap-weighted contrast.

    The estimate has four terms: the overlap-weighted outcome contrast,
    plus the h-weighted average of the model contrast m_t(X) - m_t'(X),
    minus the two w-weighted group means of the model's own-arm
    predictions.  The influence contribution is
        D_i = (h_i/hbar) [m_t - m_t' + I(t)(Y-m_t)/P_t - I(t')(Y-m_t')/P_t']
              - tau_hat.
    Returns (tau, D).
    """
    t1, t0 = _check_pair(pair, data.k)
    m1 = out.predict(t1, data.X)
    m0 = out.predict(t0, data.X)
    i1, i0, s1, s0, tau1, tau0 = _overlap_arm_means(data, ow, t1, t0)
    tau = (
        tau1
        - tau0
        + float((ow.h * (m1 - m0)).sum() / ow.h.sum())
        - float((m1[i1] * ow.w[i1]).sum() / s1)
        + float((m0[i0] * ow.w[i0]).sum() / s0)
    )
    hbar = ow.h.mean()
    bracket = (
        m1
        - m0
        + i1 * (data.y - m1) / prop.probs[:, t1 - 1]
        - i0 * (data.y - m0) / prop.probs[:, t0 - 1]
    )
    D = ow.h / hbar * bracket - tau
    return tau, D


def estimate_aow(
    data: Dataset,
    ow: OverlapWeights,
    out: OutcomeFit,
    prop: PropensityFit,
    pair,
) -> EffectEstimate:
    """Outcome-regression augmented overlap weighting.

    Doubly robust for the overlap-population contrast: consistent when
    either the outcome model or the propensity model is correctly
    specified.  The variance is the empirical second moment of the
    influence contributions divided by n^2.
    """
    tau, D = aow_influence(data, ow, out, prop, pair)
    var = float((D**2).sum() / data.n**2) if _arms_support_variance(data.t, pair) else np.nan
    return EffectEstimate(pair, tau, var, "overlap", "aow")
