"""From-scratch generalized linear model fitting.

Three fitters cover every model the estimators need: ordinary least squares
for continuous outcomes, binary logistic regression via damped Newton (with
optional observation weights, offset, and fractional responses, as required
by the targeting step of the TMLE estimator), and multinomial logistic
regression via damped Newton for the treatment model.  No model-selection or
inference machinery lives here; callers get coefficients and predictions.

The logistic link and its inverse (`logit`, `expit`) are numpy versions of
the ``scipy.special`` functions of the same names, within a few ulp of
them, so this module needs only numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LinearFit",
    "LogisticFit",
    "MultinomialFit",
    "fit_ols",
    "fit_logistic",
    "fit_multinomial",
    "predict_probs",
    "expit",
    "logit",
    "PROB_CLIP",
]

# Probability floor applied to every fitted treatment probability.  Keeps
# inverse-probability weights finite when overlap is poor; chosen small
# enough that it never binds under decent overlap.
PROB_CLIP = 1e-6

_GRAD_TOL = 1e-8
_MAX_ITER_LOGISTIC = 100
_MAX_ITER_MULTINOMIAL = 200
_SEPARATION_BOUND = 20.0


def expit(x):
    """Logistic function 1 / (1 + exp(-x)).  exp is taken only of -|x|, so
    it never overflows; below x = -708 the result underflows, silently, to a
    subnormal or 0, as the true value does."""
    x = np.asarray(x, dtype=float)
    with np.errstate(under="ignore"):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def logit(p):
    """Log-odds log(p / (1 - p)); inside [0.3, 0.65], where that ratio loses
    precision, log1p(s) - log1p(-s) with s = 2 (p - 0.5), as scipy does."""
    p = np.asarray(p, dtype=float)
    s = 2.0 * (p - 0.5)
    with np.errstate(divide="ignore"):  # p = 0 or 1 gives -inf or inf
        central = np.log1p(s) - np.log1p(-s)
        return np.where((p >= 0.3) & (p <= 0.65), central, np.log(p / (1.0 - p)))


@dataclass(frozen=True)
class LinearFit:
    coefficients: np.ndarray

    def predict(self, design):
        return np.asarray(design, dtype=float) @ self.coefficients


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray
    converged: bool
    iterations: int
    separation: bool = False

    def predict_prob(self, design):
        return expit(np.asarray(design, dtype=float) @ self.coefficients)


@dataclass(frozen=True)
class MultinomialFit:
    """Coefficients are (k-1, q) with level 1 as the reference."""

    coefficients: np.ndarray
    converged: bool
    iterations: int
    k: int


def _solve_psd(H, g, scale):
    """Solve H x = g for a symmetric PSD Hessian, adding a whisper of ridge
    when the factorization fails."""
    try:
        return np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        bump = 1e-10 * scale * np.eye(H.shape[0])
        return np.linalg.solve(H + bump, g)


def fit_ols(design, y):
    """Least squares via the normal equations with a ridge fallback.

    The fallback adds lambda = 1e-8 * trace(X'X) / q to the diagonal when the
    Gram matrix is numerically singular (collinear dummies show up in
    bootstrap and plasmode resamples).  Raises if even the ridged system is
    unsolvable.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, q = X.shape
    if n < q:
        raise ValueError(f"need at least as many rows ({n}) as columns ({q})")
    G = X.T @ X
    b = X.T @ y
    try:
        coef = np.linalg.solve(G, b)
        if not np.all(np.isfinite(coef)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        lam = 1e-8 * np.trace(G) / q
        if lam <= 0:
            raise ValueError("degenerate all-zero design")
        coef = np.linalg.solve(G + lam * np.eye(q), b)
        if not np.all(np.isfinite(coef)):
            raise ValueError("design rank-deficient beyond ridge fallback")
    return LinearFit(coefficients=coef)


def fit_logistic(design, y, weights=None, offset=None):
    """Binary logistic regression by damped Newton iteration.

    Accepts fractional responses y in [0, 1] (quasi-likelihood), nonnegative
    observation weights, and a fixed offset added to the linear predictor.
    Convergence is declared at gradient max-norm < 1e-8; a fit pushing a
    coefficient past +-20 without converging is flagged as separated.
    """
    X = np.asarray(design, dtype=float)
    y = np.asarray(y, dtype=float)
    n, q = X.shape
    if y.min() < 0 or y.max() > 1:
        raise ValueError("logistic responses must lie in [0, 1]")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.min() < 0:
        raise ValueError("negative observation weight")
    o = np.zeros(n) if offset is None else np.asarray(offset, dtype=float)

    def quasi_loglik(p):
        eps = 1e-12
        p = np.clip(p, eps, 1 - eps)
        return float(np.sum(w * (y * np.log(p) + (1 - y) * np.log1p(-p))))

    beta = np.zeros(q)
    p = expit(o)
    ll = quasi_loglik(p)
    converged = False
    it = 0
    scale = max(np.trace(X.T @ X) / q, 1.0)
    for it in range(1, _MAX_ITER_LOGISTIC + 1):
        grad = X.T @ (w * (y - p))
        if np.max(np.abs(grad)) < _GRAD_TOL:
            converged = True
            it -= 1
            break
        wt = w * p * (1 - p)
        H = X.T @ (X * wt[:, None])
        step = _solve_psd(H, grad, scale)
        # step-halving keeps the quasi-likelihood monotone
        factor = 1.0
        for _ in range(30):
            cand = beta + factor * step
            p_cand = expit(o + X @ cand)
            ll_cand = quasi_loglik(p_cand)
            if ll_cand >= ll - 1e-12:
                break
            factor *= 0.5
        beta = beta + factor * step
        p = expit(o + X @ beta)
        ll = quasi_loglik(p)
    # under complete separation the gradient can underflow to zero while the
    # coefficients run off; flag on magnitude, not on convergence failure
    separation = bool(np.max(np.abs(beta)) > _SEPARATION_BOUND)
    return LogisticFit(coefficients=beta, converged=converged, iterations=it, separation=separation)


def _softmax_rows(eta):
    shift = eta - eta.max(axis=1, keepdims=True)
    ex = np.exp(shift)
    return ex / ex.sum(axis=1, keepdims=True)


def fit_multinomial(design, t, k):
    """Multinomial logistic regression by damped Newton, level 1 reference.

    Maximizes the multinomial log-likelihood with a full (k-1)q x (k-1)q
    block Hessian and step-halving; declares convergence at gradient max-norm
    < 1e-8.  Non-convergence is reported through the `converged` flag rather
    than an exception; downstream probability clipping absorbs
    quasi-separated fits.
    """
    X = np.asarray(design, dtype=float)
    t = np.asarray(t, dtype=int)
    n, q = X.shape
    present = np.unique(t)
    if len(present) != k or present[0] != 1 or present[-1] != k:
        raise ValueError("all treatment levels 1..k must be present")
    Yind = np.zeros((n, k))
    Yind[np.arange(n), t - 1] = 1.0

    B = np.zeros((k - 1, q))
    scale = max(np.trace(X.T @ X) / q, 1.0)

    def loglik(Bcur):
        eta = np.column_stack([np.zeros(n), X @ Bcur.T])
        P = _softmax_rows(eta)
        return float(np.sum(Yind * np.log(np.clip(P, 1e-300, None)))), P

    ll, P = loglik(B)
    converged = False
    iters = 0
    for iters in range(1, _MAX_ITER_MULTINOMIAL + 1):
        G = X.T @ (Yind[:, 1:] - P[:, 1:])  # (q, k-1)
        grad = G.T.reshape(-1)
        if np.max(np.abs(grad)) < _GRAD_TOL:
            converged = True
            iters -= 1
            break
        H = np.zeros(((k - 1) * q, (k - 1) * q))
        for a in range(k - 1):
            pa = P[:, a + 1]
            for b in range(a, k - 1):
                wab = pa * ((1.0 if a == b else 0.0) - P[:, b + 1])
                block = -X.T @ (X * wab[:, None])
                H[a * q:(a + 1) * q, b * q:(b + 1) * q] = block
                if b != a:
                    H[b * q:(b + 1) * q, a * q:(a + 1) * q] = block
        step = _solve_psd(-H, grad, scale).reshape(k - 1, q)
        factor = 1.0
        for _ in range(30):
            ll_cand, P_cand = loglik(B + factor * step)
            if ll_cand >= ll - 1e-12:
                break
            factor *= 0.5
        B = B + factor * step
        ll, P = loglik(B)
    return MultinomialFit(coefficients=B, converged=converged, iterations=iters, k=k)


def predict_probs(fit: MultinomialFit, design):
    """Fitted treatment probabilities, clipped to [1e-6, 1-1e-6] and then
    renormalized so every row sums to one."""
    X = np.atleast_2d(np.asarray(design, dtype=float))
    n = X.shape[0]
    eta = np.column_stack([np.zeros(n), X @ fit.coefficients.T])
    P = _softmax_rows(eta)
    P = np.clip(P, PROB_CLIP, 1.0 - PROB_CLIP)
    return P / P.sum(axis=1, keepdims=True)
