"""From-scratch generalized linear model fitting.

Three fitters cover every model the estimators need: ordinary least squares
for continuous outcomes, binary logistic regression via damped Newton (with
optional observation weights, offset, and fractional responses, as required
by the targeting step of the TMLE estimator), and multinomial logistic
regression via damped Newton for the treatment model.  The two Newton
fitters share one driver (`_damped_newton`) and supply only their
log-likelihood, gradient and negated Hessian.  No model-selection or
inference machinery lives here; callers get coefficients and, from each
fit's `predict(design)`, predictions on the response scale.

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
        """The fitted means of the rows of `design`."""
        return np.asarray(design, dtype=float) @ self.coefficients


@dataclass(frozen=True)
class LogisticFit:
    coefficients: np.ndarray
    converged: bool
    iterations: int
    separation: bool = False

    def predict(self, design):
        """The fitted probabilities of the rows of `design`."""
        return expit(np.asarray(design, dtype=float) @ self.coefficients)


@dataclass(frozen=True)
class MultinomialFit:
    """Coefficients are (k-1, q) with level 1 as the reference."""

    coefficients: np.ndarray
    converged: bool
    iterations: int

    def predict(self, design):
        """Fitted treatment probabilities of the rows of `design`, one column
        per level, clipped to [PROB_CLIP, 1 - PROB_CLIP] and then
        renormalized so every row sums to one."""
        X = np.atleast_2d(np.asarray(design, dtype=float))
        P = _softmax_rows(np.column_stack([np.zeros(X.shape[0]), X @ self.coefficients.T]))
        P = np.clip(P, PROB_CLIP, 1.0 - PROB_CLIP)
        return P / P.sum(axis=1, keepdims=True)


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
        if not np.isfinite(coef).all():
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        lam = 1e-8 * np.trace(G) / q
        if lam <= 0:
            raise ValueError("degenerate all-zero design")
        coef = np.linalg.solve(G + lam * np.eye(q), b)
        if not np.isfinite(coef).all():
            raise ValueError("design rank-deficient beyond ridge fallback")
    return LinearFit(coefficients=coef)


def _damped_newton(X, theta, loglik, derivatives, max_iter):
    """Maximize a log-likelihood by Newton steps with step-halving.

    `loglik(theta)` returns (log-likelihood, fitted state) and
    `derivatives(state)` the flat gradient and the negated Hessian there.
    Converged at gradient max-norm < 1e-8; each step is halved, up to 30
    times, until the log-likelihood does not drop, and the step of 0.5**30
    is taken whether it drops or not; the accepted trial's evaluation is
    kept.  `X` (the design) sets the scale of the ridge `_solve_psd` falls
    back on.  Returns (theta, converged, iterations).
    """
    scale = max(np.trace(X.T @ X) / X.shape[1], 1.0)
    ll, state = loglik(theta)
    for it in range(1, max_iter + 1):
        grad, neg_hess = derivatives(state)
        if np.max(np.abs(grad)) < _GRAD_TOL:
            return theta, True, it - 1
        step = _solve_psd(neg_hess, grad, scale).reshape(theta.shape)
        factor = 1.0
        for _ in range(31):
            trial = theta + factor * step
            trial_ll, trial_state = loglik(trial)
            if trial_ll >= ll - 1e-12:
                break
            factor *= 0.5
        theta, ll, state = trial, trial_ll, trial_state
    return theta, False, max_iter


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

    def quasi_loglik(beta):
        p = expit(o + X @ beta)
        pc = np.clip(p, 1e-12, 1 - 1e-12)
        return float(np.sum(w * (y * np.log(pc) + (1 - y) * np.log1p(-pc)))), p

    def derivatives(p):
        return X.T @ (w * (y - p)), X.T @ (X * (w * p * (1 - p))[:, None])

    beta, converged, it = _damped_newton(X, np.zeros(q), quasi_loglik, derivatives, _MAX_ITER_LOGISTIC)
    # under complete separation the gradient can underflow to zero while the
    # coefficients run off; flag on magnitude, not on convergence failure
    separation = bool(np.max(np.abs(beta)) > _SEPARATION_BOUND)
    return LogisticFit(coefficients=beta, converged=converged, iterations=it, separation=separation)


def _softmax_rows(eta):
    """Softmax of each row of eta, shifted by the row maximum so that exp
    cannot overflow."""
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
    if t.min() < 1 or t.max() > k or not np.bincount(t, minlength=k + 1)[1:].all():
        raise ValueError("all treatment levels 1..k must be present")
    Yind = np.zeros((n, k))
    Yind[np.arange(n), t - 1] = 1.0

    def loglik(B):
        P = _softmax_rows(np.column_stack([np.zeros(n), X @ B.T]))
        return float(np.sum(Yind * np.log(np.clip(P, 1e-300, None)))), P

    def derivatives(P):
        grad = (X.T @ (Yind[:, 1:] - P[:, 1:])).T.reshape(-1)
        neg_hess = np.empty(((k - 1) * q, (k - 1) * q))
        for a in range(k - 1):
            for b in range(a, k - 1):
                wab = P[:, a + 1] * ((1.0 if a == b else 0.0) - P[:, b + 1])
                block = X.T @ (X * wab[:, None])
                neg_hess[a * q:(a + 1) * q, b * q:(b + 1) * q] = block
                neg_hess[b * q:(b + 1) * q, a * q:(a + 1) * q] = block
        return grad, neg_hess

    B, converged, iters = _damped_newton(
        X, np.zeros((k - 1, q)), loglik, derivatives, _MAX_ITER_MULTINOMIAL
    )
    return MultinomialFit(coefficients=B, converged=converged, iterations=iters)

