"""Hand-made stand-ins for OutcomeFit and PropensityFit.

Estimators only read a fit's attributes and call its predict methods, so
tests that need exact, hand-checkable predictions pass these duck-typed
stubs built from plain functions instead of fitted models.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class StubOutcomeFit:
    """Outcome fit whose predictions come from `_predict(level, X)` and whose
    `refit(data, seed)` calls `_refit`."""

    regime: str
    outcome_kind: str
    k: int
    description: str
    _predict: Callable
    _refit: Callable = None

    def predict(self, level, X):
        if not (1 <= level <= self.k):
            raise ValueError(f"treatment level {level} outside 1..{self.k}")
        return np.asarray(self._predict(level, np.atleast_2d(np.asarray(X, dtype=float))))

    def predict_matrix(self, X):
        return np.column_stack([self.predict(level, X) for level in range(1, self.k + 1)])

    def refit(self, data, seed=0):
        return self._refit(data, seed)


@dataclass(frozen=True)
class StubPropensityFit:
    """Propensity fit with fixed training probabilities `probs` and new-row
    probabilities from `_predict(X)`."""

    regime: str
    k: int
    probs: np.ndarray
    description: str
    converged: bool
    _predict: Callable = None

    def predict_matrix(self, X):
        return self._predict(np.atleast_2d(np.asarray(X, dtype=float)))
