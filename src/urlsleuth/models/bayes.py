"""Gaussian naive Bayes with a relative variance floor."""

from __future__ import annotations

import math

import numpy as np

from .base import BinaryClassifier, sigmoid, state_array, variance_floor


class GaussianNaiveBayes(BinaryClassifier):
    """Per-class, per-feature Gaussians with independence across features.

    Variances are floored at 1e-9 times the mean feature variance of the
    training matrix (1e-12 when that mean is zero) so constant features
    cannot produce singular densities.  The score is the posterior
    probability of class 1, computed as sigmoid of the log-likelihood gap.
    """

    family = "GNB"

    def __init__(self) -> None:
        super().__init__()
        self.means_: np.ndarray | None = None  # (2, d)
        self.variances_: np.ndarray | None = None  # (2, d)
        self.log_priors_: np.ndarray | None = None  # (2,)

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        floor = variance_floor(X)
        means = np.empty((2, X.shape[1]))
        variances = np.empty((2, X.shape[1]))
        priors = np.empty(2)
        for c in (0, 1):
            rows = X[y == c]
            means[c] = rows.mean(axis=0)
            variances[c] = np.maximum(rows.var(axis=0), floor)
            priors[c] = len(rows) / len(X)
        self.means_ = means
        self.variances_ = variances
        self.log_priors_ = np.log(priors)

    def _class_loglik(self, X: np.ndarray, c: int) -> np.ndarray:
        diff = X - self.means_[c]
        return self.log_priors_[c] - 0.5 * (
            np.log(2.0 * math.pi * self.variances_[c]).sum()
            + (diff * diff / self.variances_[c]).sum(axis=1)
        )

    def _score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self._class_loglik(X, 1) - self._class_loglik(X, 0))

    def state_to_dict(self) -> dict:
        return {
            "means": self.means_.tolist(),
            "variances": self.variances_.tolist(),
            "log_priors": self.log_priors_.tolist(),
        }

    def state_from_dict(self, state: dict) -> None:
        d = self.n_features_
        self.means_ = state_array(state, "means", (2, d))
        self.variances_ = state_array(state, "variances", (2, d))
        self.log_priors_ = state_array(state, "log_priors", (2,))
