"""Unsupervised families: k-means and a diagonal Gaussian mixture.

Both cluster first and only then look at the training labels, mapping
each cluster to the majority label among its members (ties map to 1,
the conservative direction for a detector).  The malicious score of a
query is the training malicious fraction of its cluster (k-means) or
the posterior mass on clusters mapped to 1 (mixture).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError
from .base import BinaryClassifier, state_array, variance_floor


def _sq_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared Euclidean distances."""
    out = np.empty((len(X), len(centers)), dtype=np.float64)
    for c in range(len(centers)):
        diff = X - centers[c]
        out[:, c] = (diff * diff).sum(axis=1)
    return out


def _kmeans_plus_plus(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Spread-out initial centers: each next center is drawn with
    probability proportional to its squared distance from the chosen ones."""
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    centers[0] = X[rng.integers(len(X))]
    d2 = ((X - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = rng.choice(len(X), p=d2 / total)
        else:  # all points coincide with chosen centers
            idx = rng.integers(len(X))
        centers[c] = X[idx]
        d2 = np.minimum(d2, ((X - centers[c]) ** 2).sum(axis=1))
    return centers


def _majority_fractions(assign: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Training malicious fraction per cluster; empty clusters get 0.5,
    which the 0.5 threshold maps to label 1 (the tie convention)."""
    frac = np.full(k, 0.5, dtype=np.float64)
    for c in range(k):
        members = y[assign == c]
        if len(members):
            frac[c] = float(members.mean())
    return frac


class KMeansDetector(BinaryClassifier):
    """Lloyd's algorithm with spread-out seeding.

    ``inertia_history_`` records the total squared distance to assigned
    centers after every assignment step; it never increases.  An empty
    cluster is reseeded to the point farthest from its current center.
    """

    family = "KMEANS"
    requires_both_classes = False

    def __init__(self, n_clusters: int = 2, max_iter: int = 100, seed: int = 0):
        super().__init__()
        if n_clusters < 1:
            raise ModelError(f"n_clusters must be >= 1, got {n_clusters}")
        if max_iter < 1:
            raise ModelError(f"max_iter must be >= 1, got {max_iter}")
        self.n_clusters = int(n_clusters)
        self.max_iter = int(max_iter)
        self.seed = int(seed)
        self.centers_: np.ndarray | None = None
        self.cluster_fractions_: np.ndarray | None = None
        self.inertia_history_: list[float] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_clusters > len(X):
            raise ModelError(
                f"n_clusters={self.n_clusters} exceeds the {len(X)} training rows"
            )
        rng = np.random.default_rng(self.seed)
        centers = _kmeans_plus_plus(X, self.n_clusters, rng)
        self.inertia_history_ = []
        assign = None
        for _ in range(self.max_iter):
            d2 = _sq_distances(X, centers)
            new_assign = d2.argmin(axis=1)  # ties go to the lower cluster index
            self.inertia_history_.append(float(d2[np.arange(len(X)), new_assign].sum()))
            if assign is not None and np.array_equal(new_assign, assign):
                break
            assign = new_assign
            point_cost = d2[np.arange(len(X)), assign]
            for c in range(self.n_clusters):
                members = assign == c
                if members.any():
                    centers[c] = X[members].mean(axis=0)
                else:
                    centers[c] = X[int(point_cost.argmax())]
        self.centers_ = centers
        final_assign = _sq_distances(X, centers).argmin(axis=1)
        self.cluster_fractions_ = _majority_fractions(final_assign, y, self.n_clusters)

    def _score(self, X: np.ndarray) -> np.ndarray:
        assign = _sq_distances(X, self.centers_).argmin(axis=1)
        return self.cluster_fractions_[assign]

    def state_to_dict(self) -> dict:
        return {
            "centers": self.centers_.tolist(),
            "cluster_fractions": self.cluster_fractions_.tolist(),
        }

    def state_from_dict(self, state: dict) -> None:
        k = self.n_clusters
        self.centers_ = state_array(state, "centers", (k, self.n_features_))
        self.cluster_fractions_ = state_array(state, "cluster_fractions", (k,))


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=1, keepdims=True))).ravel()


class GaussianMixtureDetector(BinaryClassifier):
    """Diagonal-covariance Gaussian mixture trained by EM.

    ``loglik_history_`` records the total data log-likelihood at each E
    step; EM guarantees it never decreases (up to the variance floor,
    which caps how sharp any component may get).
    """

    family = "GMM"
    requires_both_classes = False

    def __init__(
        self,
        n_components: int = 2,
        max_iter: int = 100,
        tol: float = 1e-7,
        seed: int = 0,
    ):
        super().__init__()
        if n_components < 1:
            raise ModelError(f"n_components must be >= 1, got {n_components}")
        if max_iter < 1:
            raise ModelError(f"max_iter must be >= 1, got {max_iter}")
        self.n_components = int(n_components)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.seed = int(seed)
        self.weights_: np.ndarray | None = None
        self.means_: np.ndarray | None = None
        self.variances_: np.ndarray | None = None
        self.component_fractions_: np.ndarray | None = None
        self.loglik_history_: list[float] = []

    def _log_joint(self, X: np.ndarray) -> np.ndarray:
        """(n, k) log of weight_c times the diagonal Gaussian density."""
        out = np.empty((len(X), self.n_components), dtype=np.float64)
        for c in range(self.n_components):
            diff = X - self.means_[c]
            out[:, c] = (
                math.log(self.weights_[c])
                - 0.5 * np.log(2.0 * math.pi * self.variances_[c]).sum()
                - 0.5 * (diff * diff / self.variances_[c]).sum(axis=1)
            )
        return out

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.n_components > len(X):
            raise ModelError(
                f"n_components={self.n_components} exceeds the {len(X)} training rows"
            )
        rng = np.random.default_rng(self.seed)
        floor = variance_floor(X)
        k = self.n_components
        self.means_ = _kmeans_plus_plus(X, k, rng)
        self.variances_ = np.tile(np.maximum(X.var(axis=0), floor), (k, 1))
        self.weights_ = np.full(k, 1.0 / k)
        self.loglik_history_ = []
        resp = None
        for _ in range(self.max_iter):
            log_joint = self._log_joint(X)
            log_norm = _logsumexp_rows(log_joint)
            loglik = float(log_norm.sum())
            resp = np.exp(log_joint - log_norm[:, None])
            if (
                len(self.loglik_history_)
                and abs(loglik - self.loglik_history_[-1])
                <= self.tol * max(1.0, abs(loglik))
            ):
                self.loglik_history_.append(loglik)
                break
            self.loglik_history_.append(loglik)
            nk = resp.sum(axis=0)
            safe_nk = np.maximum(nk, 1e-12)
            self.weights_ = np.maximum(nk / len(X), 1e-12)
            self.weights_ = self.weights_ / self.weights_.sum()
            self.means_ = (resp.T @ X) / safe_nk[:, None]
            for c in range(k):
                diff = X - self.means_[c]
                var_c = (resp[:, c][:, None] * diff * diff).sum(axis=0) / safe_nk[c]
                self.variances_[c] = np.maximum(var_c, floor)
        hard = resp.argmax(axis=1)
        self.component_fractions_ = _majority_fractions(hard, y, k)

    def _score(self, X: np.ndarray) -> np.ndarray:
        log_joint = self._log_joint(X)
        resp = np.exp(log_joint - _logsumexp_rows(log_joint)[:, None])
        malicious = self.component_fractions_ >= 0.5
        return resp[:, malicious].sum(axis=1)

    def state_to_dict(self) -> dict:
        return {
            "weights": self.weights_.tolist(),
            "means": self.means_.tolist(),
            "variances": self.variances_.tolist(),
            "component_fractions": self.component_fractions_.tolist(),
        }

    def state_from_dict(self, state: dict) -> None:
        k, d = self.n_components, self.n_features_
        self.weights_ = state_array(state, "weights", (k,))
        self.means_ = state_array(state, "means", (k, d))
        self.variances_ = state_array(state, "variances", (k, d))
        self.component_fractions_ = state_array(state, "component_fractions", (k,))
