"""Shared contract for the eleven classifier families.

Every family exposes the same surface: ``fit(X, y)``, ``score_batch(X)``
(a malicious-confidence in [0, 1] per row), and ``predict_batch(X)``
(label 1 iff score >= 0.5).  Fitting is deterministic given the
hyperparameters, the seed, and the data.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import ArtifactError, ModelError

FAMILIES = (
    "BASELINE",
    "LR",
    "LINEAR_SVM",
    "DT",
    "RF",
    "GBT",
    "KNN",
    "GNB",
    "MLP",
    "KMEANS",
    "GMM",
)
SUPERVISED_FAMILIES = ("LR", "LINEAR_SVM", "DT", "RF", "GBT", "KNN", "GNB", "MLP")
UNSUPERVISED_FAMILIES = ("KMEANS", "GMM")


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def variance_floor(X: np.ndarray) -> float:
    """Smallest variance a Gaussian may take: 1e-9 times the mean column
    variance of the training matrix, or 1e-12 when that mean is zero."""
    mean_var = float(X.var(axis=0).mean())
    return 1e-9 * mean_var if mean_var > 0 else 1e-12


def state_array(state: dict, key: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``state[key]`` as a finite array of ``shape``; a ``None`` dimension
    matches any size.  An integer ``dtype`` also requires whole numbers
    that float64 holds exactly, so nothing is truncated."""
    arr = np.asarray(state[key], dtype=np.float64)
    if arr.ndim != len(shape) or any(w not in (None, got) for got, w in zip(arr.shape, shape)):
        expected = tuple("n" if w is None else w for w in shape)
        raise ArtifactError(f"saved array {key!r} has shape {arr.shape}, expected {expected}")
    if not np.all(np.isfinite(arr)):
        raise ArtifactError(f"saved array {key!r} contains NaN or infinite values")
    if np.issubdtype(dtype, np.integer):
        if not np.all((arr == np.round(arr)) & (np.abs(arr) <= 2**53)):
            raise ArtifactError(f"saved array {key!r} holds values that are not integers")
        arr = arr.astype(dtype)
    return arr


def check_features(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ModelError(f"feature matrix must be 2-dimensional, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ModelError("feature matrix contains non-finite entries")
    return X


def check_labels(y, n_rows: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim != 1 or len(y) != n_rows:
        raise ModelError(f"labels must be a vector of length {n_rows}")
    if not np.isin(y, (0, 1)).all():
        raise ModelError("labels must be 0 or 1")
    return y.astype(np.int64)


class BinaryClassifier(abc.ABC):
    """Base class: uniform fit/score/predict with a 0.5 threshold."""

    family: str = ""
    requires_both_classes: bool = True

    def __init__(self) -> None:
        self._fitted = False
        self.n_features_: int | None = None

    def fit(self, X, y) -> "BinaryClassifier":
        X = check_features(X)
        y = check_labels(y, len(X))
        if len(X) < 2:
            raise ModelError("fit requires at least 2 rows")
        if self.requires_both_classes and len(np.unique(y)) < 2:
            raise ModelError(f"{self.family} requires both classes in the training labels")
        self.n_features_ = X.shape[1]
        self._fit(X, y)
        self._fitted = True
        return self

    def score_batch(self, X) -> np.ndarray:
        """Malicious confidence in [0, 1], one value per row."""
        X = check_features(X)
        if not self._fitted:
            raise ModelError(f"{self.family} model is not fitted")
        if X.shape[1] != self.n_features_:
            raise ModelError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return self._score(X)

    def predict_batch(self, X) -> np.ndarray:
        return (self.score_batch(X) >= 0.5).astype(np.int64)

    @abc.abstractmethod
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _score(self, X: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def state_to_dict(self) -> dict: ...

    @abc.abstractmethod
    def state_from_dict(self, state: dict) -> None: ...

    def _restore(self, n_features: int, state: dict) -> None:
        """Rehydrate a fitted model; ``state_from_dict`` checks shapes against ``n_features_``."""
        self.n_features_ = n_features
        self.state_from_dict(state)
        self._fitted = True


class AlwaysMaliciousBaseline(BinaryClassifier):
    """The reference model every real family must beat: label 1 for all."""

    family = "BASELINE"
    requires_both_classes = False

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        pass

    def _score(self, X: np.ndarray) -> np.ndarray:
        return np.ones(len(X), dtype=np.float64)

    def state_to_dict(self) -> dict:
        return {}

    def state_from_dict(self, state: dict) -> None:
        pass
