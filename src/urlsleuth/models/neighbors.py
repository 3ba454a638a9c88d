"""k-nearest-neighbors classifier on Euclidean distance."""

from __future__ import annotations

import numpy as np

from ..errors import ArtifactError, ModelError
from .base import BinaryClassifier, state_array


class KNearestNeighbors(BinaryClassifier):
    """Majority vote over the k nearest training rows.

    The score is the fraction of the k neighbors labeled 1.  Distance
    ties break toward the lower training-row index (stable sort), and an
    odd default k avoids label ties.  Queries are processed in small
    chunks so memory stays bounded; the per-pair arithmetic is the plain
    (x - q)^2 sum, identical to a brute-force scan.
    """

    family = "KNN"
    _CHUNK = 32

    def __init__(self, k: int = 5):
        super().__init__()
        if k < 1:
            raise ModelError(f"k must be >= 1, got {k}")
        self.k = int(k)
        self.train_X_: np.ndarray | None = None
        self.train_y_: np.ndarray | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.k > len(X):
            raise ModelError(f"k={self.k} exceeds the {len(X)} training rows")
        self.train_X_ = X.copy()
        self.train_y_ = y.copy()

    def _score(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(len(X), dtype=np.float64)
        for start in range(0, len(X), self._CHUNK):
            chunk = X[start : start + self._CHUNK]
            d2 = ((chunk[:, None, :] - self.train_X_[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[start : start + self._CHUNK] = self.train_y_[nearest].mean(axis=1)
        return out

    def state_to_dict(self) -> dict:
        return {"train_X": self.train_X_.tolist(), "train_y": self.train_y_.tolist()}

    def state_from_dict(self, state: dict) -> None:
        self.train_X_ = state_array(state, "train_X", (None, self.n_features_))
        n = len(self.train_X_)
        self.train_y_ = state_array(state, "train_y", (n,), dtype=np.int64)
        if n < self.k:
            raise ArtifactError(f"k={self.k} exceeds the {n} stored training rows")
