"""k-nearest-neighbors classifier on Euclidean distance."""

from __future__ import annotations

import numpy as np

from ..errors import ArtifactError, ModelError
from .base import (
    BinaryClassifier, array_record, check_int, columns_record, state_array, state_columns,
)

# Safety factor on the round-off allowance of the candidate bound: the
# derivation in ``KNearestNeighbors._score`` needs 1, and the margin covers
# the rounding of the allowance and of the comparison themselves.
_ROUNDOFF_FACTOR = 8.0
# Float64 elements one query block, or one brute-force chunk of more than
# one query, may use per temporary (1 MiB).  On the 10,000 seed-20 bulk
# rows, blocks of 2^18 and 2^17 elements held 4.1 and 2.0 MiB beside the
# scores and scored in 0.367 and 0.369 s (medians of 15 alternating runs,
# one thread of a shared 2-vCPU VM).
_BLOCK_ELEMENTS = 1 << 17


def candidate_count(k: int, n: int) -> int:
    """How many training rows each query re-ranks exactly, capped at ``n``."""
    return min(n, max(4 * k, 32))


class KNearestNeighbors(BinaryClassifier):
    """Majority vote over the k nearest training rows.

    The score is the fraction of the k neighbors labeled 1.  Distance
    ties break toward the lower training-row index (stable sort), and an
    odd default k avoids label ties.  Scores are bit-identical to a
    brute-force scan, which computes every pair's squared distance as the
    plain (q - t)^2 sum and takes the first k of a stable argsort:

    * candidates: per block of queries, one matrix product estimates
      ||t||^2 - 2 q.t for every training row, and ``argpartition`` keeps
      the ``candidate_count`` smallest;
    * exact re-rank: the candidates' distances are recomputed with the
      brute-force expression and ordered by (distance, row index);
    * fallback: a query whose k-th exact distance is not safely below
      every other row's estimate, after a round-off allowance, is scored
      by the brute-force scan (``_brute_force``).
    """

    family = "KNN"

    def __init__(self, k: int = 5):
        super().__init__()
        self.k = check_int("k", k, 1)
        self.train_X_: np.ndarray | None = None
        self.train_y_: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None
        self._train_norm_max = 0.0

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        if self.k > len(X):
            raise ModelError(f"k={self.k} exceeds the {len(X)} training rows")
        self.train_X_ = X.copy()
        self.train_y_ = y.copy()
        self._cache_norms()

    def _cache_norms(self) -> None:
        self._train_sq = np.einsum("ij,ij->i", self.train_X_, self.train_X_)
        self._train_norm_max = float(np.sqrt(self._train_sq.max()))

    def _brute_force(self, X: np.ndarray) -> np.ndarray:
        """Scores from every pair's distance: the reference the fast path matches."""
        n, d = self.train_X_.shape
        rows = max(1, _BLOCK_ELEMENTS // (n * d))  # a (rows, n, d) temporary
        out = np.empty(len(X), dtype=np.float64)
        for start in range(0, len(X), rows):
            chunk = X[start : start + rows]
            d2 = ((chunk[:, None, :] - self.train_X_[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
            out[start : start + rows] = self.train_y_[nearest].mean(axis=1)
        return out

    def _score(self, X: np.ndarray) -> np.ndarray:
        # Why the fallback test is safe.  With u = eps/2 and gamma_m =
        # m*u/(1 - m*u), for a query q and a training row t:
        # - the brute-force value b = fl(sum fl(q_i - t_i)^2) is a sum of
        #   d non-negative terms, each with relative error <= gamma_3, in
        #   any order, so b >= (1 - gamma_{d+2}) ||q - t||^2;
        # - fl(q.t) from any GEMM kernel or thread split is within
        #   gamma_d ||q|| ||t|| of q.t, fl(||t||^2) within gamma_d ||t||^2,
        #   fl(||q||^2) within gamma_d ||q||^2, and the two additions that
        #   form ||q||^2 + (||t||^2 - 2 q.t) add 2u (||q|| + ||t||)^2;
        # so the estimate e of ||q - t||^2 satisfies
        #   |e - ||q - t||^2| <= gamma_{d+2} (||q|| + ||t||)^2,
        # and, since ||q - t||^2 <= (||q|| + ||t||)^2 and gamma_{d+2} ~=
        # (d+2) u = (d+2) eps / 2,
        #   b >= e - 2 gamma_{d+2} (||q|| + max ||t||)^2 ~= e - (d+2) eps (...)^2.
        # If the k-th exact distance is strictly below that lower bound for
        # the smallest non-candidate estimate, every non-candidate sorts
        # after the k-th candidate in the brute-force order, so the k
        # nearest candidates are the k nearest rows.  A non-finite bound
        # compares False and falls back.
        n, d = self.train_X_.shape
        m = candidate_count(self.k, n)
        rows = max(1, _BLOCK_ELEMENTS // max(n, m * d))
        slack_per_norm = _ROUNDOFF_FACTOR * (d + 2) * np.finfo(np.float64).eps
        out = np.empty(len(X), dtype=np.float64)
        exact = np.ones(len(X), dtype=bool)
        # A block's large temporaries are its estimates and their partition.
        # The estimates go into one buffer for every block and the partition
        # is freed before the re-rank allocates, so a block never holds the
        # last block's temporaries beside its own, and the memory it frees
        # is reused by the next block instead of returned and faulted in again.
        estimates = np.empty((min(rows, len(X)), n))
        for start in range(0, len(X), rows):
            block = X[start : start + rows]
            at = np.arange(len(block))  # each query's row, for direct indexing
            est = np.matmul(block, self.train_X_.T, out=estimates[: len(block)])
            est *= -2.0
            est += self._train_sq
            if m < n:
                part = np.argpartition(est, m, axis=1)
                cand = part[:, :m].copy()
                bound = est[at, part[:, m]]
                del part
            else:
                cand = np.broadcast_to(np.arange(n), est.shape)
                bound = np.inf
            d2 = ((block[:, None, :] - self.train_X_[cand]) ** 2).sum(axis=-1)
            order = np.lexsort((cand, d2), axis=1)[:, : self.k]
            kth = d2[at, order[:, -1]]
            q_sq = np.einsum("ij,ij->i", block, block)
            slack = slack_per_norm * (np.sqrt(q_sq) + self._train_norm_max) ** 2
            exact[start : start + rows] = kth < bound + q_sq - slack
            nearest = cand[at[:, None], order]
            # Labels are 0 or 1: the integer sum over k gives the mean's bits.
            out[start : start + rows] = self.train_y_[nearest].sum(axis=1) / self.k
        redo = np.flatnonzero(~exact)
        if redo.size:
            out[redo] = self._brute_force(X[redo])
        return out

    def state_to_dict(self) -> dict:
        return {
            "train_X": columns_record(self.train_X_),
            "train_y": array_record(self.train_y_),
        }

    def state_from_dict(self, state: dict) -> None:
        self.train_X_ = state_columns(state, "train_X", self.n_features_)
        n = len(self.train_X_)
        self.train_y_ = state_array(state, "train_y", (n,), dtype=np.int64)
        if not np.isin(self.train_y_, (0, 1)).all():
            raise ArtifactError("KNN train_y must hold labels 0 or 1")
        if n < self.k:
            raise ArtifactError(f"k={self.k} exceeds the {n} stored training rows")
        self._cache_norms()
