"""Tree families: CART decision tree, bagged random forest, and
gradient-boosted depth-limited trees.

All three share one splitter.  For binary 0/1 targets, minimizing the
summed squared error of a split is equivalent to minimizing the weighted
Gini impurity (node Gini = 2 * variance for 0/1 targets), so the same
prefix-sum scan serves classification trees and the boosted regression
trees.  Ties break toward the lower feature index, then the lower
threshold, so split choice is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ArtifactError, ModelError
from .base import BinaryClassifier, sigmoid, state_array


class _FlatTree:
    """Array-encoded binary tree; index 0 is the root, feature -1 marks leaves."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def finalize(self) -> "_FlatTree":
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)
        return self

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id for every row."""
        out = np.zeros(len(X), dtype=np.int64)
        stack = [(0, np.arange(len(X)))]
        while stack:
            nid, rows = stack.pop()
            if rows.size == 0:
                continue
            if self.feature[nid] < 0:
                out[rows] = nid
            else:
                mask = X[rows, self.feature[nid]] <= self.threshold[nid]
                stack.append((self.left[nid], rows[mask]))
                stack.append((self.right[nid], rows[~mask]))
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.value[self.apply(X)]

    def to_dict(self) -> dict:
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_features: int) -> "_FlatTree":
        """Rebuild a tree; split features must be below ``n_features`` and
        every child must come after its parent, so ``apply`` terminates."""
        tree = cls()
        tree.feature = state_array(d, "feature", (None,), dtype=np.int64)
        n_nodes = len(tree.feature)
        tree.threshold = state_array(d, "threshold", (n_nodes,))
        tree.left = state_array(d, "left", (n_nodes,), dtype=np.int64)
        tree.right = state_array(d, "right", (n_nodes,), dtype=np.int64)
        tree.value = state_array(d, "value", (n_nodes,))
        if n_nodes == 0 or tree.feature.min() < -1 or tree.feature.max() >= n_features:
            raise ArtifactError(f"tree is empty or splits outside the {n_features} features")
        split = np.nonzero(tree.feature >= 0)[0]
        for child in (tree.left[split], tree.right[split]):
            if (child <= split).any() or (child >= n_nodes).any():
                raise ArtifactError("tree child index does not follow its parent")
        return tree


def _best_split(
    X: np.ndarray, targets: np.ndarray, idx: np.ndarray, feature_ids
) -> tuple[int, float] | None:
    """Lowest-SSE (feature, threshold) over candidate features, or None
    when every candidate column is constant on these rows."""
    best_sse = math.inf
    best: tuple[int, float] | None = None
    t_all = targets[idx]
    for j in feature_ids:
        col = X[idx, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ts = t_all[order]
        bounds = np.nonzero(cs[1:] > cs[:-1])[0]
        if bounds.size == 0:
            continue
        csum = np.cumsum(ts)
        csum2 = np.cumsum(ts * ts)
        n = ts.size
        total, total2 = csum[-1], csum2[-1]
        nl = (bounds + 1).astype(np.float64)
        nr = n - nl
        sl, sl2 = csum[bounds], csum2[bounds]
        sse = (sl2 - sl * sl / nl) + ((total2 - sl2) - (total - sl) ** 2 / nr)
        i = int(np.argmin(sse))
        if sse[i] < best_sse:
            lo, hi = cs[bounds[i]], cs[bounds[i] + 1]
            mid = lo + (hi - lo) / 2.0
            if mid >= hi:  # midpoint rounded up to the right value
                mid = lo
            best_sse = float(sse[i])
            best = (int(j), float(mid))
    return best


def build_tree(
    X: np.ndarray,
    targets: np.ndarray,
    rng: np.random.Generator | None,
    max_depth: int | None,
    min_samples_split: int,
    max_features: int | str | None,
) -> _FlatTree:
    """Grow a regression tree on real targets (labels or residuals).

    A node splits whenever it is impure, large enough, within depth, and
    some candidate feature varies, even when the best split has zero
    gain: chaining zero-gain splits is what lets an unlimited-depth tree
    separate rows that no single feature separates.  Iterative build, so
    depth is not capped by the interpreter recursion limit.
    """
    d = X.shape[1]
    feats_all = np.arange(d)
    if max_features is None:
        n_cand = None
    elif max_features == "sqrt":
        n_cand = max(1, math.isqrt(d))
    else:
        n_cand = max(1, min(int(max_features), d))
    if n_cand is not None and rng is None:
        raise ModelError("feature subsampling requires a seeded generator")

    tree = _FlatTree()
    stack = [(tree.new_node(), np.arange(len(X)), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        t_node = targets[idx]
        tree.value[nid] = float(t_node.mean())
        if np.all(t_node == t_node[0]):
            continue
        if len(idx) < min_samples_split:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if n_cand is None:
            cand = feats_all
        else:
            cand = np.sort(rng.choice(d, size=n_cand, replace=False))
        best = _best_split(X, targets, idx, cand)
        if best is None:
            continue
        j, thr = best
        mask = X[idx, j] <= thr
        lid = tree.new_node()
        rid = tree.new_node()
        tree.feature[nid] = j
        tree.threshold[nid] = thr
        tree.left[nid] = lid
        tree.right[nid] = rid
        stack.append((rid, idx[~mask], depth + 1))
        stack.append((lid, idx[mask], depth + 1))
    return tree.finalize()


class DecisionTreeCART(BinaryClassifier):
    """Gini-minimizing CART; the score is the leaf's malicious fraction.

    With unlimited depth the tree drives training error to zero unless
    two identical rows carry different labels.
    """

    family = "DT"

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2):
        super().__init__()
        self.max_depth = None if max_depth is None else int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.tree_: _FlatTree | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.tree_ = build_tree(
            X, y.astype(np.float64), None, self.max_depth, self.min_samples_split, None
        )

    def _score(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.predict(X)

    def state_to_dict(self) -> dict:
        return {"tree": self.tree_.to_dict()}

    def state_from_dict(self, state: dict) -> None:
        self.tree_ = _FlatTree.from_dict(state["tree"], self.n_features_)


class RandomForest(BinaryClassifier):
    """Bagged CART ensemble; the score is the fraction of trees voting 1."""

    family = "RF"

    def __init__(
        self,
        n_trees: int = 50,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        bootstrap: bool = True,
        max_features: int | str | None = None,
        seed: int = 0,
    ):
        super().__init__()
        if n_trees < 1:
            raise ModelError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.max_depth = None if max_depth is None else int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.bootstrap = bool(bootstrap)
        self.max_features = max_features
        self.seed = int(seed)
        self.trees_: list[_FlatTree] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        targets = y.astype(np.float64)
        self.trees_ = []
        for _ in range(self.n_trees):
            if self.bootstrap:
                rows = rng.integers(0, len(X), size=len(X))
            else:
                rows = np.arange(len(X))
            self.trees_.append(
                build_tree(
                    X[rows],
                    targets[rows],
                    rng,
                    self.max_depth,
                    self.min_samples_split,
                    self.max_features,
                )
            )

    def _score(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            votes += tree.predict(X) >= 0.5
        return votes / self.n_trees

    def state_to_dict(self) -> dict:
        return {"trees": [t.to_dict() for t in self.trees_]}

    def state_from_dict(self, state: dict) -> None:
        self.trees_ = [_FlatTree.from_dict(d, self.n_features_) for d in state["trees"]]
        if len(self.trees_) != self.n_trees:
            raise ArtifactError(f"{len(self.trees_)} trees stored for n_trees={self.n_trees}")


class GradientBoostedTrees(BinaryClassifier):
    """Boosted shallow regression trees on the logistic loss.

    Each round fits a tree to the residual y - p, then replaces its leaf
    values with one Newton step: sum(residual) / sum(p * (1 - p)).  The
    score squashes the additive raw score through the logistic.
    """

    family = "GBT"

    def __init__(
        self,
        n_trees: int = 30,
        learning_rate: float = 0.3,
        max_depth: int = 3,
        min_samples_split: int = 2,
    ):
        super().__init__()
        if n_trees < 1:
            raise ModelError(f"n_trees must be >= 1, got {n_trees}")
        self.n_trees = int(n_trees)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.f0_: float = 0.0
        self.trees_: list[_FlatTree] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        p0 = float(y.mean())  # in (0, 1): both classes are required
        self.f0_ = math.log(p0 / (1.0 - p0))
        raw = np.full(len(X), self.f0_, dtype=np.float64)
        self.trees_ = []
        for _ in range(self.n_trees):
            p = sigmoid(raw)
            residual = y - p
            tree = build_tree(
                X, residual, None, self.max_depth, self.min_samples_split, None
            )
            leaf_ids = tree.apply(X)
            hess = p * (1.0 - p)
            num = np.bincount(leaf_ids, weights=residual, minlength=len(tree.value))
            den = np.bincount(leaf_ids, weights=hess, minlength=len(tree.value))
            newton = num / (den + 1e-12)
            leaves = tree.feature < 0
            tree.value[leaves] = newton[leaves]
            raw += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)

    def _raw(self, X: np.ndarray) -> np.ndarray:
        raw = np.full(len(X), self.f0_, dtype=np.float64)
        for tree in self.trees_:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def _score(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self._raw(X))

    def state_to_dict(self) -> dict:
        return {"f0": self.f0_, "trees": [t.to_dict() for t in self.trees_]}

    def state_from_dict(self, state: dict) -> None:
        self.f0_ = float(state["f0"])
        self.trees_ = [_FlatTree.from_dict(d, self.n_features_) for d in state["trees"]]
