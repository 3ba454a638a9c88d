"""Tree families: CART decision tree, bagged random forest, and
gradient-boosted depth-limited trees.

All three share one splitter, which sorts each column once per fit
(the presorted attribute lists of SLIQ, Mehta, Agrawal & Rissanen, EDBT
1996) and takes a forest's bootstrap as row weights.  For binary 0/1
targets, minimizing the summed squared error of a split is equivalent
to minimizing the weighted Gini impurity (node Gini = 2 * variance for
0/1 targets), so the same prefix-sum scan serves classification trees
and the boosted regression trees.  Ties break toward the lower feature
index, then the lower threshold, so split choice is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ArtifactError, ModelError
from .base import BinaryClassifier, array_record, check_int, check_real, sigmoid, state_array


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
            name: array_record(getattr(self, name))
            for name in ("feature", "threshold", "left", "right", "value")
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


def _check_max_features(value) -> int | str | None:
    if value is None or value == "sqrt":
        return value
    if isinstance(value, str):
        raise ModelError(f"max_features must be None, 'sqrt' or an integer >= 1, got {value!r}")
    return check_int("max_features", value, 1)


def sort_columns(X: np.ndarray) -> np.ndarray:
    """Row ids of each column of ``X`` in ascending (value, row) order, one
    row per column: the one sort a tree fit runs."""
    return np.argsort(X, axis=0, kind="stable").T.copy()


def _split_sorted_lists(
    lists: np.ndarray, start: int, split: int, stop: int, goes_left: np.ndarray
) -> None:
    """Stably move the sorted lists of segment ``[start, stop)`` so the
    rows in ``lists[0, start:split]`` come first in every list."""
    goes_left[lists[0, start:split]] = True
    goes_left[lists[0, split:stop]] = False
    seg = lists[1:, start:stop]
    left = goes_left[seg]
    d = len(seg)
    seg[:] = np.concatenate((seg[left].reshape(d, -1), seg[~left].reshape(d, -1)), axis=1)


# Sorted-list cells scanned per block of candidate features, so the
# block's temporaries stay small and cached.
_BLOCK_CELLS = 1 << 15


def _lowest_sse_split(
    X: np.ndarray,
    cand: np.ndarray,
    sorted_lists: np.ndarray,
    weights: np.ndarray,
    wt: np.ndarray,
    wt2: np.ndarray,
) -> tuple[int, float] | None:
    """The first lowest-SSE (feature, threshold) over the candidates, lower
    feature first, then lower threshold; None when no candidate varies.

    ``sorted_lists[j]`` holds the node's rows sorted by column ``j``.
    Prefix sums of ``weights``, ``wt`` and ``wt2`` run along each list, and
    the SSE is taken only where the value changes.
    """
    m = sorted_lists.shape[1]
    step = max(1, _BLOCK_CELLS // m)
    best_sse = math.inf
    best = None
    for b in range(0, len(cand), step):
        feats = cand[b:b + step]
        rows = sorted_lists[feats]
        vals = X[rows, feats[:, None]]
        f, pos = np.divmod(np.flatnonzero(vals[:, 1:] > vals[:, :-1]), m - 1)
        if f.size == 0:
            continue
        cw = np.cumsum(weights[rows], axis=1)
        csum = np.cumsum(wt[rows], axis=1)
        csum2 = np.cumsum(wt2[rows], axis=1)
        total, total2 = csum[f, -1], csum2[f, -1]
        nl = cw[f, pos]
        nr = cw[f, -1] - nl
        sl, sl2 = csum[f, pos], csum2[f, pos]
        sse = (sl2 - sl * sl / nl) + ((total2 - sl2) - (total - sl) ** 2 / nr)
        i = int(np.argmin(sse))
        if sse[i] < best_sse:
            lo, hi = vals[f[i], pos[i]], vals[f[i], pos[i] + 1]
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:  # midpoint rounded up to the right value
                thr = lo
            best_sse = sse[i]
            best = (int(feats[f[i]]), float(thr))
    return best


def build_tree(
    X: np.ndarray,
    targets: np.ndarray,
    order: np.ndarray,
    weights: np.ndarray,
    rng: np.random.Generator | None,
    max_depth: int | None,
    min_samples_split: int,
    max_features: int | str | None,
) -> _FlatTree:
    """Grow a regression tree on real targets (labels or residuals).

    ``order`` is ``sort_columns(X)``, computed once per fit and shared by
    every tree grown on ``X``.  Row ``i`` counts ``weights[i]`` times (a
    bootstrap multiplicity); rows of weight 0 are left out, and
    ``min_samples_split`` compares with the weight sum.

    A node owns one segment of ``lists``: row 0 holds its rows in
    ascending order, row ``1 + j`` its rows sorted by column ``j``, ties
    by row.  A split stably moves the segment's lists into a left and a
    right part, so no node sorts again.  With unit weights the prefix
    sums therefore run in the order a stable argsort of the node's rows
    gives, and with 0/1 targets every sum is an exact integer, so a
    forest tree equals the tree grown on its bootstrap copy ``X[rows]``.

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
        n_cand = min(max_features, d)
    if n_cand is not None and rng is None:
        raise ModelError("feature subsampling requires a seeded generator")

    present = weights > 0
    rows = np.flatnonzero(present)
    lists = np.empty((d + 1, rows.size), dtype=np.intp)
    lists[0] = rows
    lists[1:] = order if rows.size == len(X) else order[present[order]].reshape(d, rows.size)
    wt = weights * targets
    wt2 = wt * targets
    goes_left = np.zeros(len(X), dtype=bool)

    tree = _FlatTree()
    # A split reorders only its node's row list; both children share one
    # ``unsorted`` record of the parent segment, and the first child that
    # goes on to split moves the sorted lists of the whole segment.
    stack = [(tree.new_node(), 0, rows.size, 0, [])]
    while stack:
        nid, start, stop, depth, unsorted = stack.pop()
        idx = lists[0, start:stop]
        t_node = targets[idx]
        w_sum = weights[idx].sum()
        tree.value[nid] = float(wt[idx].sum() / w_sum)
        if np.all(t_node == t_node[0]):
            continue
        if w_sum < min_samples_split:
            continue
        if max_depth is not None and depth >= max_depth:
            continue
        if n_cand is None:
            cand = feats_all
        else:
            cand = np.sort(rng.choice(d, size=n_cand, replace=False))
        if unsorted:
            _split_sorted_lists(lists, *unsorted, goes_left)
            unsorted.clear()
        best = _lowest_sse_split(X, cand, lists[1:, start:stop], weights, wt, wt2)
        if best is None:
            continue
        j, thr = best
        mask = X[idx, j] <= thr
        split = start + int(np.count_nonzero(mask))
        lists[0, start:stop] = np.concatenate((idx[mask], idx[~mask]))
        lid = tree.new_node()
        rid = tree.new_node()
        tree.feature[nid] = j
        tree.threshold[nid] = thr
        tree.left[nid] = lid
        tree.right[nid] = rid
        children = [start, split, stop]
        stack.append((rid, split, stop, depth + 1, children))
        stack.append((lid, start, split, depth + 1, children))
    return tree.finalize()


class DecisionTreeCART(BinaryClassifier):
    """Gini-minimizing CART; the score is the leaf's malicious fraction.

    With unlimited depth the tree drives training error to zero unless
    two identical rows carry different labels.
    """

    family = "DT"

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2):
        super().__init__()
        self.max_depth = check_int("max_depth", max_depth, 0, allow_none=True)
        self.min_samples_split = check_int("min_samples_split", min_samples_split, 1)
        self.tree_: _FlatTree | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        order = sort_columns(X)
        self.tree_ = build_tree(
            X, y.astype(np.float64), order, np.ones(len(X)), None,
            self.max_depth, self.min_samples_split, None,
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
        self.n_trees = check_int("n_trees", n_trees, 1)
        self.max_depth = check_int("max_depth", max_depth, 0, allow_none=True)
        self.min_samples_split = check_int("min_samples_split", min_samples_split, 1)
        if not isinstance(bootstrap, bool):
            raise ModelError(f"bootstrap must be true or false, got {bootstrap!r}")
        self.bootstrap = bootstrap
        self.max_features = _check_max_features(max_features)
        self.seed = check_int("seed", seed, 0)
        self.trees_: list[_FlatTree] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        targets = y.astype(np.float64)
        order = sort_columns(X)
        n = len(X)
        self.trees_ = []
        for _ in range(self.n_trees):
            if self.bootstrap:
                weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
            else:
                weights = np.ones(n)
            self.trees_.append(
                build_tree(
                    X, targets, order, weights, rng,
                    self.max_depth, self.min_samples_split, self.max_features,
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
        self.n_trees = check_int("n_trees", n_trees, 1)
        self.learning_rate = check_real("learning_rate", learning_rate, 0.0, strict=True)
        self.max_depth = check_int("max_depth", max_depth, 0)
        self.min_samples_split = check_int("min_samples_split", min_samples_split, 1)
        self.f0_: float = 0.0
        self.trees_: list[_FlatTree] = []

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        p0 = float(y.mean())  # in (0, 1): both classes are required
        self.f0_ = math.log(p0 / (1.0 - p0))
        raw = np.full(len(X), self.f0_, dtype=np.float64)
        order = sort_columns(X)
        ones = np.ones(len(X))
        self.trees_ = []
        for _ in range(self.n_trees):
            p = sigmoid(raw)
            residual = y - p
            tree = build_tree(
                X, residual, order, ones, None, self.max_depth, self.min_samples_split, None
            )
            leaf_ids = tree.apply(X)
            hess = p * (1.0 - p)
            num = np.bincount(leaf_ids, weights=residual, minlength=len(tree.value))
            den = np.bincount(leaf_ids, weights=hess, minlength=len(tree.value))
            newton = num / (den + 1e-12)
            leaves = tree.feature < 0
            tree.value[leaves] = newton[leaves]
            raw += self.learning_rate * tree.value[leaf_ids]
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
