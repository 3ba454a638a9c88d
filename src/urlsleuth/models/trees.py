"""Tree families: CART decision tree, bagged random forest, and
gradient-boosted depth-limited trees.

All three share one splitter, which codes each column once per fit and
takes a forest's bootstrap as row weights.  For binary 0/1 targets,
minimizing the summed squared error of a split is equivalent to
minimizing the weighted Gini impurity (node Gini = 2 * variance for 0/1
targets), so the same prefix-sum scan serves classification trees and
the boosted regression trees.  Ties break toward the lower feature
index, then the lower threshold, so split choice is deterministic.

The one coding is each cell's rank among its column's distinct values
(``rank_columns``), and a fit derives all else from it.  DT and RF sum
each run of equal values in a column with one ``np.bincount`` per
tree, as a histogram splitter does (LightGBM, Ke et al., NeurIPS 2017):
their weights are ones or bootstrap counts and their targets 0 or 1, so
every sum is an exact integer and equals the prefix sum of the sorted
scan.  GBT's residuals are floats, so its roots keep the prefix sums
along the rows sorted by rank, and what does not depend on the targets
(change positions, counts, thresholds) is worked out once per fit.
Nodes below the root sort their own rows by the same ranks.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ArtifactError, ModelError
from .base import (
    BinaryClassifier, array_record, check_int, check_real, sigmoid, state_array, state_within,
)


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


_NODE_DTYPES = {
    "feature": np.int64, "threshold": np.float64, "left": np.int64, "right": np.int64,
    "value": np.float64,
}


def _pack_trees(trees: list[_FlatTree]) -> dict:
    """Trees end to end, one record per node field, plus ``offsets``: tree
    i holds nodes ``offsets[i]`` to ``offsets[i + 1]``, and its child
    indices count from its own root."""
    packed = {"offsets": array_record(np.cumsum([0] + [len(t.feature) for t in trees]))}
    for name in _NODE_DTYPES:
        packed[name] = array_record(np.concatenate([getattr(t, name) for t in trees]))
    return packed


def _load_trees(d: dict, n_trees: int, n_features: int) -> list[_FlatTree]:
    """The ``n_trees`` trees ``_pack_trees`` saved in ``d``.  The offsets
    must rise from 0 to the node count, a node or more per tree; split
    features must be below ``n_features``, and every child must come after
    its parent within its own tree, so ``apply`` terminates."""
    arrays = {"feature": state_array(d, "feature", (None,), dtype=np.int64)}
    n_nodes = len(arrays["feature"])
    for name, dtype in list(_NODE_DTYPES.items())[1:]:
        arrays[name] = state_array(d, name, (n_nodes,), dtype=dtype)
    offsets = state_array(d, "offsets", (n_trees + 1,), dtype=np.int64)
    if offsets[0] != 0 or offsets[-1] != n_nodes or (np.diff(offsets) < 1).any():
        raise ArtifactError(
            f"tree offsets must rise from 0 to the {n_nodes} nodes, a node or more per tree"
        )
    feature = arrays["feature"]
    if n_nodes == 0 or feature.min() < -1 or feature.max() >= n_features:
        raise ArtifactError(f"tree is empty or splits outside the {n_features} features")
    sizes = np.diff(offsets)
    split = np.nonzero(feature >= 0)[0]
    owner = np.repeat(np.arange(len(sizes)), sizes)[split]
    local, size = split - offsets[owner], sizes[owner]
    for child in (arrays["left"][split], arrays["right"][split]):
        if (child <= local).any() or (child >= size).any():
            raise ArtifactError("tree child index does not follow its parent")
    trees = []
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        tree = _FlatTree()
        for name, arr in arrays.items():
            setattr(tree, name, arr[lo:hi])
        trees.append(tree)
    return trees


def _check_max_features(value) -> int | str | None:
    if value is None or value == "sqrt":
        return value
    if isinstance(value, str):
        raise ModelError(f"max_features must be None, 'sqrt' or an integer >= 1, got {value!r}")
    return check_int("max_features", value, 1)


def rank_columns(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one coding of ``X`` a tree fit builds: ``ranks``, each cell's
    index among its column's distinct values, laid out as ``X.T``;
    ``values``, every column's distinct values in rising order, column
    after column; and ``offsets``, where each column's values start
    (``d + 1`` entries).  -0.0 and 0.0 share one rank, as the float sort
    ties them.  The ranks are ``uint16`` where every column fits, which
    numpy's stable argsort sorts by radix."""
    coded = [np.unique(column, return_inverse=True) for column in X.T]
    wide = any(len(distinct) > 1 << 16 for distinct, _ in coded)
    ranks = np.empty(X.shape[::-1], dtype=np.intp if wide else np.uint16)
    for j, (_, rank) in enumerate(coded):
        ranks[j] = rank
    offsets = np.cumsum([0] + [len(distinct) for distinct, _ in coded])
    values = np.concatenate([np.empty(0)] + [distinct for distinct, _ in coded])  # d may be 0
    return ranks, values, offsets


# Sorted-list cells scanned per block of candidate features, so the
# block's temporaries stay small and cached.
_BLOCK_CELLS = 1 << 15


def _sse(nl, nr, sl, sl2, total, total2):
    """Summed squared error of the two sides of each candidate split, from
    the left side's weight, sum and sum of squares and the node's."""
    return (sl2 - sl * sl / nl) + ((total2 - sl2) - (total - sl) ** 2 / nr)


def _midpoint(lo: float, hi: float) -> float:
    """The threshold between adjacent values ``lo < hi``: their midpoint,
    or ``lo`` where the midpoint rounds up to ``hi``."""
    thr = lo + (hi - lo) / 2.0
    return float(lo if thr >= hi else thr)


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
        sse = _sse(nl, nr, sl, sl2, total, total2)
        i = int(np.argmin(sse))
        if sse[i] < best_sse:
            best_sse = sse[i]
            best = (int(feats[f[i]]), _midpoint(vals[f[i], pos[i]], vals[f[i], pos[i] + 1]))
    return best


class RunSums:
    """A fit's coded columns and their runs of equal values, for trees
    whose weights count rows and whose targets are the 0/1 ``labels``
    (DT, and RF's bootstrap trees).

    Runs are numbered column after column, so a run's number is its rank
    (``rank_columns``) plus the count of earlier columns' values:
    ``codes[j, i]`` is twice the number of row ``i``'s run in column
    ``j``, plus the row's label.  One ``np.bincount`` of a tree's weights
    over the codes gives, for every run of every column, the weight of
    its rows of each label.  These sums are exact integers, so any order
    of addition gives the floats the sorted scan forms."""

    def __init__(self, X: np.ndarray, labels: np.ndarray) -> None:
        self.ranks, self.run_value, offsets = rank_columns(X)
        self.codes = 2 * (self.ranks + offsets[:-1, None]) + labels
        self.run_column = np.repeat(np.arange(X.shape[1]), np.diff(offsets))

    def root_split(self, cand, weights, wt, wt2) -> tuple[int, float] | None:
        """``_lowest_sse_split`` over the root's rows, those of positive
        ``weights``; ``wt`` is ``weights`` times the labels, so it equals
        ``wt2``."""
        codes = self.codes if len(cand) == len(self.codes) else self.codes[cand]
        by_label = np.bincount(codes.ravel(), np.tile(weights, len(codes)), 2 * len(self.run_value))
        ones = by_label[1::2]  # each run's sum of wt, and so of wt2
        present = np.flatnonzero(by_label[::2] + ones)  # the runs holding rows, in cand's columns
        column = self.run_column[present]
        cut = np.flatnonzero(column[1:] == column[:-1])  # a split after present run cut[i]
        if cut.size == 0:
            return None
        # cand's columns follow one another and each sums to the node's
        # totals, so a run's sums within its column are the running sums
        # less the totals once per earlier candidate column.
        rank = np.zeros(len(self.codes), dtype=np.intp)
        rank[cand] = np.arange(len(cand))
        earlier = rank[column[cut]]
        total_w, total = weights.sum(), wt.sum()
        nl = np.cumsum(by_label[::2][present] + ones[present])[cut] - earlier * total_w
        sl = np.cumsum(ones[present])[cut] - earlier * total
        i = cut[np.argmin(_sse(nl, total_w - nl, sl, sl, total, total))]
        return int(column[i]), _midpoint(self.run_value[present[i]], self.run_value[present[i + 1]])


class PrefixScan:
    """A fit's coded columns, for trees of unit weights on every row, float
    targets and every column a candidate (GBT), with the part of the root
    scan that does not depend on the targets: ``order``, each column's
    rows sorted stably by ``ranks`` (the float sort's order, since -0.0
    and 0.0 share a rank), and where each sorted column's value changes,
    the counts on both sides and the threshold there.  A tree's root then
    adds only its targets' prefix sums along the sorted rows, so float
    targets give the sorted scan's bits."""

    def __init__(self, X: np.ndarray) -> None:
        n = X.shape[0]
        self.ranks, values, offsets = rank_columns(X)
        self.order = np.argsort(self.ranks, axis=1, kind="stable")
        ranked = np.take_along_axis(self.ranks, self.order, axis=1)
        f, pos = np.divmod(np.flatnonzero(ranked[:, 1:] != ranked[:, :-1]), n - 1)
        self.feature = f
        self.at = f * n + pos  # flat positions in the sorted columns
        self.last = f * n + n - 1
        run = offsets[f] + ranked[f, pos]  # the value each change leaves
        self.lo, self.hi = values[run], values[run + 1]
        self.nl = (pos + 1).astype(np.float64)
        self.nr = n - self.nl

    def _prefix_sums(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``v``'s prefix sums along each sorted column, where its value
        changes and over the whole column."""
        sums = v[self.order]
        np.cumsum(sums, axis=1, out=sums)
        flat = sums.ravel()
        return flat[self.at], flat[self.last]

    def root_split(self, cand, weights, wt, wt2) -> tuple[int, float] | None:
        """``_lowest_sse_split`` over every row and column."""
        if self.feature.size == 0:
            return None
        sl, total = self._prefix_sums(wt)
        sl2, total2 = self._prefix_sums(wt2)
        i = int(np.argmin(_sse(self.nl, self.nr, sl, sl2, total, total2)))
        return int(self.feature[i]), _midpoint(self.lo[i], self.hi[i])


def build_tree(
    X: np.ndarray,
    targets: np.ndarray,
    presorted: RunSums | PrefixScan,
    weights: np.ndarray,
    rng: np.random.Generator | None,
    max_depth: int | None,
    min_samples_split: int,
    max_features: int | str | None,
) -> _FlatTree:
    """Grow a regression tree on real targets (labels or residuals).

    ``presorted`` is ``X`` coded once per fit (``rank_columns``) and
    shared by every tree grown on ``X``; its ``root_split`` finds the
    root's split, so it must suit the weights and targets (``RunSums`` for
    0/1 targets, ``PrefixScan`` for unit weights).  Row ``i`` counts
    ``weights[i]`` times (a bootstrap multiplicity); rows of weight 0 are
    left out, and ``min_samples_split`` compares with the weight sum.

    A node holds its rows in ascending order.  One below the root that
    goes on to split sorts them stably by ``presorted.ranks`` per
    candidate column, so ties stay in row order.  With unit weights the
    prefix sums therefore run in the order a stable argsort of the node's
    rows gives, and with 0/1 targets every sum is an exact integer, so a
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

    wt = weights * targets
    wt2 = wt * targets
    tree = _FlatTree()
    stack = [(tree.new_node(), np.flatnonzero(weights > 0), 0)]
    while stack:
        nid, idx, depth = stack.pop()
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
        if depth == 0:
            best = presorted.root_split(cand, weights, wt, wt2)
        else:
            ranks = presorted.ranks
            if n_cand is None:
                lists = idx[np.argsort(ranks[:, idx], axis=1, kind="stable")]
            else:
                # only the candidates' rows are filled, and only they are read
                lists = np.empty((d, idx.size), dtype=np.intp)
                lists[cand] = idx[np.argsort(ranks[cand[:, None], idx], axis=1, kind="stable")]
            best = _lowest_sse_split(X, cand, lists, weights, wt, wt2)
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
        self.max_depth = check_int("max_depth", max_depth, 0, allow_none=True)
        self.min_samples_split = check_int("min_samples_split", min_samples_split, 1)
        self.tree_: _FlatTree | None = None

    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self.tree_ = build_tree(
            X, y.astype(np.float64), RunSums(X, y), np.ones(len(X)), None,
            self.max_depth, self.min_samples_split, None,
        )

    def _score(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.predict(X)

    def state_to_dict(self) -> dict:
        return {"trees": _pack_trees([self.tree_])}

    def state_from_dict(self, state: dict) -> None:
        state_within(state["trees"], "value", (None,), 0.0, high=1.0)  # the leaves' scores
        (self.tree_,) = _load_trees(state["trees"], 1, self.n_features_)


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
        runs = RunSums(X, y)
        n = len(X)
        self.trees_ = []
        for _ in range(self.n_trees):
            if self.bootstrap:
                weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
            else:
                weights = np.ones(n)
            self.trees_.append(
                build_tree(
                    X, targets, runs, weights, rng,
                    self.max_depth, self.min_samples_split, self.max_features,
                )
            )

    def _score(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            votes += tree.predict(X) >= 0.5
        return votes / self.n_trees

    def state_to_dict(self) -> dict:
        return {"trees": _pack_trees(self.trees_)}

    def state_from_dict(self, state: dict) -> None:
        self.trees_ = _load_trees(state["trees"], self.n_trees, self.n_features_)


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
        scan = PrefixScan(X)
        ones = np.ones(len(X))
        self.trees_ = []
        for _ in range(self.n_trees):
            p = sigmoid(raw)
            residual = y - p
            tree = build_tree(
                X, residual, scan, ones, None, self.max_depth, self.min_samples_split, None
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
        return {"f0": array_record(np.float64(self.f0_)), "trees": _pack_trees(self.trees_)}

    def state_from_dict(self, state: dict) -> None:
        self.f0_ = float(state_array(state, "f0", ()))
        self.trees_ = _load_trees(state["trees"], self.n_trees, self.n_features_)
