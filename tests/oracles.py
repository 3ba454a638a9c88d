"""Slow reference implementations kept as test oracles.

``build_tree`` and ``_best_split`` are the CART splitter that
``urlsleuth.models.trees`` used before it sorted each column once per
fit: every node runs a stable argsort of every candidate column on its
own rows, and a random forest grows each tree on the bootstrap copy
``X[rows]``.  ``dt_state``, ``rf_state`` and ``gbt_state`` drive it the
way the three tree families did, and return the state dict each family
saves, so a test can compare the saved bytes of both implementations.

``average_ranks`` is the tie-averaging rank loop that
``urlsleuth.evaluation._average_ranks`` ran before it took the ranks
from ``np.unique``.
"""

from __future__ import annotations

import math

import numpy as np

from urlsleuth.errors import ModelError
from urlsleuth.models.base import sigmoid
from urlsleuth.models.trees import _FlatTree


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


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks of scores ascending; each run of tied scores in the
    stable sort shares its mean position."""
    n = len(scores)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    ranks = np.empty(n, dtype=np.float64)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and ordered[j + 1] == ordered[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def dt_state(X, y, max_depth=None, min_samples_split=2) -> dict:
    """The state a ``DecisionTreeCART`` fit saved."""
    tree = build_tree(X, y.astype(np.float64), None, max_depth, min_samples_split, None)
    return {"tree": tree.to_dict()}


def rf_state(
    X, y, n_trees=50, max_depth=None, min_samples_split=2, bootstrap=True,
    max_features=None, seed=0,
) -> dict:
    """The state a ``RandomForest`` fit saved: each tree grown on ``X[rows]``."""
    rng = np.random.default_rng(seed)
    targets = y.astype(np.float64)
    trees = []
    for _ in range(n_trees):
        if bootstrap:
            rows = rng.integers(0, len(X), size=len(X))
        else:
            rows = np.arange(len(X))
        trees.append(
            build_tree(X[rows], targets[rows], rng, max_depth, min_samples_split, max_features)
        )
    return {"trees": [t.to_dict() for t in trees]}


def gbt_state(X, y, n_trees=30, learning_rate=0.3, max_depth=3, min_samples_split=2) -> dict:
    """The state a ``GradientBoostedTrees`` fit saved."""
    p0 = float(y.mean())
    f0 = math.log(p0 / (1.0 - p0))
    raw = np.full(len(X), f0, dtype=np.float64)
    trees = []
    for _ in range(n_trees):
        p = sigmoid(raw)
        residual = y - p
        tree = build_tree(X, residual, None, max_depth, min_samples_split, None)
        leaf_ids = tree.apply(X)
        hess = p * (1.0 - p)
        num = np.bincount(leaf_ids, weights=residual, minlength=len(tree.value))
        den = np.bincount(leaf_ids, weights=hess, minlength=len(tree.value))
        newton = num / (den + 1e-12)
        leaves = tree.feature < 0
        tree.value[leaves] = newton[leaves]
        raw += learning_rate * tree.predict(X)
        trees.append(tree)
    return {"f0": f0, "trees": [t.to_dict() for t in trees]}
