"""Slow reference implementations kept as test oracles.

``build_tree`` and ``_best_split`` are the CART splitter that
``urlsleuth.models.trees`` used before it sorted each column once per
fit: every node runs a stable argsort of every candidate column on its
own rows, and a random forest grows each tree on the bootstrap copy
``X[rows]``.  ``dt_state``, ``rf_state`` and ``gbt_state`` drive it the
way the three tree families did, and return each family's state with
every tree as a dict of node lists (``tree_lists``), so a test can
compare the saved trees of both implementations byte for byte.

``average_ranks`` is the tie-averaging rank loop that
``urlsleuth.evaluation._average_ranks`` ran before it took the ranks
from ``np.unique``.

``DictGramModel`` is the character n-gram model as
``urlsleuth.charlm.CharGramModel`` kept it before its counts became
sorted arrays: a context -> symbol -> count map filled by a loop over
every character, and a probability, log-likelihood and score worked out
one character at a time.  ``from_model`` reads a fitted model's arrays
into it, ``to_arrays`` writes its map in the array form.

``mutual_information`` is the dict loop that scored one column of
``urlsleuth.pipeline.fit_selector`` before it scored all of them with one
``np.bincount``.

``masked_sigmoid`` is ``urlsleuth.models.base.sigmoid`` as it was before it
took one ``np.exp(-|z|)`` and one ``np.where``: it split ``z`` by sign
with a mask, worked out each side on its gathered values and scattered
them back.
"""

from __future__ import annotations

import math

import numpy as np

from urlsleuth.charlm import _ID, BEGIN, END, UNK, VOCAB_SIZE, CharGramModel
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


def tree_lists(tree: _FlatTree) -> dict:
    """The node fields of ``tree`` as lists, in the order a tree is saved."""
    names = ("feature", "threshold", "left", "right", "value")
    return {name: getattr(tree, name).tolist() for name in names}


def dt_state(X, y, max_depth=None, min_samples_split=2) -> dict:
    """The state of a ``DecisionTreeCART`` fit."""
    tree = build_tree(X, y.astype(np.float64), None, max_depth, min_samples_split, None)
    return {"tree": tree_lists(tree)}


def rf_state(
    X, y, n_trees=50, max_depth=None, min_samples_split=2, bootstrap=True,
    max_features=None, seed=0,
) -> dict:
    """The state of a ``RandomForest`` fit: each tree grown on ``X[rows]``."""
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
    return {"trees": [tree_lists(t) for t in trees]}


def gbt_state(X, y, n_trees=30, learning_rate=0.3, max_depth=3, min_samples_split=2) -> dict:
    """The state of a ``GradientBoostedTrees`` fit."""
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
    return {"f0": f0, "trees": [tree_lists(t) for t in trees]}


_PREDICTABLE = frozenset(_ID) - {BEGIN}
_CHARS = sorted(_ID, key=_ID.__getitem__)  # by table id


def _norm_char(ch: str) -> str:
    return ch if "\x20" <= ch <= "\x7e" else UNK


def _padded(url: str, order: int) -> str:
    return BEGIN * (order - 1) + "".join(_norm_char(ch) for ch in url) + END


class DictGramModel:
    """Add-k character n-gram model over a context -> symbol -> count map."""

    def __init__(self, order: int, k: float, counts: dict[str, dict[str, int]]):
        self.order, self.k, self.counts = order, k, counts
        self.totals = {ctx: sum(bucket.values()) for ctx, bucket in counts.items()}

    @classmethod
    def fit(cls, urls, order: int = 3, k: float = 1.0) -> "DictGramModel":
        """Count every n-gram of the padded URLs, one character at a time."""
        counts: dict[str, dict[str, int]] = {}
        n = order - 1
        for url in urls:
            text = _padded(url, order)
            for i in range(n, len(text)):
                bucket = counts.setdefault(text[i - n : i], {})
                bucket[text[i]] = bucket.get(text[i], 0) + 1
        return cls(order, k, counts)

    @classmethod
    def from_model(cls, model: CharGramModel) -> "DictGramModel":
        counts: dict[str, dict[str, int]] = {}
        for row, count in zip(model.keys.tolist(), model.counts.tolist()):
            ctx = "".join(_CHARS[i] for i in row[:-1])
            counts.setdefault(ctx, {})[_CHARS[row[-1]]] = count
        return cls(model.order, model.k, counts)

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The map as ``CharGramModel``'s ``keys`` and ``counts``."""
        rows = sorted(
            ([_ID[ch] for ch in ctx + sym], count)
            for ctx, bucket in self.counts.items()
            for sym, count in bucket.items()
        )
        keys = np.array([row for row, _ in rows], np.uint8).reshape(-1, self.order)
        return keys, np.array([count for _, count in rows], np.int64)

    def conditional_prob(self, symbol: str, context: str) -> float:
        """P(symbol | context) with add-k smoothing.

        ``context`` must have exactly ``order - 1`` characters; characters
        outside the inventory are folded to the catch-all symbol on both
        sides.  An unseen context falls back to the uniform
        (0 + k) / (0 + k*V) = 1/V.
        """
        if len(context) != self.order - 1:
            raise ModelError(
                f"context must have {self.order - 1} characters, got {len(context)}"
            )
        sym = symbol if symbol in _PREDICTABLE else _norm_char(symbol)
        if sym not in _PREDICTABLE:
            raise ModelError(f"symbol {symbol!r} cannot be normalized into the inventory")
        ctx = "".join(ch if ch == BEGIN else _norm_char(ch) for ch in context)
        count = self.counts.get(ctx, {}).get(sym, 0)
        total = self.totals.get(ctx, 0)
        return (count + self.k) / (total + self.k * VOCAB_SIZE)

    def sequence_logprob(self, url: str) -> float:
        """Natural-log likelihood of the URL plus its end marker."""
        text = _padded(url, self.order)
        n = self.order - 1
        lp = 0.0
        for i in range(n, len(text)):
            ctx = text[i - n : i]
            count = self.counts.get(ctx, {}).get(text[i], 0)
            total = self.totals.get(ctx, 0)
            lp += math.log((count + self.k) / (total + self.k * VOCAB_SIZE))
        return lp

    def score(self, url: str) -> float:
        """Length-normalized log-likelihood: sequence_logprob / (len(url) + 1)."""
        return self.sequence_logprob(url) / (len(url) + 1)


def mutual_information(bins: np.ndarray, labels: np.ndarray) -> float:
    """I(bin; label) in nats from empirical joint frequencies."""
    n = len(bins)
    joint: dict[tuple[int, int], int] = {}
    for b, y in zip(bins.tolist(), labels.tolist()):
        joint[(b, y)] = joint.get((b, y), 0) + 1
    p_b: dict[int, float] = {}
    p_y: dict[int, float] = {}
    for (b, y), c in joint.items():
        p_b[b] = p_b.get(b, 0.0) + c / n
        p_y[y] = p_y.get(y, 0.0) + c / n
    mi = 0.0
    for (b, y), c in joint.items():
        p_joint = c / n
        mi += p_joint * np.log(p_joint / (p_b[b] * p_y[y]))
    return max(0.0, float(mi))


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function, one gather per sign."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
