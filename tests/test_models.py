"""Tests for the eleven detector families and their shared contract."""

from __future__ import annotations

import hashlib
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from urlsleuth import cli
from urlsleuth.config import load_run_config
from urlsleuth.errors import ArtifactError, ModelError
from urlsleuth.models import (
    FAMILIES,
    HYPERPARAMETER_SCHEMA,
    STOCHASTIC_FAMILIES,
    ModelSpec,
    TrainedModel,
    fit_model,
    make_classifier,
)
from urlsleuth.models import neighbors, trees
from urlsleuth.models.base import array_record, columns_record, sigmoid
from urlsleuth.models.bayes import GaussianNaiveBayes
from urlsleuth.models.clustering import GaussianMixtureDetector, KMeansDetector
from urlsleuth.models.linear import LinearSvmSubgradient, LogisticRegressionGD
from urlsleuth.models.neighbors import KNearestNeighbors
from urlsleuth.models.neural import MlpClassifier
from urlsleuth.models.trees import DecisionTreeCART, RandomForest
from urlsleuth.pipeline import fit_chain
from urlsleuth.synth import materialize_run

import oracles
from conftest import columns_matrix, edit_arrays, records_to_lists

SUPERVISED_FAMILIES = ("LR", "LINEAR_SVM", "DT", "RF", "GBT", "KNN", "GNB", "MLP")
UNSUPERVISED_FAMILIES = ("KMEANS", "GMM")

# Each family's hyperparameters: its constructor's keyword arguments but ``seed``.
EXPECTED_SCHEMA = {
    "BASELINE": frozenset(),
    "LR": frozenset({"learning_rate", "n_iters", "l2"}),
    "LINEAR_SVM": frozenset({"learning_rate", "n_iters", "l2"}),
    "DT": frozenset({"max_depth", "min_samples_split"}),
    "RF": frozenset({"n_trees", "max_depth", "min_samples_split", "bootstrap", "max_features"}),
    "GBT": frozenset({"n_trees", "learning_rate", "max_depth", "min_samples_split"}),
    "KNN": frozenset({"k"}),
    "GNB": frozenset(),
    "MLP": frozenset({"hidden_units", "learning_rate", "n_iters", "l2"}),
    "KMEANS": frozenset({"n_clusters", "max_iter"}),
    "GMM": frozenset({"n_components", "max_iter", "tol"}),
}

# Small hyperparameters so the full cross-family sweeps stay fast.
FAST_PARAMS: dict[str, dict] = {
    "BASELINE": {},
    "LR": {"n_iters": 80},
    "LINEAR_SVM": {"n_iters": 80},
    "DT": {},
    "RF": {"n_trees": 10},
    "GBT": {"n_trees": 10},
    "KNN": {"k": 3},
    "GNB": {},
    "MLP": {"n_iters": 80, "hidden_units": 8},
    "KMEANS": {},
    "GMM": {"max_iter": 30},
}


def spec_for(family: str, seed: int = 0) -> ModelSpec:
    return ModelSpec(family=family, hyperparameters=FAST_PARAMS[family], seed=seed)


def knn_oracle(x: np.ndarray, y: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Brute-force KNN scores: every distance, first k of a stable sort."""
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        d2 = ((q - x) ** 2).sum(axis=1)
        out[i] = y[np.argsort(d2, kind="stable")[:k]].mean()
    return out


class TestModelSpec:
    def test_unknown_family_rejected(self):
        with pytest.raises(ModelError, match="family"):
            ModelSpec(family="XGBOOST", hyperparameters={}, seed=0)

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(ModelError, match="n_leaves"):
            ModelSpec(family="DT", hyperparameters={"n_leaves": 4}, seed=0)

    def test_family_partition(self):
        assert set(SUPERVISED_FAMILIES) | set(UNSUPERVISED_FAMILIES) | {"BASELINE"} == set(
            FAMILIES
        )
        assert FAMILIES == (
            "BASELINE", "LR", "LINEAR_SVM", "DT", "RF", "GBT", "KNN", "GNB", "MLP", "KMEANS",
            "GMM",
        )
        assert STOCHASTIC_FAMILIES == {"RF", "MLP", "KMEANS", "GMM"}

    def test_schema_is_the_constructor_arguments(self):
        assert HYPERPARAMETER_SCHEMA == EXPECTED_SCHEMA


class TestSharedContract:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_scores_labels_and_threshold(self, family, blob_data):
        x, y = blob_data
        clf = make_classifier(spec_for(family)).fit(x, y)
        scores = clf.score_batch(x)
        labels = clf.predict_batch(x)
        assert scores.shape == (len(x),)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert np.array_equal(labels, (scores >= 0.5).astype(np.int64))

    @pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"BASELINE"}))
    def test_separable_problem_learned(self, family, blob_data):
        x, y = blob_data
        clf = make_classifier(spec_for(family)).fit(x, y)
        acc = float(np.mean(clf.predict_batch(x) == y))
        assert acc >= 0.95, f"{family} train accuracy {acc}"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_refit_same_seed_is_deterministic(self, family, blob_data):
        x, y = blob_data
        a = make_classifier(spec_for(family, seed=3)).fit(x, y).score_batch(x)
        b = make_classifier(spec_for(family, seed=3)).fit(x, y).score_batch(x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", sorted(SUPERVISED_FAMILIES))
    def test_single_class_rejected(self, family):
        x = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(ModelError, match="class"):
            make_classifier(spec_for(family)).fit(x, np.ones(10, dtype=np.int64))

    @pytest.mark.parametrize("family", ("BASELINE",) + tuple(sorted(UNSUPERVISED_FAMILIES)))
    def test_single_class_accepted_where_labels_are_advisory(self, family):
        x = np.random.default_rng(0).normal(size=(12, 3))
        clf = make_classifier(spec_for(family)).fit(x, np.ones(12, dtype=np.int64))
        assert clf.score_batch(x).shape == (12,)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nonfinite_features_rejected(self, family):
        x = np.ones((6, 2))
        x[3, 1] = np.nan
        y = np.array([0, 1, 0, 1, 0, 1])
        with pytest.raises(ModelError, match="finite"):
            make_classifier(spec_for(family)).fit(x, y)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_feature_width_checked_at_scoring(self, family, blob_data):
        x, y = blob_data
        clf = make_classifier(spec_for(family)).fit(x, y)
        with pytest.raises(ModelError, match="features"):
            clf.score_batch(x[:, :2])

    def test_unfitted_scoring_rejected(self):
        with pytest.raises(ModelError, match="fit"):
            make_classifier(spec_for("LR")).score_batch(np.ones((2, 3)))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ModelError):
            make_classifier(spec_for("LR")).fit(np.ones((1, 2)), np.array([1]))

    def test_bad_labels_rejected(self):
        x = np.ones((4, 2))
        with pytest.raises(ModelError):
            make_classifier(spec_for("LR")).fit(x, np.array([0, 1, 2, 1]))

    @pytest.mark.parametrize("family", sorted(set(FAMILIES) - {"BASELINE", "KNN", "RF"}))
    def test_feature_permutation_invariance(self, family):
        # Continuous random data: no exact split-gain ties on large nodes,
        # so column order must not matter. KNN is trivially invariant
        # (distances are sums) and is covered by its own exactness tests.
        rng = np.random.default_rng(21)
        x = rng.normal(size=(80, 7))
        y = (x[:, 0] + 0.6 * x[:, 3] > 0).astype(np.int64)
        perm = rng.permutation(7)
        a = make_classifier(spec_for(family, seed=5)).fit(x, y).score_batch(x)
        b = make_classifier(spec_for(family, seed=5)).fit(x[:, perm], y).score_batch(x[:, perm])
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_rf_permutation_invariance_without_bagging(self):
        # Bagging shrinks nodes until exact zero-gain ties are guaranteed
        # (any feature separating a 2-sample node is a perfect split), and
        # the lowest-index tie-break then depends on column order for
        # out-of-bag points. Without bootstrap the trees score training
        # rows identically under any permutation.
        rng = np.random.default_rng(22)
        x = rng.normal(size=(80, 7))
        y = (x[:, 1] - 0.5 * x[:, 4] > 0).astype(np.int64)
        perm = rng.permutation(7)
        spec = {"n_trees": 5, "bootstrap": False}
        a = make_classifier(ModelSpec("RF", spec, seed=5)).fit(x, y).score_batch(x)
        b = make_classifier(ModelSpec("RF", spec, seed=5)).fit(x[:, perm], y).score_batch(x[:, perm])
        np.testing.assert_allclose(a, b, atol=1e-9)


class TestSigmoid:
    """``sigmoid`` is bit-identical to the masked oracle it replaced."""

    EDGES = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0, 1e-300, -1e-300,
             5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, np.finfo(np.float64).max,
             -np.finfo(np.float64).max]

    def test_edges_bit_identical(self):
        z = np.array(self.EDGES)
        got = sigmoid(z)
        assert np.array_equal(got.view(np.uint64), oracles.masked_sigmoid(z).view(np.uint64))
        assert got[2] == 1.0 and got[3] == 0.0 and got[0] == 0.5

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, max_side=6),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @settings(max_examples=300, deadline=None)
    def test_finite_floats_bit_identical(self, z):
        got = sigmoid(z)
        want = oracles.masked_sigmoid(z)
        assert got.shape == z.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBaseline:
    def test_always_predicts_malicious(self, blob_data):
        x, y = blob_data
        clf = make_classifier(spec_for("BASELINE")).fit(x, y)
        assert np.all(clf.score_batch(x) == 1.0)
        assert np.all(clf.predict_batch(x) == 1)


class TestKnn:
    def test_k1_memorizes_training_points(self):
        x = np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0]])
        y = np.array([0, 1, 0])
        clf = KNearestNeighbors(k=1).fit(x, y)
        assert np.array_equal(clf.predict_batch(x), y)

    def test_hand_distances_k3(self):
        x = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = np.array([1, 1, 0, 0, 0])
        clf = KNearestNeighbors(k=3).fit(x, y)
        # Query 0.5: neighbors at 0, 1, 2 with labels 1, 1, 0 -> score 2/3.
        assert clf.score_batch(np.array([[0.5]]))[0] == pytest.approx(2 / 3)
        # Query 10.5: neighbors at 10, 11, 2 -> all label 0.
        assert clf.score_batch(np.array([[10.5]]))[0] == pytest.approx(0.0)

    def test_k5_vote_fraction(self):
        x = np.array([[0.0], [0.1], [0.2], [0.3], [0.4], [50.0]])
        y = np.array([1, 1, 1, 0, 0, 0])
        clf = KNearestNeighbors(k=5).fit(x, y)
        assert clf.score_batch(np.array([[0.2]]))[0] == pytest.approx(3 / 5)

    def test_equidistant_tie_prefers_lower_index(self):
        x = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        clf = KNearestNeighbors(k=1).fit(x, y)
        # Query at 1.0 is equidistant; the earlier training row wins.
        assert clf.predict_batch(np.array([[1.0]]))[0] == 1

    def test_k_must_fit_training_set(self):
        with pytest.raises(ModelError):
            KNearestNeighbors(k=5).fit(np.ones((3, 1)), np.array([0, 1, 0]))

    def test_chunking_matches_unchunked(self):
        rng = np.random.default_rng(9)
        n, d, k = 100, 40, 5
        x = rng.normal(size=(n, d))
        y = (rng.random(n) > 0.5).astype(np.int64)
        block = neighbors._BLOCK_ELEMENTS // max(n, neighbors.candidate_count(k, n) * d)
        q = rng.normal(size=(2 * block + 7, d))  # crosses two query-block boundaries
        q[::50] = x[: len(q[::50])]  # queries equal to training rows
        clf = KNearestNeighbors(k=k).fit(x, y)
        assert np.array_equal(clf.score_batch(q), knn_oracle(x, y, q, k))
        # the brute-force scan crosses its 32-row chunk boundary
        assert np.array_equal(clf._brute_force(q[:70]), knn_oracle(x, y, q[:70], k))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_on_tie_heavy_data(self, data):
        # n on both sides of candidate_count (>= 32); duplicate rows and
        # small integers make exact distance ties; large offsets make the
        # matrix-product estimate cancel badly.
        n = data.draw(st.integers(2, 90), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        ints = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
        distinct = data.draw(st.lists(ints, min_size=1, max_size=n), label="distinct rows")
        pick = data.draw(st.lists(st.integers(0, len(distinct) - 1), min_size=n, max_size=n))
        scale = data.draw(st.sampled_from([1.0, 0.5, 1e-3]), label="scale")
        offset = data.draw(st.sampled_from([0.0, 1e6, -1e6, 1e8]), label="offset")
        x = np.array(distinct, dtype=np.float64)[pick] * scale + offset
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = (0, 1)
        k = data.draw(st.one_of(st.integers(1, min(3, n)), st.integers(1, n)), label="k")
        rows = data.draw(st.lists(st.integers(0, n - 1), max_size=10), label="query rows")
        fresh = data.draw(st.lists(ints, max_size=10), label="fresh queries")
        q = np.vstack([x[rows], np.array(fresh, dtype=np.float64).reshape(-1, d) * scale + offset])
        clf = KNearestNeighbors(k=k).fit(x, y)
        assert np.array_equal(clf.score_batch(q), knn_oracle(x, y, q, k))

    def test_separated_rows_skip_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(300, 6))
        y = (rng.random(300) > 0.5).astype(np.int64)
        q = rng.normal(size=(50, 6))
        clf = KNearestNeighbors(k=3).fit(x, y)

        def no_fallback(self, X):
            raise AssertionError(f"{len(X)} queries fell back")

        monkeypatch.setattr(KNearestNeighbors, "_brute_force", no_fallback)
        assert np.array_equal(clf.score_batch(q), knn_oracle(x, y, q, 3))

    def test_cancelling_estimates_fall_back(self):
        # At a 1e8 offset the products in ||t||^2 - 2 q.t round by units,
        # far more than the distances between rows: only the round-off
        # allowance keeps the misordered candidates from being trusted.
        rng = np.random.default_rng(1)
        x = 1e8 + rng.normal(size=(200, 3))
        y = (rng.random(200) > 0.5).astype(np.int64)
        q = 1e8 + rng.normal(size=(100, 3))
        clf = KNearestNeighbors(k=1).fit(x, y)
        assert np.array_equal(clf.score_batch(q), knn_oracle(x, y, q, 1))

    def test_ties_across_the_candidate_boundary_fall_back(self, monkeypatch):
        # 100 rows at distance exactly 1 from every query, far more than the
        # candidates kept; only the first three are labeled 1, so a score of
        # 1 needs the lowest-index tie-break over all of them.
        k = 3
        x = np.vstack([np.tile([[1.0, 0.0]], (100, 1)), np.full((20, 2), 5.0)])
        y = np.zeros(120, dtype=np.int64)
        y[:3] = 1
        q = np.zeros((40, 2))  # more than one 32-row brute-force chunk
        assert neighbors.candidate_count(k, len(x)) < 100
        clf = KNearestNeighbors(k=k).fit(x, y)
        fell_back = []
        brute_force = KNearestNeighbors._brute_force

        def counted(self, X):
            fell_back.append(len(X))
            return brute_force(self, X)

        monkeypatch.setattr(KNearestNeighbors, "_brute_force", counted)
        got = clf.score_batch(q)
        assert fell_back == [len(q)]
        assert np.array_equal(got, knn_oracle(x, y, q, k))
        assert np.all(got == 1.0)

    def test_one_row_and_multi_block_queries_equal_brute_force(self, monkeypatch):
        # A zero query has one row at distance 0, then 100 tied at 0.25,
        # more than the candidates kept, so its 5th neighbor ties and it
        # takes the fallback.  Only the first 4 tied rows are labeled 1.
        rng = np.random.default_rng(12)
        n, d, k = 301, 8, 5
        tied = np.tile(np.eye(d)[:1] * 0.5, (100, 1))
        x = np.vstack([rng.normal(size=(200, d)) + 3.0, np.zeros((1, d)), tied])
        y = (rng.random(n) > 0.5).astype(np.int64)
        y[200:] = 0
        y[201:205] = 1
        block = neighbors._BLOCK_ELEMENTS // max(n, neighbors.candidate_count(k, n) * d)
        q = rng.normal(size=(2 * block + 3, d)) + 3.0  # crosses two query-block boundaries
        q[::400] = 0.0
        clf = KNearestNeighbors(k=k).fit(x, y)
        fell_back = []
        brute_force = KNearestNeighbors._brute_force

        def counted(self, X):
            fell_back.append(len(X))
            return brute_force(self, X)

        monkeypatch.setattr(KNearestNeighbors, "_brute_force", counted)
        assert clf._score(q).tobytes() == brute_force(clf, q).tobytes()
        assert fell_back == [len(q[::400])]
        for row in [0, 1, 2, 400, block, block + 1, len(q) - 1]:
            fell_back.clear()
            one = q[row : row + 1]
            assert clf._score(one).tobytes() == brute_force(clf, one).tobytes(), row
            assert fell_back == ([1] if row % 400 == 0 else []), row


class TestGaussianNaiveBayes:
    def test_symmetric_point_scores_half(self):
        x = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        clf = GaussianNaiveBayes().fit(x, y)
        assert clf.score_batch(np.array([[0.0]]))[0] == pytest.approx(0.5)

    def test_constant_feature_handled_by_variance_floor(self):
        x = np.array([[1.0, -1.0], [1.0, -2.0], [1.0, 1.0], [1.0, 2.0]])
        y = np.array([0, 0, 1, 1])
        clf = GaussianNaiveBayes().fit(x, y)
        scores = clf.score_batch(x)
        assert np.all(np.isfinite(scores))
        assert np.array_equal(clf.predict_batch(x), y)


class TestTrees:
    def test_perfect_fit_on_consistent_data(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 5))
        y = (rng.random(60) > 0.5).astype(np.int64)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        clf = DecisionTreeCART().fit(x, y)
        assert np.array_equal(clf.predict_batch(x), y)

    def test_xor_needs_zero_gain_splits(self):
        x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 5)
        y = np.array([0, 1, 1, 0] * 5)
        clf = DecisionTreeCART().fit(x, y)
        assert np.array_equal(clf.predict_batch(x), y)

    def test_contradictory_duplicates_take_majority(self):
        x = np.array([[1.0], [1.0], [1.0], [2.0]])
        y = np.array([1, 1, 0, 0])
        clf = DecisionTreeCART().fit(x, y)
        assert clf.predict_batch(np.array([[1.0]]))[0] == 1

    def test_max_depth_zero_is_a_stump_root(self):
        x = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        clf = DecisionTreeCART(max_depth=0).fit(x, y)
        assert len(np.unique(clf.score_batch(x))) == 1

    def test_min_samples_split_limits_growth(self):
        x = np.arange(8, dtype=np.float64).reshape(-1, 1)
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        free = DecisionTreeCART().fit(x, y)
        capped = DecisionTreeCART(min_samples_split=20).fit(x, y)
        assert np.array_equal(free.predict_batch(x), y)
        assert len(np.unique(capped.score_batch(x))) == 1

    def test_single_tree_forest_without_bagging_matches_tree(self, blob_data):
        x, y = blob_data
        tree = DecisionTreeCART().fit(x, y)
        forest = RandomForest(n_trees=1, bootstrap=False, max_features=None).fit(x, y)
        assert np.array_equal(forest.predict_batch(x), tree.predict_batch(x))

    def test_forest_score_is_vote_fraction(self, blob_data):
        x, y = blob_data
        forest = RandomForest(n_trees=10, seed=2).fit(x, y)
        scores = forest.score_batch(x)
        votes = scores * 10
        np.testing.assert_allclose(votes, np.round(votes), atol=1e-9)

    def test_sqrt_feature_subsampling_runs(self, blob_data):
        x, y = blob_data
        forest = RandomForest(n_trees=5, max_features="sqrt", seed=4).fit(x, y)
        assert float(np.mean(forest.predict_batch(x) == y)) >= 0.9

    def test_gbt_scores_strictly_inside_unit_interval(self, blob_data):
        x, y = blob_data
        spec = ModelSpec(family="GBT", hyperparameters={"n_trees": 5}, seed=0)
        scores = make_classifier(spec).fit(x, y).score_batch(x)
        assert np.all((scores > 0.0) & (scores < 1.0))


# Lowest legal value of every integer hyperparameter (and of the seed),
# and of every real one; ``learning_rate`` must lie strictly above 0.
INT_LOW = {
    "n_iters": 1, "hidden_units": 1, "k": 1, "n_clusters": 1, "n_components": 1,
    "max_iter": 1, "n_trees": 1, "min_samples_split": 1, "max_depth": 0, "max_features": 1,
    "seed": 0,
}
REAL_LOW = {"learning_rate": 0.0, "l2": 0.0, "tol": 0.0}
NOT_A_NUMBER = [True, False, "1", "0.1", None, math.nan, math.inf, -math.inf]
SEEDED_CLASSES = (RandomForest, MlpClassifier, KMeansDetector, GaussianMixtureDetector)


def hyperparameter_cases(values_for) -> list:
    """(family, name, value) for every hyperparameter of every family."""
    return [
        (family, name, value)
        for family in FAMILIES
        for name in sorted(EXPECTED_SCHEMA[family])
        for value in values_for(name)
    ]


def rejected_values(name: str) -> list:
    if name == "bootstrap":
        return ["false", "true", 0, 1, None, math.nan, np.bool_(True)]
    if name in INT_LOW:
        nones = {"max_depth", "max_features"}  # None is legal for DT and RF
        below = [INT_LOW[name] - 1, -(2**70)]
        return [v for v in NOT_A_NUMBER if v is not None or name not in nones] + below + [
            2.5, 2.0, np.float64(3.0),
        ]
    below = [0, 0.0, -0.5] if name == "learning_rate" else [-0.5, -5e-324]
    return NOT_A_NUMBER + below + [10**400, np.float64(np.nan)]


def accepted_values(name: str) -> list:
    if name == "bootstrap":
        return [True, False]
    if name in INT_LOW:
        return [INT_LOW[name], np.int64(INT_LOW[name] + 2), np.int32(3)]
    return [1, np.int64(2), 0.25, np.float64(0.5), np.float32(0.75)] + (
        [] if name == "learning_rate" else [0, 0.0]
    )


class TestHyperparameters:
    def test_every_hyperparameter_has_a_checked_kind(self):
        names = set().union(*EXPECTED_SCHEMA.values())
        assert names == set(INT_LOW) - {"seed"} | set(REAL_LOW) | {"bootstrap"}

    @pytest.mark.parametrize("family, name, value", hyperparameter_cases(rejected_values), ids=repr)
    def test_wrong_type_or_out_of_range_rejected(self, family, name, value):
        with pytest.raises(ModelError, match=f"invalid {family} hyperparameters: {name} must be"):
            make_classifier(ModelSpec(family, {name: value}))

    @pytest.mark.parametrize("family, name, value", hyperparameter_cases(accepted_values), ids=repr)
    def test_in_range_value_kept_as_a_python_number(self, family, name, value):
        kept = getattr(make_classifier(ModelSpec(family, {name: value})), name)
        kind = bool if name == "bootstrap" else int if name in INT_LOW else float
        assert type(kept) is kind
        assert kept == value

    @pytest.mark.parametrize("value", rejected_values("seed"), ids=repr)
    def test_bad_seed_rejected(self, value):
        for family in FAMILIES:
            with pytest.raises(ModelError, match="^seed must be"):
                ModelSpec(family, {}, seed=value)
        for cls in SEEDED_CLASSES:
            with pytest.raises(ModelError, match="^seed must be"):
                cls(seed=value)

    def test_seeded_classes_are_the_stochastic_families(self):
        assert {cls.family for cls in SEEDED_CLASSES} == STOCHASTIC_FAMILIES

    @pytest.mark.parametrize(
        "family, hyperparameters",
        [
            ("RF", {"max_features": "log2"}),
            ("RF", {"max_features": "SQRT"}),
            ("RF", {"max_features": None, "max_depth": "None"}),
            ("GBT", {"max_depth": None}),
        ],
        ids=repr,
    )
    def test_out_of_range_rejected(self, family, hyperparameters):
        name = list(hyperparameters)[-1]
        with pytest.raises(ModelError, match=f"invalid {family} hyperparameters: {name} must be"):
            make_classifier(ModelSpec(family, hyperparameters, seed=0))

    @pytest.mark.parametrize(
        "family, hyperparameters",
        [
            ("RF", {"max_features": None}),
            ("RF", {"max_features": "sqrt"}),
            ("RF", {"max_features": 1}),
            ("RF", {"max_features": np.int64(99)}),  # more than the columns: all of them
            ("DT", {"max_depth": 0, "min_samples_split": 1}),
            ("DT", {"max_depth": None}),
            ("RF", {"max_depth": None}),
            ("GBT", {"max_depth": 0, "min_samples_split": 1}),
        ],
        ids=repr,
    )
    def test_in_range_accepted(self, family, hyperparameters, blob_data):
        x, y = blob_data
        spec = ModelSpec(family, {**hyperparameters, **({"n_trees": 2} if family != "DT" else {})})
        assert make_classifier(spec).fit(x, y).score_batch(x).shape == (len(x),)

    @pytest.mark.parametrize(
        "family, hyperparameters",
        [
            ("LR", {"learning_rate": 1, "l2": 0}),
            ("LINEAR_SVM", {"learning_rate": np.float64(0.5), "n_iters": np.int64(20)}),
            ("MLP", {"hidden_units": np.int64(4), "n_iters": 20, "l2": np.float32(0.01)}),
            ("KNN", {"k": np.int64(3)}),
            ("KMEANS", {"n_clusters": np.int64(3), "max_iter": np.int64(5)}),
            ("GMM", {"n_components": 2, "tol": 0, "max_iter": 10}),
            ("RF", {"n_trees": 2, "bootstrap": False}),
            ("GBT", {"n_trees": 2, "learning_rate": 1}),
        ],
        ids=repr,
    )
    def test_accepted_values_fit(self, family, hyperparameters, blob_data):
        x, y = blob_data
        clf = make_classifier(ModelSpec(family, hyperparameters, seed=4))
        assert clf.fit(x, y).score_batch(x).shape == (len(x),)


class TestLinearModels:
    @pytest.mark.parametrize("l2", [0.0, 0.05], ids=["l2-0", "l2-0.05"])
    @pytest.mark.parametrize(
        "make",
        [
            lambda l2: LogisticRegressionGD(learning_rate=0.1, n_iters=120, l2=l2),
            lambda l2: LinearSvmSubgradient(learning_rate=0.1, n_iters=120, l2=l2),
            lambda l2: MlpClassifier(hidden_units=4, n_iters=120, l2=l2, seed=3),
        ],
        ids=["LR", "LINEAR_SVM", "MLP"],
    )
    def test_fit_replays_the_oracle_descent(self, make, l2, noisy_data):
        """The gradient-only fit ends on the oracle loop's parameters bit
        for bit, and the oracle's loss falls over the fit."""
        x, y = noisy_data
        clf = make(l2)
        params, losses = oracles.descent_replay(clf, x, y)
        clf.fit(x, y)
        if isinstance(clf, MlpClassifier):
            fitted = clf.params_
        else:
            fitted = np.append(clf.weights_, clf.bias_)
        assert fitted.tobytes() == params.tobytes()
        assert len(losses) == 120
        assert losses[-1] < losses[0]

    def test_l2_shrinks_weights(self, noisy_data):
        x, y = noisy_data
        loose = LogisticRegressionGD(n_iters=200, l2=0.0).fit(x, y)
        tight = LogisticRegressionGD(n_iters=200, l2=5.0).fit(x, y)
        assert np.linalg.norm(tight.weights_) < np.linalg.norm(loose.weights_)


class TestStochasticSeeding:
    @pytest.mark.parametrize("family", sorted(STOCHASTIC_FAMILIES))
    def test_seed_reaches_the_classifier(self, family, blob_data):
        x, y = blob_data
        base = dict(FAST_PARAMS[family])
        a = make_classifier(ModelSpec(family=family, hyperparameters=base, seed=1)).fit(x, y)
        b = make_classifier(ModelSpec(family=family, hyperparameters=base, seed=1)).fit(x, y)
        assert np.array_equal(a.score_batch(x), b.score_batch(x))


class TestTrainedModelApi:
    def test_fit_model_and_single_prediction(self, blob_data):
        x, y = blob_data
        model = fit_model(spec_for("LR"), x, y)
        assert isinstance(model, TrainedModel)
        score = model.predict_scores(x[:1])[0]
        assert 0.0 <= score <= 1.0
        assert model.classifier.predict_batch(x[:1])[0] == int(score >= 0.5)

    def test_batch_helpers_match_loop(self, blob_data):
        x, y = blob_data
        model = fit_model(spec_for("GNB"), x, y)
        batch = model.predict_scores(x[:5])
        single = [model.predict_scores(x[i:i + 1])[0] for i in range(5)]
        np.testing.assert_allclose(batch, single, atol=1e-12)
        assert np.array_equal(
            model.classifier.predict_batch(x[:5]), (batch >= 0.5).astype(np.int64)
        )


class TestPersistence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_round_trip_exact_scores(self, family, blob_data):
        x, y = blob_data
        model = fit_model(spec_for(family, seed=6), x, y)
        restored = TrainedModel.from_dict(json.loads(json.dumps(model.to_dict())))
        assert restored.spec == model.spec
        assert np.array_equal(restored.predict_scores(x), model.predict_scores(x))

    @pytest.mark.parametrize(
        "family, cut",
        [
            ("KNN", lambda s: s.update(
                train_X=columns_record(columns_matrix(s["train_X"])[:2]),
                train_y=array_record(np.uint8(s["train_y"][:2])),
            )),
            ("DT", lambda s: s["trees"]["left"].__setitem__(0, 0)),
            ("KMEANS", lambda s: s.update(cluster_fractions=s["cluster_fractions"][:1])),
            ("RF", lambda s: s["trees"].update(offsets=s["trees"]["offsets"][:-1])),
            ("RF", lambda s: s["trees"]["offsets"].__setitem__(1, 0)),
            ("RF", lambda s: s["trees"]["offsets"].__setitem__(-1, 10**6)),
            ("RF", lambda s: s["trees"]["left"].__setitem__(0, 0)),
            ("GBT", lambda s: s["trees"]["right"].__setitem__(0, s["trees"]["offsets"][1])),
            # values no fit writes, which would score outside [0, 1] or as NaN, or fail
            ("GMM", lambda s: s["weights"].__setitem__(0, 0.0)),
            ("GMM", lambda s: s["variances"][1].__setitem__(2, -1.0)),
            ("GNB", lambda s: s["variances"][0].__setitem__(0, 0.0)),
            ("DT", lambda s: s["trees"]["value"].__setitem__(-1, 7.0)),
            ("KMEANS", lambda s: s.update(cluster_fractions=[-3.0, 9.0])),
        ],
        ids=["KNN-fewer-rows-than-k", "DT-child-cycle", "KMEANS-cluster_fractions", "RF-n_trees",
             "RF-empty-tree", "RF-offsets-past-nodes", "RF-child-cycle", "GBT-child-past-tree",
             "GMM-weight", "GMM-variance", "GNB-variance", "DT-leaf-value", "KMEANS-fractions"],
    )
    def test_state_that_cannot_score_rejected(self, family, cut, blob_data):
        x, y = blob_data
        payload = fit_model(spec_for(family), x, y).to_dict()
        edit_arrays(payload["state"], cut)
        with pytest.raises(ArtifactError):
            TrainedModel.from_dict(payload)

    @pytest.mark.parametrize("family, key", [("LR", "bias"), ("LINEAR_SVM", "bias"), ("GBT", "f0")])
    @pytest.mark.parametrize(
        "value, reason",
        [
            *[
                (value, "must be an object with keys b64, dtype, shape")
                for value in (float("nan"), float("inf"), -float("inf"), "0.5", True, None, [0.5],
                              10**400)
            ],
            *[
                (array_record(np.float64(value)), "contains NaN or infinite values")
                for value in (np.nan, np.inf, -np.inf)
            ],
            (array_record(np.array([0.5])), r"has shape \[1\], expected \[\]"),
            (array_record(np.int64(1)), r"has dtype '\|u1', expected '<f8'"),
            (array_record(np.int64(10**18)), "has dtype '<u8', expected '<f8'"),
        ],
        ids=["nan", "inf", "-inf", "str", "true", "none", "list", "huge-int", "record-nan",
             "record-inf", "record--inf", "record-1-d", "record-int", "record-huge-int"],
    )
    def test_non_finite_or_non_numeric_scalar_rejected(
        self, family, key, value, reason, blob_data
    ):
        # A scalar is a 0-d "<f8" record; nothing else is read as one.
        x, y = blob_data
        payload = fit_model(spec_for(family), x, y).to_dict()
        assert payload["state"][key]["dtype"] == "<f8" and payload["state"][key]["shape"] == []
        payload["state"][key] = value
        with pytest.raises(ArtifactError, match=f"saved array '{key}' {reason}"):
            TrainedModel.from_dict(json.loads(json.dumps(payload)))

    def test_dict_round_trip(self, blob_data):
        x, y = blob_data
        model = fit_model(spec_for("DT"), x, y)
        payload = model.to_dict()
        assert set(payload) == {"spec", "n_features", "state"}
        restored = TrainedModel.from_dict(payload)
        assert np.array_equal(restored.predict_scores(x), model.predict_scores(x))


GOLDEN_TREES_SHA256 = "712ae62c29b209458fe674119985c11b0d9281ab83dd217585c1216db812292c"


def tie_heavy_data(seed: int, n: int = 160, d: int = 6) -> tuple[np.ndarray, np.ndarray]:
    """Columns rounded to one decimal (many tied values) and noisy labels,
    so trees grow deep and nodes meet equal-SSE candidate splits."""
    rng = np.random.default_rng(seed)
    x = np.round(rng.normal(size=(n, d)), 1)
    y = (x[:, 0] + x[:, 1] * x[:, 2] + rng.normal(scale=0.7, size=n) > 0).astype(np.int64)
    return x, y


@pytest.fixture(scope="module")
def acceptance_matrix(tmp_path_factory) -> np.ndarray:
    """The training matrix ``train`` fits its models on for the acceptance
    corpus (4 x 2000 synthetic URLs at seed 20, 2/1/1 split)."""
    cfg = load_run_config(materialize_run(tmp_path_factory.mktemp("acceptance"), seed=20))
    plan, data = cli._run_data(cfg)
    urls = [url for ds_id in plan.train_ids for url in data[ds_id][0]]
    labels = np.concatenate([data[ds_id][1] for ds_id in plan.train_ids])
    return fit_chain(urls, labels, top_k=cfg.features.selector_top_k)[1]


ORACLE_STATES = {"DT": oracles.dt_state, "RF": oracles.rf_state, "GBT": oracles.gbt_state}

# (family, hyperparameters): depth 0/1/5/unlimited, min_samples_split 7/50,
# bootstrap on and off, max_features "sqrt" and an int.
ORACLE_CASES = [
    ("DT", {}),
    ("DT", {"max_depth": 0}),
    ("DT", {"max_depth": 1}),
    ("DT", {"max_depth": 5}),
    ("DT", {"min_samples_split": 7}),
    ("DT", {"max_depth": 5, "min_samples_split": 50}),
    ("RF", {"n_trees": 4}),
    ("RF", {"n_trees": 4, "bootstrap": False}),
    ("RF", {"n_trees": 4, "max_features": "sqrt"}),
    ("RF", {"n_trees": 4, "max_features": 3, "bootstrap": False}),
    ("RF", {"n_trees": 4, "max_features": 2, "max_depth": 5, "min_samples_split": 7}),
    ("RF", {"n_trees": 3, "max_depth": 0}),
    ("RF", {"n_trees": 3, "max_depth": 1, "max_features": "sqrt"}),
    ("RF", {"n_trees": 3, "min_samples_split": 50}),
    ("GBT", {"n_trees": 5}),
    ("GBT", {"n_trees": 3, "max_depth": 0}),
    ("GBT", {"n_trees": 5, "max_depth": 1}),
    ("GBT", {"n_trees": 4, "max_depth": 5, "min_samples_split": 7}),
    ("GBT", {"n_trees": 4, "min_samples_split": 50}),
]


def unpacked_trees(packed: dict) -> list[dict]:
    """Packed trees (in list form) as one dict per tree, the form the
    oracle states hold."""
    offsets = packed["offsets"]
    names = ("feature", "threshold", "left", "right", "value")
    return [
        {name: packed[name][lo:hi] for name in names} for lo, hi in zip(offsets, offsets[1:])
    ]


def saved_state_bytes(family: str, params: dict, x, y, seed: int = 0) -> bytes:
    """The saved state in the list form of format 4, the packed trees
    unpacked to one dict per tree (DT's one tree under ``"tree"``), as
    JSON bytes."""
    model = fit_model(ModelSpec(family, params, seed=seed), x, y)
    state = records_to_lists(model.to_dict()["state"])
    trees = unpacked_trees(state.pop("trees"))
    state.update({"tree": trees[0]} if family == "DT" else {"trees": trees})
    return json.dumps(state).encode("utf-8")


def oracle_state_bytes(family: str, params: dict, x, y, seed: int = 0) -> bytes:
    extra = {"seed": seed} if family == "RF" else {}
    state = ORACLE_STATES[family](x, y, **params, **extra)
    return json.dumps(records_to_lists(state)).encode("utf-8")


class TestTreeOracle:
    """The tree families save exactly the trees the per-node-argsort
    splitter in ``tests/oracles.py`` grows, bit for bit."""

    @pytest.mark.parametrize("family, params", ORACLE_CASES, ids=repr)
    # On data seed 5 an unstable column sort changes the float prefix sums
    # of GBT residuals enough to pick another split.
    @pytest.mark.parametrize("data_seed", [0, 5])
    @pytest.mark.parametrize("block_cells", [None, 1, 400], ids=lambda b: f"block={b}")
    def test_saved_trees_match_oracle(self, family, params, data_seed, block_cells, monkeypatch):
        # Small blocks scan one or a few candidate columns at a time, so
        # equal SSEs in different blocks must keep the lower column too.
        if block_cells is not None:
            monkeypatch.setattr(trees, "_BLOCK_CELLS", block_cells)
        x, y = tie_heavy_data(data_seed)
        got = saved_state_bytes(family, params, x, y, seed=data_seed + 3)
        assert got == oracle_state_bytes(family, params, x, y, seed=data_seed + 3)

    def test_coded_order_is_the_float_sort(self, acceptance_matrix):
        # Rows sorted by rank are the rows sorted by value, then row, with
        # -0.0 and 0.0 tied as the float sort ties them.
        signed = np.random.default_rng(3).choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], (300, 4))
        for x in (acceptance_matrix, tie_heavy_data(0, n=500)[0], signed):
            rows = np.arange(len(x))
            want = [np.lexsort((rows, x[:, j])) for j in range(x.shape[1])]
            assert np.array_equal(trees.PrefixScan(x).order, np.array(want))

    def test_continuous_columns_match_oracle(self, blob_data, noisy_data):
        for x, y in (blob_data, noisy_data):
            for family, params in ORACLE_CASES:
                assert saved_state_bytes(family, params, x, y) == oracle_state_bytes(
                    family, params, x, y
                ), (family, params)

    @pytest.mark.parametrize(
        "family, params",
        [("DT", {}), ("RF", {"n_trees": 4}), ("RF", {"n_trees": 4, "max_features": 2}),
         ("GBT", {"n_trees": 5, "max_depth": 5})],
        ids=repr,
    )
    def test_signed_zeros_match_oracle(self, family, params):
        # -0.0 and 0.0 compare equal, so the float sort ties them and keeps
        # their rows in row order; the ranks that sort nodes below the
        # root must tie them too.  On this data, sorting -0.0 first changes
        # GBT's float prefix sums enough to pick another split.
        rng = np.random.default_rng(3)
        x = rng.choice([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0], size=(300, 4))
        y = (x[:, 0] - x[:, 1] * x[:, 2] + rng.normal(scale=0.7, size=300) > 0).astype(np.int64)
        zeros = x == 0
        assert np.signbit(x[zeros]).any() and not np.signbit(x[zeros]).all()
        got = saved_state_bytes(family, params, x, y, seed=1)
        assert got == oracle_state_bytes(family, params, x, y, seed=1)
        state = json.loads(got)
        first = state["tree"] if family == "DT" else state["trees"][0]
        assert len(first["feature"]) > 3  # nodes below the root split

    def test_golden_digest(self):
        # SHA-256 over the saved state bytes of every oracle case on
        # tie_heavy_data(0); it pins the trees across refactors of both sides.
        x, y = tie_heavy_data(0)
        digest = hashlib.sha256()
        for family, params in ORACLE_CASES:
            digest.update(saved_state_bytes(family, params, x, y, seed=3))
        assert digest.hexdigest() == GOLDEN_TREES_SHA256

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_tie_heavy_data(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        d = data.draw(st.integers(1, 4), label="d")
        cells = st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d)
        x = np.array(data.draw(cells, label="x"), dtype=np.float64).reshape(n, d) / 2
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        y[:2] = (0, 1)
        family = data.draw(st.sampled_from(["DT", "RF", "GBT"]), label="family")
        depths = [0, 1, 5] if family == "GBT" else [0, 1, 5, None]
        params = {
            "max_depth": data.draw(st.sampled_from(depths)),
            "min_samples_split": data.draw(st.sampled_from([2, 7, 50])),
        }
        if family != "DT":
            params["n_trees"] = data.draw(st.integers(1, 3))
        if family == "RF":
            params["bootstrap"] = data.draw(st.booleans())
            params["max_features"] = data.draw(st.sampled_from([None, "sqrt", 1, 2, 9]))
        seed = data.draw(st.integers(0, 3), label="seed")
        block = data.draw(st.sampled_from([trees._BLOCK_CELLS, 1, 30]), label="block cells")
        with mock.patch.object(trees, "_BLOCK_CELLS", block):
            got = saved_state_bytes(family, params, x, y, seed)
        assert got == oracle_state_bytes(family, params, x, y, seed)


def root_candidates(d: int, max_features, seed: int) -> np.ndarray:
    """The candidate columns ``build_tree`` draws at a root."""
    if max_features is None:
        return np.arange(d)
    n_cand = max(1, math.isqrt(d)) if max_features == "sqrt" else min(max_features, d)
    return np.sort(np.random.default_rng(seed).choice(d, size=n_cand, replace=False))


class TestRootSplit:
    """A root's split from ``RunSums`` (count weights, 0/1 labels) and from
    ``PrefixScan`` (unit weights, float targets) equals the sorted scan
    ``_lowest_sse_split`` over the root's sorted lists, bit for bit."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_run_sums_match_the_sorted_scan(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        cells = st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d)
        x = np.array(data.draw(cells, label="x"), dtype=np.float64).reshape(n, d) / 2
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="y"))
        counts = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(any)
        if data.draw(st.booleans(), label="unit weights"):  # DT's root, or RF's without bootstrap
            weights = np.ones(n)
        else:
            weights = np.array(data.draw(counts, label="weights"), dtype=np.float64)
        max_features = data.draw(st.sampled_from([None, "sqrt", 1, 2, 9]), label="max_features")
        cand = root_candidates(d, max_features, data.draw(st.integers(0, 3), label="seed"))
        targets = y.astype(np.float64)
        wt = weights * targets
        wt2 = wt * targets
        runs = trees.RunSums(x, y)
        present = weights > 0
        order = np.argsort(x.T, axis=1, kind="stable")
        lists = order[present[order]].reshape(d, -1)  # cut to the root's rows
        expected = trees._lowest_sse_split(x, cand, lists, weights, wt, wt2)
        assert runs.root_split(cand, weights, wt, wt2) == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_prefix_scan_matches_the_sorted_scan(self, data):
        n = data.draw(st.integers(2, 40), label="n")
        d = data.draw(st.integers(1, 6), label="d")
        cells = st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d)
        x = np.array(data.draw(cells, label="x"), dtype=np.float64).reshape(n, d) / 2
        scan = trees.PrefixScan(x)
        ones = np.ones(n)
        # several rounds on one scan, as a boosted fit reuses it
        for _ in range(data.draw(st.integers(1, 3), label="rounds")):
            targets = np.array(data.draw(
                st.lists(st.floats(-1, 1), min_size=n, max_size=n), label="targets"))
            wt = ones * targets
            wt2 = wt * targets
            order = np.argsort(x.T, axis=1, kind="stable")
            expected = trees._lowest_sse_split(x, np.arange(d), order, ones, wt, wt2)
            assert scan.root_split(np.arange(d), ones, wt, wt2) == expected

    @staticmethod
    def spied(monkeypatch) -> list[str]:
        """What a fit calls from now: ``"code"`` for each coding of the
        columns and ``"scan"`` for each sorted scan below a root."""
        calls = []
        for name, label in (("rank_columns", "code"), ("_lowest_sse_split", "scan")):
            def spy(*args, _label=label, _original=getattr(trees, name)):
                calls.append(_label)
                return _original(*args)

            monkeypatch.setattr(trees, name, spy)
        return calls

    def test_ranks_index_each_columns_distinct_values(self):
        x, y = tie_heavy_data(0)
        zeros = np.flatnonzero(x == 0)
        x.flat[zeros[::2]] = -0.0
        wide = np.arange(70000.0)[::-1, None]  # more distinct values than uint16 holds
        for matrix, labels, dtype in ((x, y, np.uint16), (wide, np.arange(70000) % 2, np.intp)):
            want = np.array([np.unique(column, return_inverse=True)[1] for column in matrix.T])
            for presorted in (trees.RunSums(matrix, labels), trees.PrefixScan(matrix)):
                assert presorted.ranks.dtype == dtype
                assert np.array_equal(presorted.ranks, want)

    def test_one_split_forest_builds_no_sorted_lists(self, blob_data, monkeypatch):
        x, y = blob_data
        calls = self.spied(monkeypatch)
        model = fit_model(ModelSpec("RF", {"n_trees": 20}, seed=0), x, y)
        assert [len(tree.feature) for tree in model.classifier.trees_] == [3] * 20
        assert calls == ["code"]  # no sorted lists, and the columns coded once

    @pytest.mark.parametrize(
        "family, params",
        [("DT", {}), ("RF", {"n_trees": 4}), ("RF", {"n_trees": 4, "max_features": "sqrt"}),
         ("GBT", {"n_trees": 4, "max_depth": 5})],
        ids=repr,
    )
    def test_deep_fit_builds_its_ranks_once(self, family, params, monkeypatch):
        x, y = tie_heavy_data(0)
        calls = self.spied(monkeypatch)
        model = fit_model(ModelSpec(family, params, seed=0), x, y)
        grown = [model.classifier.tree_] if family == "DT" else model.classifier.trees_
        assert all(len(tree.feature) > 3 for tree in grown)
        assert calls.count("code") == 1
        assert calls.count("scan") >= len(grown)
