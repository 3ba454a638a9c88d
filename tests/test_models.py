"""Tests for the eleven detector families and their shared contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from urlsleuth.errors import ArtifactError, ModelError
from urlsleuth.models import (
    FAMILIES,
    STOCHASTIC_FAMILIES,
    SUPERVISED_FAMILIES,
    UNSUPERVISED_FAMILIES,
    ModelSpec,
    TrainedModel,
    fit_model,
    make_classifier,
)
from urlsleuth.models.bayes import GaussianNaiveBayes
from urlsleuth.models.linear import LogisticRegressionGD
from urlsleuth.models.neighbors import KNearestNeighbors
from urlsleuth.models.trees import DecisionTreeCART, RandomForest

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
        assert len(FAMILIES) == 11
        assert STOCHASTIC_FAMILIES == {"RF", "MLP", "KMEANS", "GMM"}


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
        x = rng.normal(size=(100, 4))
        y = (rng.random(100) > 0.5).astype(np.int64)
        q = rng.normal(size=(70, 4))  # crosses the 32-row chunk boundary
        clf = KNearestNeighbors(k=5).fit(x, y)
        got = clf.score_batch(q)
        d2 = ((q[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
        want = y[np.argsort(d2, axis=1, kind="stable")[:, :5]].mean(axis=1)
        np.testing.assert_allclose(got, want, atol=1e-12)


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


class TestLinearModels:
    def test_loss_history_decreases(self, noisy_data):
        x, y = noisy_data
        clf = LogisticRegressionGD(learning_rate=0.1, n_iters=120).fit(x, y)
        hist = clf.loss_history_
        assert len(hist) == 120
        assert hist[-1] < hist[0]

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
            ("KNN", lambda s: s.update(train_X=s["train_X"][:2], train_y=s["train_y"][:2])),
            ("DT", lambda s: s["tree"]["left"].__setitem__(0, 0)),
            ("KMEANS", lambda s: s.update(cluster_fractions=s["cluster_fractions"][:1])),
            ("RF", lambda s: s.update(trees=s["trees"] * 2)),
        ],
        ids=["KNN-fewer-rows-than-k", "DT-child-cycle", "KMEANS-cluster_fractions", "RF-n_trees"],
    )
    def test_state_that_cannot_score_rejected(self, family, cut, blob_data):
        x, y = blob_data
        payload = fit_model(spec_for(family), x, y).to_dict()
        cut(payload["state"])
        with pytest.raises(ArtifactError):
            TrainedModel.from_dict(payload)

    def test_dict_round_trip(self, blob_data):
        x, y = blob_data
        model = fit_model(spec_for("DT"), x, y)
        payload = model.to_dict()
        assert set(payload) == {"spec", "n_features", "state"}
        restored = TrainedModel.from_dict(payload)
        assert np.array_equal(restored.predict_scores(x), model.predict_scores(x))
