"""Tests for scaling, MI selection, projection, grid search, and the
end-to-end URL pipeline."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import pathlib
import random
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urlsleuth.charlm import SIDES, LmScorePair, _blocks
from urlsleuth.cli import _saved_artifacts, score_datasets
from urlsleuth.errors import (
    ArtifactError,
    CatalogMismatchError,
    ConfigError,
    DataError,
    ModelError,
)
from urlsleuth.fileio import write_json_atomic
from urlsleuth.models import FAMILIES, ModelSpec, fit_model
from urlsleuth.models.base import state_array
from urlsleuth.pipeline import (
    LEXICAL_COLUMNS,
    MI_BIN_COUNT,
    FeatureChain,
    PipelineArtifact,
    Selector,
    apply_projection,
    apply_scaler,
    apply_selector,
    fit_chain,
    fit_projection,
    fit_scaler,
    fit_selector,
    grid_search,
    load_pipeline,
    save_pipeline,
)
from urlsleuth.synth import generate_dataset
from urlsleuth.urlfeat import _SCALAR_MAX_LENGTH, CATALOG_VERSION, extract_matrix

from conftest import (
    BLOCKED_BYTES_PER_URL, bytes_beside_result, edit_arrays, read_artifact, write_artifact,
)
from oracles import chain_transform, mutual_information


def fit_artifact(urls, labels, spec: ModelSpec, **chain_kwargs) -> PipelineArtifact:
    """A chain fitted on the rows plus one model of ``spec`` on its output."""
    chain, X = fit_chain(urls, labels, **chain_kwargs)
    return PipelineArtifact(chain, fit_model(spec, X, np.asarray(labels)))


def mi_oracle(col: np.ndarray, y: np.ndarray, n_bins: int = MI_BIN_COUNT) -> float:
    """Independent MI computation from explicit probability tables."""
    edges = np.quantile(col, np.linspace(0.0, 1.0, n_bins + 1)[1:-1])
    bins = np.searchsorted(edges, col, side="right")
    n = len(y)
    joint = Counter(zip(bins.tolist(), y.tolist()))
    marg_b = Counter(bins.tolist())
    marg_y = Counter(y.tolist())
    mi = 0.0
    for (b, lab), c in joint.items():
        mi += (c / n) * math.log((c / n) / ((marg_b[b] / n) * (marg_y[lab] / n)))
    return max(0.0, mi)


class TestScaler:
    def test_two_point_column(self):
        s = fit_scaler(np.array([[0.0], [2.0]]))
        assert s.mean[0] == 1.0
        assert s.std[0] == 1.0  # population std of {0, 2}
        out = apply_scaler(s, np.array([[0.0], [2.0]]))
        np.testing.assert_allclose(out.ravel(), [-1.0, 1.0])

    def test_constant_column_centered_not_divided(self):
        s = fit_scaler(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert s.std[0] == 1.0
        out = apply_scaler(s, np.array([[5.0, 2.0]]))
        assert out[0, 0] == 0.0

    def test_mean_row_maps_to_zero(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        s = fit_scaler(x)
        np.testing.assert_allclose(apply_scaler(s, x.mean(axis=0)[None, :]), 0.0, atol=1e-12)

    def test_scaled_train_matrix_is_standardized(self):
        rng = np.random.default_rng(2)
        x = rng.normal(loc=3.0, scale=2.5, size=(100, 3))
        z = apply_scaler(fit_scaler(x), x)
        np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)

    def test_too_few_rows_rejected(self):
        with pytest.raises(DataError, match="2 rows"):
            fit_scaler(np.array([[1.0, 2.0]]))

    def test_width_mismatch_rejected(self):
        s = fit_scaler(np.ones((3, 2)))
        with pytest.raises(DataError, match="columns"):
            apply_scaler(s, np.ones((3, 5)))


class TestSelector:
    def test_perfect_feature_has_label_entropy_mi(self):
        y = np.array([0, 1] * 100)
        col = y.astype(np.float64)
        edges = np.quantile(col, np.linspace(0.0, 1.0, MI_BIN_COUNT + 1)[1:-1])
        bins = np.searchsorted(edges, col, side="right")
        assert mutual_information(bins, y) == pytest.approx(math.log(2), abs=1e-12)

    def test_constant_feature_has_zero_mi(self):
        y = np.array([0, 1] * 50)
        bins = np.zeros(100, dtype=np.int64)
        assert mutual_information(bins, y) == 0.0

    def test_independent_feature_has_near_zero_mi(self):
        rng = np.random.default_rng(3)
        y = (rng.random(4000) > 0.5).astype(np.int64)
        col = rng.normal(size=4000)
        edges = np.quantile(col, np.linspace(0.0, 1.0, MI_BIN_COUNT + 1)[1:-1])
        bins = np.searchsorted(edges, col, side="right")
        assert mutual_information(bins, y) < 0.01

    def test_scores_match_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        x = np.hstack(
            [
                rng.normal(size=(120, 6)),
                rng.integers(0, 3, size=(120, 4)).astype(np.float64),
                np.ones((120, 2)),
            ]
        )
        y = (x[:, 0] + x[:, 6] > 0.7).astype(np.int64)
        sel = fit_selector(x, y, top_k=12)
        for j in range(x.shape[1]):
            assert sel.score_per_feature[j] == pytest.approx(
                mi_oracle(x[:, j], y), abs=1e-9
            ), f"feature {j}"

    @given(
        x=st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=2, max_size=60),
        labels=st.lists(st.sampled_from([0, 1, 7]), min_size=60, max_size=60),
    )
    @settings(max_examples=60, deadline=None)
    def test_scores_match_dict_loop(self, x, labels):
        x = np.array(x, dtype=np.float64) / 2
        y = np.array(labels[: len(x)])
        sel = fit_selector(x, y, top_k=4)
        for j in range(x.shape[1]):
            edges = np.quantile(x[:, j], np.linspace(0.0, 1.0, MI_BIN_COUNT + 1)[1:-1])
            bins = np.searchsorted(edges, x[:, j], side="right")
            assert sel.score_per_feature[j] == pytest.approx(
                mutual_information(bins, y), rel=1e-12, abs=1e-15
            ), f"feature {j}"

    def test_scoring_holds_little_beside_the_matrix(self):
        # The training rows' shape in the acceptance run: 4,000 x 80.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4000, 80))
        y = (rng.random(4000) < 0.3).astype(np.int64)
        tracemalloc.start()
        try:
            fit_selector(X, y, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The sorted copy np.quantile takes and the bins; forming the cell
        # indices in two more n x d temporaries took 3.5x.
        assert peak <= 2 * X.nbytes

    def test_top_k_keeps_best_features_in_index_order(self):
        rng = np.random.default_rng(5)
        y = (rng.random(300) > 0.5).astype(np.int64)
        noise = rng.normal(size=(300, 3))
        signal = y[:, None] + 0.01 * rng.normal(size=(300, 1))
        x = np.hstack([noise[:, :2], signal, noise[:, 2:]])
        sel = fit_selector(x, y, top_k=1)
        assert sel.retained_indices.tolist() == [2]

    def test_retained_indices_sorted_ascending(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(200, 8))
        y = (x[:, 5] + x[:, 1] > 0).astype(np.int64)
        sel = fit_selector(x, y, top_k=4)
        kept = sel.retained_indices.tolist()
        assert kept == sorted(kept)

    def test_tied_scores_prefer_lower_index(self):
        y = np.array([0, 1] * 60)
        col = y.astype(np.float64)
        x = np.column_stack([col, col, col])
        sel = fit_selector(x, y, top_k=2)
        assert sel.retained_indices.tolist() == [0, 1]

    def test_top_k_equal_to_width_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(50, 5))
        y = (rng.random(50) > 0.5).astype(np.int64)
        sel = fit_selector(x, y, top_k=5)
        assert sel.retained_indices.tolist() == [0, 1, 2, 3, 4]
        np.testing.assert_array_equal(apply_selector(sel, x), x)

    def test_oversized_top_k_warns_and_clamps(self):
        x = np.random.default_rng(8).normal(size=(40, 3))
        y = np.array([0, 1] * 20)
        with pytest.warns(UserWarning, match="clamping"):
            sel = fit_selector(x, y, top_k=10)
        assert len(sel.retained_indices) == 3

    def test_nonpositive_top_k_rejected(self):
        x = np.ones((4, 2))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ModelError) as raised:
            fit_selector(x, y, top_k=0)
        assert str(raised.value) == "top_k must be an integer >= 1, got 0"

    @pytest.mark.parametrize("top_k", [2.5, True], ids=["2.5", "true"])
    def test_non_integer_top_k_rejected(self, top_k):
        x = np.ones((4, 2))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ModelError) as raised:
            fit_selector(x, y, top_k=top_k)
        assert str(raised.value) == f"top_k must be an integer >= 1, got {top_k!r}"


class TestProjection:
    def test_components_are_orthonormal(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        proj = fit_projection(x, projection_variance=1.0)
        gram = proj.components @ proj.components.T
        np.testing.assert_allclose(gram, np.eye(len(proj.components)), atol=1e-9)

    def test_explained_variance_non_increasing(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(80, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        proj = fit_projection(x, projection_variance=1.0)
        ev = proj.explained_variance
        assert all(b <= a + 1e-12 for a, b in zip(ev, ev[1:]))

    def test_collinear_data_keeps_one_component(self):
        t = np.linspace(-1, 1, 30)
        x = np.column_stack([t, 2.0 * t])
        proj = fit_projection(x, projection_variance=1.0)
        assert len(proj.components) == 1

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 4))
        proj = fit_projection(x, projection_variance=1.0)
        assert len(proj.components) == 4
        z = apply_projection(proj, x)
        back = z @ proj.components + proj.mean
        np.testing.assert_allclose(back, x, atol=1e-9)

    def test_projection_variance_truncates(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(200, 6)) * np.array([10.0, 5.0, 0.1, 0.1, 0.1, 0.1])
        proj = fit_projection(x, projection_variance=0.95)
        assert len(proj.components) < 6

    def test_sign_convention_is_deterministic(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(50, 4))
        proj = fit_projection(x, projection_variance=1.0)
        for row in proj.components:
            assert row[int(np.argmax(np.abs(row)))] > 0

    def test_zero_variance_input_warns(self):
        x = np.ones((10, 3))
        with pytest.warns(UserWarning, match="zero variance"):
            proj = fit_projection(x, projection_variance=0.95)
        assert len(proj.components) == 1
        np.testing.assert_array_equal(apply_projection(proj, x), np.zeros((10, 1)))

    @pytest.mark.parametrize("target", [0.0, -0.5, 1.5])
    def test_projection_variance_range_checked(self, target):
        with pytest.raises(ModelError, match="projection_variance"):
            fit_projection(np.ones((5, 2)), projection_variance=target)


class TestGridSearch:
    def _split_1d(self):
        # 1-D layout with one mislabeled training point at x=2: k=1
        # memorizes the noise, k=3 smooths it out on validation.
        x_train = np.arange(10, dtype=np.float64).reshape(-1, 1)
        y_train = np.array([0, 0, 1, 0, 0, 1, 1, 1, 1, 1])
        x_val = np.array([[1.6], [2.4], [6.5], [8.5]])
        y_val = np.array([0, 0, 1, 1])
        return (x_train, y_train), [(x_val, y_val)]

    def test_single_point_grid_returns_it(self):
        train, vals = self._split_1d()
        spec = grid_search("KNN", {"k": [3]}, train, vals).spec
        assert spec == ModelSpec(family="KNN", hyperparameters={"k": 3}, seed=0)

    def test_better_hyperparameter_wins(self):
        train, vals = self._split_1d()
        spec = grid_search("KNN", {"k": [1, 3]}, train, vals).spec
        assert spec.hyperparameters["k"] == 3

    def test_tie_keeps_earlier_enumeration_point(self, blob_data):
        x, y = blob_data
        train = (x[:60], y[:60])
        vals = [(x[60:], y[60:])]
        spec = grid_search("DT", {"max_depth": [None, 12]}, train, vals).spec
        assert spec.hyperparameters["max_depth"] is None

    def test_failing_grid_point_warns_and_search_continues(self, blob_data):
        x, y = blob_data
        train = (x[:60], y[:60])
        vals = [(x[60:], y[60:])]
        with pytest.warns(UserWarning, match="failed to fit"):
            spec = grid_search("KMEANS", {"n_clusters": [500, 2]}, train, vals).spec
        assert spec.hyperparameters["n_clusters"] == 2

    def test_failed_point_never_beats_a_fitted_point_scoring_zero(self, blob_data):
        x, y = blob_data
        # All-benign validation labels give every fitted point F1 = 0, the
        # score a tie would have to beat.
        vals = [(x[60:], np.zeros(len(x) - 60, dtype=np.int64))]
        with pytest.warns(UserWarning, match="failed to fit"):
            model = grid_search("KMEANS", {"n_clusters": [500, 2]}, (x[:60], y[:60]), vals)
        assert model.spec.hyperparameters["n_clusters"] == 2
        assert model.predict_scores(x[60:]).shape == (len(x) - 60,)

    @pytest.mark.parametrize("family", ["LINEAR_SVM", "GBT"])
    def test_diverging_point_warns_and_is_never_chosen(self, family):
        # A finite, in-range learning rate of 1e300 overflows the fit, so the
        # model scores validation rows as NaN; the search skips that point.
        rng = np.random.default_rng(0)
        x = rng.normal(size=(400, 40))
        y = (x[:, 0] + x[:, 1] + rng.normal(size=400) > 0).astype(np.int64)
        diverged = "1e\\+300.*failed to fit"
        with np.errstate(all="ignore"), pytest.warns(UserWarning, match=diverged):
            model = grid_search(
                family, {"learning_rate": [1e300, 0.1]}, (x[:300], y[:300]), [(x[300:], y[300:])]
            )
        assert model.spec.hyperparameters == {"learning_rate": 0.1}

    def test_every_point_failing_raises_the_first_error(self, blob_data):
        x, y = blob_data
        with pytest.warns(UserWarning, match="failed to fit"):
            with pytest.raises(ModelError, match="n_clusters=500"):
                grid_search("KMEANS", {"n_clusters": [500, 400]}, (x[:60], y[:60]), [(x, y)])

    def test_score_is_mean_over_sets_not_pooled(self):
        train, _ = self._split_1d()
        # k=1 aces the big set (4 rows), k=3 aces the two small ones.
        # Pooled accuracy would pick k=1 (4/6 vs 2/6); the per-set mean
        # picks k=3 (2/3 vs 1/3).
        vals = [
            (np.array([[2.1]] * 4), np.array([1, 1, 1, 1])),
            (np.array([[1.6]]), np.array([0])),
            (np.array([[2.4]]), np.array([0])),
        ]
        spec = grid_search("KNN", {"k": [1, 3]}, train, vals, target_metric="acc").spec
        assert spec.hyperparameters["k"] == 3

    def test_seed_passed_through(self, blob_data):
        x, y = blob_data
        spec = grid_search("RF", {"n_trees": [5]}, (x, y), [(x, y)], seed=77).spec
        assert spec.seed == 77

    def test_empty_grid_is_one_default_point(self, blob_data):
        x, y = blob_data
        model = grid_search("KNN", {}, (x, y), [(x, y)])
        assert model.spec == ModelSpec("KNN", {}, 0)

    def test_no_validation_sets_rejected(self, blob_data):
        x, y = blob_data
        with pytest.raises(ConfigError, match="validation"):
            grid_search("KNN", {"k": [1]}, (x, y), [])

    @pytest.mark.parametrize("metric", ["mcc", "family"])
    def test_unknown_target_metric_rejected_before_any_fit(self, blob_data, monkeypatch, metric):
        def no_fit(*args, **kwargs):
            raise AssertionError("a grid point was fitted")

        monkeypatch.setattr("urlsleuth.pipeline.fit_model", no_fit)
        x, y = blob_data
        with pytest.raises(ConfigError) as raised:
            grid_search("KNN", {"k": [1]}, (x, y), [(x, y)], target_metric=metric)
        assert str(raised.value) == (
            f"target_metric must be one of acc, pcsn, rec, f1, auc; got {metric!r}"
        )


class TestFitPipeline:
    def test_end_to_end_learns_the_corpus(self, url_corpus):
        urls, labels = url_corpus
        spec = ModelSpec(family="LR", hyperparameters={"n_iters": 150}, seed=0)
        artifact = fit_artifact(urls, labels, spec, top_k=40)
        pred_labels, scores = artifact.predict(urls)
        assert float(np.mean(pred_labels == labels)) >= 0.95
        assert np.array_equal(pred_labels, (scores >= 0.5).astype(np.int64))

    def test_featurize_width_follows_top_k(self, url_corpus):
        urls, labels = url_corpus
        spec = ModelSpec(family="GNB", hyperparameters={}, seed=0)
        assert fit_artifact(urls, labels, spec, top_k=25).featurize(urls[:3]).shape == (3, 25)
        assert fit_artifact(urls, labels, spec).featurize(urls[:3]).shape == (3, 80)

    def test_projection_stage_changes_width(self, url_corpus):
        urls, labels = url_corpus
        spec = ModelSpec(family="GNB", hyperparameters={}, seed=0)
        artifact = fit_artifact(urls, labels, spec, top_k=30, projection_variance=0.9)
        width = artifact.featurize(urls[:2]).shape[1]
        assert width == len(artifact.chain.projection.components)
        assert width < 30

    def test_featurize_equals_manual_stage_chain(self, url_corpus):
        urls, labels = url_corpus
        spec = ModelSpec(family="GNB", hyperparameters={}, seed=0)
        artifact = fit_artifact(urls, labels, spec, top_k=20)
        probe = urls[:5]
        manual = np.hstack([extract_matrix(probe), artifact.chain.lm_pair.transform(probe)])
        manual = apply_scaler(artifact.chain.scaler, manual)
        manual = apply_selector(artifact.chain.selector, manual)
        np.testing.assert_array_equal(artifact.featurize(probe), manual)

    def test_lm_columns_sit_after_lexical_block(self, url_corpus):
        urls, labels = url_corpus
        spec = ModelSpec(family="GNB", hyperparameters={}, seed=0)
        artifact = fit_artifact(urls, labels, spec)
        assert isinstance(artifact.chain.lm_pair, LmScorePair)
        assert len(artifact.chain.scaler.mean) == 80  # 78 lexical + 2 LM scores

    def test_preprocessing_fitted_on_training_rows_only(self, url_corpus):
        urls, labels = url_corpus
        spec = ModelSpec(family="GNB", hyperparameters={}, seed=0)
        artifact = fit_artifact(urls, labels, spec)
        lm = LmScorePair(order=3, k=1.0).fit(urls, labels)
        train_matrix = np.hstack([extract_matrix(urls), lm.transform(urls)])
        np.testing.assert_allclose(artifact.chain.scaler.mean, train_matrix.mean(axis=0))
        # Growing the fit set must move the scaler: no frozen global stats.
        grown = fit_artifact(
            urls + ["http://extra-row.example/" + "x" * 120], np.append(labels, 1), spec
        )
        assert not np.array_equal(artifact.chain.scaler.mean, grown.chain.scaler.mean)


class TestFitChain:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"top_k": 20}, {"top_k": 30, "projection_variance": 0.95}],
        ids=["all-features", "top20", "top30-projected"],
    )
    def test_returned_train_matrix_equals_replay(self, url_corpus, kwargs):
        urls, labels = url_corpus
        chain, X_train = fit_chain(urls, labels, **kwargs)
        assert np.array_equal(X_train, chain.transform(urls))

    def test_saved_form_compares_every_stage(self, url_corpus):
        urls, labels = url_corpus
        chain, _ = fit_chain(urls, labels, top_k=20)
        assert chain.to_dict() == fit_chain(urls, labels, top_k=20)[0].to_dict()
        for other in (
            {"top_k": 21},
            {"top_k": 20, "lm_smoothing": 0.5},
            {"top_k": 20, "projection_variance": 0.95},
        ):
            changed, _ = fit_chain(urls, labels, **other)
            assert chain.to_dict() != changed.to_dict(), other
            assert changed.to_dict() != chain.to_dict(), other
        rescaled = dataclasses.replace(
            chain, scaler=dataclasses.replace(chain.scaler, std=chain.scaler.std * 2.0)
        )
        assert chain.to_dict() != rescaled.to_dict()

    def test_projection_variance_checked_before_any_fit(self, url_corpus, monkeypatch):
        def no_fit(*args, **kwargs):
            raise AssertionError("the LM pair was fitted")

        monkeypatch.setattr(LmScorePair, "fit", no_fit)
        urls, labels = url_corpus
        with pytest.raises(ModelError) as raised:
            fit_chain(urls, labels, projection_variance=1.5)
        assert str(raised.value) == (
            "projection_variance must be None or a finite number > 0.0 and <= 1.0, got 1.5"
        )

    @pytest.mark.parametrize("top_k", [0, 2.5, True], ids=["0", "2.5", "true"])
    def test_top_k_checked_before_any_fit(self, url_corpus, monkeypatch, top_k):
        def no_fit(*args, **kwargs):
            raise AssertionError("the LM pair was fitted")

        monkeypatch.setattr(LmScorePair, "fit", no_fit)
        urls, labels = url_corpus
        with pytest.raises(ModelError) as raised:
            fit_chain(urls, labels, top_k=top_k)
        assert str(raised.value) == f"top_k must be an integer >= 1, got {top_k!r}"


# Over 16,384 predicted positions: a lone URL longer than one scoring block.
_LONG_URL = ("http://a.com/?" + "".join(f"q{i}=v{i % 7}&" for i in range(4000)))[:20000]


class TestChainOracle:
    """``FeatureChain.transform`` against ``oracles.chain_transform``, bit
    for bit, whichever language-model columns the selector keeps."""

    KEPT = {
        "all-80": list(range(80)),
        "both-lm": [*range(0, 78, 4), 78, 79],
        "benign-lm": [*range(1, 78, 5), 78],
        "malicious-lm": [*range(2, 78, 6), 79],
        "no-lm": list(range(3, 78, 3)),
    }

    @pytest.fixture(scope="class")
    def base(self, url_corpus) -> FeatureChain:
        urls, labels = url_corpus
        return fit_chain(urls, labels)[0]

    @pytest.mark.parametrize("project", [False, True], ids=["plain", "projected"])
    @pytest.mark.parametrize("kept", list(KEPT))
    def test_transform_equals_oracle(self, url_corpus, base, kept, project):
        urls, _ = url_corpus
        kept = np.array(self.KEPT[kept])
        selector = Selector(kept, base.selector.score_per_feature)
        projection = None
        if project:
            plain = FeatureChain(base.lm_pair, base.scaler, selector, None)
            projection = fit_projection(chain_transform(plain, urls), 0.9)
        # A pair whose tables are not built yet, so a dropped side shows.
        pair = LmScorePair.from_dict(base.lm_pair.to_dict())
        chain = FeatureChain(pair, base.scaler, selector, projection)
        probes = urls[:40] + ["", "http://\u4e2d\u6587.com/é?\x00", _LONG_URL]
        batch = chain.transform(probes)
        lone = [chain.transform([url]) for url in probes]
        for column, side in enumerate(SIDES, LEXICAL_COLUMNS):
            assert ("_table" in vars(getattr(pair, side))) == (column in kept), side
        expected = chain_transform(chain, probes)
        # Equal strides too: a product's bits can follow the memory layout.
        assert (batch.shape, batch.strides) == (expected.shape, expected.strides)
        assert batch.tobytes() == expected.tobytes()
        for url, row in zip(probes, lone):
            single = chain_transform(chain, [url])
            assert (row.strides, row.tobytes()) == (single.strides, single.tobytes()), url[:40]

    @staticmethod
    def _sides(kept: list[int]) -> set[str]:
        return {side for column, side in enumerate(SIDES, LEXICAL_COLUMNS) if column in kept}

    @pytest.mark.parametrize("project", [False, True], ids=["plain", "projected"])
    @pytest.mark.parametrize("kept", list(KEPT))
    def test_saved_chain_equals_fitted(self, url_corpus, base, kept, project):
        """A chain saved with only the sides its selector keeps loads back
        to the fitted chain's bytes and strides, and saves to the same
        text, so its digest survives save, load and save."""
        urls, _ = url_corpus
        selector = Selector(np.array(self.KEPT[kept]), base.selector.score_per_feature)
        chain = FeatureChain(base.lm_pair, base.scaler, selector, None)
        if project:
            projection = fit_projection(chain_transform(chain, urls), 0.9)
            chain = FeatureChain(base.lm_pair, base.scaler, selector, projection)
        digest, text = chain._saved
        sides = self._sides(self.KEPT[kept])
        assert set(json.loads(text)["lm"]) == {"order", "k", *sides}
        loaded = FeatureChain.from_dict(json.loads(text))
        assert {side for side in SIDES if getattr(loaded.lm_pair, side) is not None} == sides
        assert loaded._saved == (digest, text)
        probes = urls[:40] + ["", "http://\u4e2d\u6587.com/\u00e9?\x00", _LONG_URL]
        for batch in (probes, [probes[0]], [_LONG_URL]):
            got, expected = loaded.transform(batch), chain.transform(batch)
            assert (got.shape, got.strides) == (expected.shape, expected.strides), len(batch)
            assert got.tobytes() == expected.tobytes(), len(batch)

    @pytest.mark.parametrize("kept", list(KEPT))
    def test_saved_sides_must_be_the_kept_ones(self, base, kept):
        """A chain file holding a side its selector drops, or lacking one it
        keeps, is refused with an error naming that side."""
        selector = Selector(np.array(self.KEPT[kept]), base.selector.score_per_feature)
        saved = json.loads(FeatureChain(base.lm_pair, base.scaler, selector, None)._saved[1])
        both = base.lm_pair.to_dict()
        for side in SIDES:
            edited = json.loads(json.dumps(saved))
            if side in self._sides(self.KEPT[kept]):
                del edited["lm"][side]
                message = f"chain lacks the {side} language model, whose column its selector keeps"
            else:
                edited["lm"][side] = both[side]
                message = f"chain holds the {side} language model, whose column its selector drops"
            with pytest.raises(ArtifactError) as raised:
                FeatureChain.from_dict(edited)
            assert str(raised.value) == message

    BLOCK_KEPT = {**KEPT, "one-column": [78]}

    @pytest.mark.parametrize("project", [False, True], ids=["plain", "projected"])
    @pytest.mark.parametrize("kept", ["all-80", "benign-lm", "no-lm", "one-column"])
    def test_blocks_equal_oracle(self, url_corpus, base, kept, project):
        """A batch worked through several blocks, blocks of one short URL
        among them, gives the bytes and strides of one whole matrix."""
        urls, _ = url_corpus
        kept = np.array(self.BLOCK_KEPT[kept])
        selector = Selector(kept, base.selector.score_per_feature)
        plain = FeatureChain(base.lm_pair, base.scaler, selector, None)
        projection = fit_projection(chain_transform(plain, urls), 0.9) if project else None
        chain = FeatureChain(base.lm_pair, base.scaler, selector, projection)
        odd = ["", "http://\u4e2d\u6587.com/\u00e9?\x00", "https://b\u00fccher.de/stra\u00dfe"]
        probes = urls + odd + urls[:5] + [_LONG_URL, urls[5], _LONG_URL] + odd + urls
        blocks = list(_blocks(np.fromiter(map(len, probes), np.int64) + chain.lm_pair.order))
        assert sum(hi - lo > 1 for lo, hi in blocks) >= 3
        lone = [lo for lo, hi in blocks if hi - lo == 1 and len(probes[lo]) <= _SCALAR_MAX_LENGTH]
        assert lone, "no short URL has a block of its own"
        for batch in (probes, [], [urls[0]], [urls[1], urls[2]], [urls[3], _LONG_URL]):
            got, expected = chain.transform(batch), chain_transform(chain, batch)
            assert (got.shape, got.strides) == (expected.shape, expected.strides), len(batch)
            assert got.tobytes() == expected.tobytes(), len(batch)


def test_transform_memory_does_not_grow_with_the_batch(url_corpus):
    """``transform`` holds one block's working set beside its output, so
    four times the URLs (the same 2,000, four times over, so that the
    blocks hold alike) need only a few bytes per URL more."""
    urls, labels = url_corpus
    chain = fit_chain(urls, labels, top_k=40)[0]
    batch = [r.url for r in generate_dataset("mem", 2000, 0.3, seed=5).records]
    chain.transform(batch[:10])  # the LM scoring tables are built on first use
    small = bytes_beside_result(chain.transform, batch)
    large = bytes_beside_result(chain.transform, batch * 4)
    assert large - small <= BLOCKED_BYTES_PER_URL * 3 * len(batch), (small, large)


class TestPipelinePersistence:
    def _artifact(self, url_corpus, **kwargs):
        urls, labels = url_corpus
        spec = ModelSpec(family="LR", hyperparameters={"n_iters": 60}, seed=0)
        return fit_artifact(urls, labels, spec, **kwargs), urls

    def _saved(self, url_corpus, tmp_path, **kwargs) -> tuple[pathlib.Path, dict, dict]:
        """An artifact saved under ``tmp_path``: its model-file path and the
        payloads of that file and of its chain file."""
        artifact, _ = self._artifact(url_corpus, **kwargs)
        path = tmp_path / "pipe.json"
        save_pipeline(artifact, path)
        return (path, *read_artifact(path))

    def test_round_trip_identical_predictions(self, url_corpus, tmp_path):
        artifact, urls = self._artifact(url_corpus, top_k=30)
        path = tmp_path / "pipe.json"
        save_pipeline(artifact, path)
        restored = load_pipeline(path)
        a_labels, a_scores = artifact.predict(urls)
        b_labels, b_scores = restored.predict(urls)
        assert np.array_equal(a_labels, b_labels)
        assert np.array_equal(a_scores, b_scores)

    def test_round_trip_with_projection(self, url_corpus, tmp_path):
        artifact, urls = self._artifact(url_corpus, top_k=30, projection_variance=0.95)
        path = tmp_path / "pipe.json"
        save_pipeline(artifact, path)
        restored = load_pipeline(path)
        assert np.array_equal(restored.predict(urls)[1], artifact.predict(urls)[1])

    def test_payload_fields(self, url_corpus, tmp_path):
        path, payload, chain = self._saved(url_corpus, tmp_path, top_k=30)
        assert set(payload) == {"artifact", "format_version", "catalog_version", "chain", "model"}
        assert payload["artifact"] == "urlsleuth-pipeline"
        assert payload["format_version"] == 9
        assert payload["catalog_version"] == CATALOG_VERSION
        assert set(chain) == {"lm", "scaler", "selector", "projection"}
        # Only the language models whose score the selector keeps are saved.
        kept = state_array(chain["selector"], "retained_indices", (30,), np.int64)
        assert [i for i in kept.tolist() if i >= LEXICAL_COLUMNS] == [LEXICAL_COLUMNS]  # benign only
        assert set(chain["lm"]) == {"order", "k", "benign"}
        assert set(chain["lm"]["benign"]) == {"keys", "counts"}
        assert set(payload["model"]) == {"spec", "n_features", "state"}
        assert chain["projection"] is None
        restored = load_pipeline(path)
        assert isinstance(restored, PipelineArtifact)

    def test_all_features_save_both_sides(self, url_corpus, tmp_path):
        # fit_chain's default top_k keeps all CHAIN_INPUT_COLUMNS.
        _, _, chain = self._saved(url_corpus, tmp_path)
        assert set(chain["lm"]) == {"order", "k", *SIDES}
        assert all(set(chain["lm"][side]) == {"keys", "counts"} for side in SIDES)

    def test_dropped_side_in_chain_file_refused(self, url_corpus, tmp_path):
        urls, labels = url_corpus
        path, payload, chain = self._saved(url_corpus, tmp_path, top_k=30)
        both = LmScorePair(order=3, k=1.0).fit(urls, labels).to_dict()
        chain["lm"]["malicious"] = both["malicious"]
        write_artifact(payload, chain, path)
        with pytest.raises(ArtifactError, match="chain holds the malicious language model"):
            load_pipeline(path)

    def test_chain_file_is_the_chains_json_named_by_its_sha256(self, url_corpus, tmp_path):
        artifact, _ = self._artifact(url_corpus)
        save_pipeline(artifact, tmp_path / "pipe.json")
        (chain_file,) = (tmp_path / "chains").iterdir()
        expected = tmp_path / "expected.json"
        write_json_atomic(artifact.chain.to_dict(), expected)
        assert chain_file.read_bytes() == expected.read_bytes()
        assert chain_file.name == hashlib.sha256(expected.read_bytes()).hexdigest() + ".json"

    def _two_families(self, url_corpus, tmp_path) -> tuple[PipelineArtifact, PipelineArtifact]:
        """KNN and LR on one chain, saved as ``KNN.json`` and ``LR.json``
        under ``tmp_path``.  ``top_k=33`` gives a chain no other test of
        this module saves, so no chain with its digest is alive yet."""
        urls, labels = url_corpus
        chain, X = fit_chain(urls, labels, top_k=33)
        knn = PipelineArtifact(chain, fit_model(ModelSpec("KNN", {"k": 3}), X, labels))
        lr = PipelineArtifact(chain, fit_model(ModelSpec("LR", {"n_iters": 60}), X, labels))
        save_pipeline(knn, tmp_path / "KNN.json")
        save_pipeline(lr, tmp_path / "LR.json")
        gc.collect()
        return knn, lr

    @staticmethod
    def _count_builds(monkeypatch) -> list[int]:
        """A list that grows by one at each ``FeatureChain.from_dict`` call."""
        built = []
        from_dict = FeatureChain.from_dict
        monkeypatch.setattr(
            FeatureChain, "from_dict", classmethod(lambda cls, d: built.append(1) or from_dict(d))
        )
        return built

    def test_artifacts_naming_one_digest_share_one_chain(self, url_corpus, tmp_path):
        urls, _ = url_corpus
        knn, lr = self._two_families(url_corpus, tmp_path)
        assert len(list((tmp_path / "chains").iterdir())) == 1
        a = load_pipeline(tmp_path / "KNN.json")  # two separate calls, nothing passed between
        b = load_pipeline(tmp_path / "LR.json")
        assert a.chain is b.chain
        assert np.array_equal(a.predict(urls)[1], knn.predict(urls)[1])
        assert np.array_equal(b.predict(urls)[1], lr.predict(urls)[1])

    def test_shared_chain_is_read_on_every_load_and_built_once(
        self, url_corpus, tmp_path, monkeypatch
    ):
        self._two_families(url_corpus, tmp_path)
        read = []
        read_bytes = pathlib.Path.read_bytes
        monkeypatch.setattr(
            pathlib.Path, "read_bytes", lambda self: read.append(self.parent.name) or read_bytes(self)
        )
        built = self._count_builds(monkeypatch)
        loaded = [load_pipeline(tmp_path / name) for name in ("KNN.json", "LR.json", "KNN.json")]
        assert Counter(read) == {tmp_path.name: 3, "chains": 3}  # every load checks the hash
        assert len(built) == 1
        assert len({id(artifact.chain) for artifact in loaded}) == 1

    def test_chain_is_freed_with_its_last_artifact(self, url_corpus, tmp_path, monkeypatch):
        self._two_families(url_corpus, tmp_path)
        built = self._count_builds(monkeypatch)
        a = load_pipeline(tmp_path / "KNN.json")
        b = load_pipeline(tmp_path / "LR.json")
        first = weakref.ref(a.chain)
        del a
        gc.collect()
        assert first() is b.chain  # still held by LR
        del b
        gc.collect()
        assert first() is None
        c = load_pipeline(tmp_path / "LR.json")
        assert len(built) == 2  # the next load builds a new chain
        assert c.predict(["http://a.example/x"])[1].shape == (1,)

    def test_tampered_or_missing_chain_refused_while_its_digest_is_alive(
        self, url_corpus, tmp_path
    ):
        urls, _ = url_corpus
        _, lr = self._two_families(url_corpus, tmp_path)
        alive = load_pipeline(tmp_path / "LR.json")
        (chain_file,) = (tmp_path / "chains").iterdir()
        original = chain_file.read_bytes()
        chain_file.write_bytes(original + b" ")  # same JSON, other bytes
        with pytest.raises(ArtifactError, match="SHA-256"):
            load_pipeline(tmp_path / "KNN.json")
        chain_file.unlink()
        with pytest.raises(ArtifactError, match="not found"):
            load_pipeline(tmp_path / "KNN.json")
        chain_file.write_bytes(original)
        assert load_pipeline(tmp_path / "KNN.json").chain is alive.chain
        assert np.array_equal(alive.predict(urls)[1], lr.predict(urls)[1])

    def test_saved_run_builds_its_chain_once_and_featurizes_once(
        self, url_corpus, tmp_path, monkeypatch
    ):
        urls, labels = url_corpus
        chain, X = fit_chain(urls, labels, top_k=34)  # a digest no other test saves
        for family in FAMILIES:
            artifact = PipelineArtifact(chain, fit_model(ModelSpec(family, {}), X, labels))
            save_pipeline(artifact, tmp_path / "models" / f"{family}.json")
        del artifact
        gc.collect()
        built = self._count_builds(monkeypatch)
        artifacts = _saved_artifacts(tmp_path, plan=None)  # no train summary to match
        assert list(artifacts) == list(FAMILIES)
        assert len(built) == 1
        calls = []
        featurize = PipelineArtifact.featurize
        monkeypatch.setattr(
            PipelineArtifact, "featurize", lambda self, u: calls.append(len(u)) or featurize(self, u)
        )
        reports = score_datasets(artifacts, {"d": (urls, labels)}, ["d"])
        assert len(reports) == len(FAMILIES)
        assert calls == [len(urls)]  # one dataset, one chain

    def test_wrong_tag_rejected(self, url_corpus, tmp_path):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        payload["artifact"] = "urlsleuth-model"
        write_json_atomic(payload, path)
        with pytest.raises(ArtifactError):
            load_pipeline(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6, 7, 99])
    def test_wrong_version_rejected(self, url_corpus, tmp_path, version):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        payload["format_version"] = version
        write_json_atomic(payload, path)
        with pytest.raises(ArtifactError, match="unsupported pipeline artifact version"):
            load_pipeline(path)

    @pytest.mark.parametrize("field", ["artifact", "format_version"])
    def test_missing_header_field_rejected(self, url_corpus, tmp_path, field):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        del payload[field]
        write_json_atomic(payload, path)
        with pytest.raises(ArtifactError) as raised:
            load_pipeline(path)
        assert str(raised.value) == f"artifact is missing the {field!r} field"

    def test_missing_field_rejected(self, url_corpus, tmp_path):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        del payload["model"]["state"]
        write_json_atomic(payload, path)
        with pytest.raises(ArtifactError, match="malformed"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "reference",
        ["../../x", "", "UPPER", 12345, None],
        ids=["path-traversal", "empty", "uppercase", "number", "missing"],
    )
    def test_chain_reference_must_be_a_digest(
        self, url_corpus, tmp_path, monkeypatch, reference
    ):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        if reference == "UPPER":
            reference = payload["chain"].upper()
        if reference is None:
            del payload["chain"]
        else:
            payload["chain"] = reference
        write_json_atomic(payload, path)
        opened = []  # only the model file is read, nothing outside or inside chains/
        read_bytes = pathlib.Path.read_bytes
        monkeypatch.setattr(
            pathlib.Path, "read_bytes", lambda self: opened.append(self) or read_bytes(self)
        )
        with pytest.raises(ArtifactError, match="64 lowercase hex digits"):
            load_pipeline(path)
        assert opened == [path]

    def test_missing_chain_file_rejected(self, url_corpus, tmp_path):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        (tmp_path / "chains" / f"{payload['chain']}.json").unlink()
        with pytest.raises(ArtifactError, match="not found"):
            load_pipeline(path)

    def test_chain_bytes_must_hash_to_its_name(self, url_corpus, tmp_path):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        chain_file = tmp_path / "chains" / f"{payload['chain']}.json"
        chain_file.write_bytes(chain_file.read_bytes() + b" ")  # same JSON, other bytes
        with pytest.raises(ArtifactError, match="SHA-256"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "field, value",
        [("benign", []), ("malicious", {"ab": 5}), ("order", "3")],
        ids=["benign-list", "malicious-counts-int", "order-str"],
    )
    def test_malformed_lm_rejected(self, url_corpus, tmp_path, field, value):
        path, payload, chain = self._saved(url_corpus, tmp_path)
        chain["lm"][field] = value
        write_artifact(payload, chain, path)
        with pytest.raises(ArtifactError, match="malformed"):
            load_pipeline(path)

    @pytest.mark.parametrize(
        "projected, cut",
        [
            (False, lambda d: d["selector"]["retained_indices"].__setitem__(-1, 99)),
            (False, lambda d: d["selector"].update(
                retained_indices=[i + 0.5 for i in d["selector"]["retained_indices"]])),
            (False, lambda d: d["selector"].update(
                retained_indices=[0] * len(d["selector"]["retained_indices"]))),
            (False, lambda d: d["scaler"].update(mean=d["scaler"]["mean"][:5])),
            (True, lambda d: d["projection"].update(
                components=[row[:-1] for row in d["projection"]["components"]])),
            (True, lambda d: d["projection"]["mean"].__setitem__(0, float("nan"))),
        ],
        ids=[
            "retained-index-99", "retained-index-fraction", "retained-index-duplicates",
            "scaler-mean-length-5", "projection-components-width", "projection-mean-nan",
        ],
    )
    def test_malformed_chain_rejected(self, url_corpus, tmp_path, projected, cut):
        path, payload, chain = self._saved(
            url_corpus, tmp_path, top_k=30, projection_variance=0.95 if projected else None
        )
        edit_arrays(chain, cut)
        write_artifact(payload, chain, path)
        with pytest.raises(ArtifactError):
            load_pipeline(path)

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "pipe.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ArtifactError):
            load_pipeline(path)

    def test_smoothing_constant_beyond_float_range_reported(self, url_corpus, tmp_path):
        """A chain whose LM ``k`` is an int too large for a float is refused
        as malformed, naming its file, not with an ``OverflowError``."""
        path, payload, chain = self._saved(url_corpus, tmp_path)
        chain["lm"]["k"] = 10**400
        write_artifact(payload, chain, path)
        chain_path = path.parent / "chains" / f"{json.loads(path.read_text())['chain']}.json"
        side = next(side for side in SIDES if side in chain["lm"])
        with pytest.raises(ArtifactError) as raised:
            load_pipeline(path)
        assert str(raised.value) == (
            f"feature chain {chain_path} is malformed: {side} smoothing constant must be "
            f"a finite number > 0.0, got {10**400!r}"
        )

    def test_stale_catalog_rejected_at_load(self, url_corpus, tmp_path):
        path, payload, _ = self._saved(url_corpus, tmp_path)
        payload["catalog_version"] = "lex78-v0"
        write_json_atomic(payload, path)
        with pytest.raises(CatalogMismatchError, match="lex78-v0"):
            load_pipeline(path)


# Arbitrary Unicode (lone surrogates and control characters included),
# IPv6 literals and URL pieces, repeated up to 32 KB.
_FUZZ_PIECES = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=24),
    st.sampled_from([
        "http://[::1]:8080/", "https://[2001:db8::1]/a?b=c", "http://[fe80::1%25eth0]/",
        "\x00\x01\x07\x1b\x7f", "\t\x0b\x0c\x85\u2028", "%%41%4", "xn--p1ai", "http://1.2.3.4/",
    ]),
)
_FUZZ_URL = st.builds(
    lambda pieces, copies: ("".join(pieces) * copies)[: 32 * 1024],
    st.lists(_FUZZ_PIECES, max_size=6),
    st.integers(1, 1 << 12),
)


@pytest.fixture(scope="module")
def fuzz_artifacts(url_corpus):
    urls, labels = url_corpus
    return {
        family: fit_artifact(urls, labels, ModelSpec(family=family, hyperparameters=hp, seed=0))
        for family, hp in (("LR", {"n_iters": 60}), ("KNN", {"k": 5}))
    }


class TestPredictFuzz:
    """``predict`` is total on any string a user can send, and a URL's
    score does not depend on the batch it comes in."""

    @given(st.lists(_FUZZ_URL, min_size=1, max_size=5), st.randoms(use_true_random=False))
    @example(["http://a.com:" + "1" * 5000 + "/x", "?"], random.Random(0))  # beyond int()'s digits
    @settings(max_examples=40, deadline=None)
    def test_scores_are_finite_and_batch_independent(self, fuzz_artifacts, urls, rng):
        order = list(range(len(urls)))
        rng.shuffle(order)
        for artifact in fuzz_artifacts.values():
            labels, scores = artifact.predict(urls)
            assert np.all(np.isfinite(scores))
            assert np.all((scores >= 0.0) & (scores <= 1.0))
            assert np.array_equal(labels, (scores >= 0.5).astype(np.int64))
            singles = np.array([artifact.predict([url])[1][0] for url in urls])
            np.testing.assert_allclose(scores, singles, rtol=0, atol=1e-12)
            shuffled = artifact.predict([urls[i] for i in order])[1]
            np.testing.assert_allclose(shuffled, scores[order], rtol=0, atol=1e-12)
