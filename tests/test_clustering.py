"""Convergence and labeling tests for the unsupervised detectors."""

from __future__ import annotations

import numpy as np
import pytest

from urlsleuth.errors import ModelError
from urlsleuth.models.clustering import (
    GaussianMixtureDetector,
    KMeansDetector,
    _kmeans_plus_plus,
)


def two_clouds(seed: int = 0, n: int = 40):
    rng = np.random.default_rng(seed)
    x0 = rng.normal(loc=-3.0, scale=0.5, size=(n, 3))
    x1 = rng.normal(loc=3.0, scale=0.5, size=(n, 3))
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)])
    return x, y


class TestKMeans:
    @pytest.mark.parametrize("seed", range(25))
    def test_inertia_never_increases(self, seed):
        rng = np.random.default_rng(seed + 100)
        x = rng.normal(size=(60, 4))
        y = (rng.random(60) > 0.5).astype(np.int64)
        clf = KMeansDetector(n_clusters=3, seed=seed).fit(x, y)
        hist = clf.inertia_history_
        assert len(hist) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_separated_clouds_get_pure_clusters(self):
        x, y = two_clouds(seed=1)
        clf = KMeansDetector(n_clusters=2, seed=0).fit(x, y)
        assert sorted((clf.cluster_fractions_ >= 0.5).astype(int).tolist()) == [0, 1]
        assert np.array_equal(clf.score_batch(x) >= 0.5, y)

    def test_score_is_majority_fraction_of_assigned_cluster(self):
        x, y = two_clouds(seed=2)
        clf = KMeansDetector(n_clusters=2, seed=0).fit(x, y)
        scores = clf.score_batch(x)
        assert set(np.round(scores, 6)) <= {0.0, 1.0}

    def test_more_clusters_than_distinct_points_trips_reseed(self):
        # Nine copies of two locations with k=3 forces an empty cluster on
        # the first assignment, exercising the farthest-point reseed.
        x = np.array([[0.0, 0.0]] * 9 + [[5.0, 5.0]] * 9)
        y = np.array([0] * 9 + [1] * 9)
        clf = KMeansDetector(n_clusters=3, seed=0).fit(x, y)
        hist = clf.inertia_history_
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))
        assert np.array_equal(clf.score_batch(x) >= 0.5, y)

    def test_k_larger_than_n_rejected(self):
        x = np.ones((3, 2))
        with pytest.raises(ModelError):
            KMeansDetector(n_clusters=5).fit(x, np.array([0, 1, 0]))

    def test_max_iter_one_still_fits(self):
        x, y = two_clouds(seed=3)
        clf = KMeansDetector(n_clusters=2, max_iter=1, seed=0).fit(x, y)
        assert len(clf.inertia_history_) == 1
        assert clf.score_batch(x).shape == (len(x),)

    def test_invalid_constructor_args(self):
        with pytest.raises(ModelError):
            KMeansDetector(n_clusters=0)
        with pytest.raises(ModelError):
            KMeansDetector(max_iter=0)

    def test_seeding_picks_distinct_training_points(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(30, 2))
        centers = _kmeans_plus_plus(x, 4, rng)
        assert centers.shape == (4, 2)
        assert len({tuple(c) for c in centers.tolist()}) == 4


class TestGaussianMixture:
    @pytest.mark.parametrize("seed", range(25))
    def test_loglik_never_decreases(self, seed):
        rng = np.random.default_rng(seed + 200)
        x = rng.normal(size=(60, 3))
        y = (rng.random(60) > 0.5).astype(np.int64)
        clf = GaussianMixtureDetector(n_components=3, seed=seed).fit(x, y)
        hist = clf.loglik_history_
        assert len(hist) >= 1
        assert all(b >= a - 1e-7 * max(1.0, abs(a)) for a, b in zip(hist, hist[1:]))

    def test_separated_clouds_recovered(self):
        x, y = two_clouds(seed=4)
        clf = GaussianMixtureDetector(n_components=2, seed=0).fit(x, y)
        assert sorted((clf.component_fractions_ >= 0.5).astype(int).tolist()) == [0, 1]
        assert np.array_equal(clf.score_batch(x) >= 0.5, y)

    def test_score_is_posterior_mass_on_malicious_components(self):
        x, y = two_clouds(seed=5)
        clf = GaussianMixtureDetector(n_components=2, seed=0).fit(x, y)
        scores = clf.score_batch(x)
        assert np.all((scores >= 0.0) & (scores <= 1.0))
        assert np.all(scores[y == 1] > 0.99)
        assert np.all(scores[y == 0] < 0.01)

    def test_convergence_tolerance_stops_early(self):
        x, y = two_clouds(seed=6)
        clf = GaussianMixtureDetector(n_components=2, tol=1e-3, seed=0).fit(x, y)
        assert len(clf.loglik_history_) < 100

    def test_duplicate_points_survive_variance_floor(self):
        x = np.array([[1.0, 1.0]] * 10 + [[4.0, 4.0]] * 10)
        y = np.array([0] * 10 + [1] * 10)
        clf = GaussianMixtureDetector(n_components=2, seed=0).fit(x, y)
        assert np.all(np.isfinite(clf.score_batch(x)))
        assert np.array_equal(clf.score_batch(x) >= 0.5, y)

    def test_invalid_constructor_args(self):
        with pytest.raises(ModelError):
            GaussianMixtureDetector(n_components=0)
        with pytest.raises(ModelError):
            GaussianMixtureDetector(max_iter=0)

    def test_components_exceeding_rows_rejected(self):
        x = np.ones((3, 2))
        with pytest.raises(ModelError):
            GaussianMixtureDetector(n_components=5).fit(x, np.array([0, 1, 0]))


class TestLabelAdvisoryRole:
    """Labels only name clusters after the fact; they must not move geometry."""

    def test_kmeans_centers_ignore_labels(self):
        x, y = two_clouds(seed=7)
        a = KMeansDetector(n_clusters=2, seed=3).fit(x, y)
        b = KMeansDetector(n_clusters=2, seed=3).fit(x, 1 - y)
        np.testing.assert_array_equal(a.centers_, b.centers_)
        np.testing.assert_array_equal(a.score_batch(x) >= 0.5, b.score_batch(x) < 0.5)

    def test_gmm_means_ignore_labels(self):
        x, y = two_clouds(seed=8)
        a = GaussianMixtureDetector(n_components=2, seed=3).fit(x, y)
        b = GaussianMixtureDetector(n_components=2, seed=3).fit(x, 1 - y)
        np.testing.assert_array_equal(a.means_, b.means_)
