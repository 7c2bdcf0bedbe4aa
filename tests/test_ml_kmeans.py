"""Tests for KMeans and the cluster-labelling detector."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import KMeans, KMeansDetector, accuracy_score
from repro.ml import kmeans as kmeans_module
from repro.ml.kmeans import _Rows, _cluster_means, _kmeans_pp_init, _pairwise_sq_dists
from repro.ml.preprocessing import NotFittedError


def blobs(k=3, n_per=60, d=2, sep=8.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-sep, sep, (k, d))
    X = np.vstack([rng.normal(c, 0.5, (n_per, d)) for c in centers])
    labels = np.repeat(np.arange(k), n_per)
    return X, labels, centers


def loop_means(X, labels, centers):
    """The per-cluster loop the bincount update replaced (the reference)."""
    new_centers = centers.copy()
    for cluster in range(len(centers)):
        members = X[labels == cluster]
        if len(members):
            new_centers[cluster] = members.mean(axis=0)
    return new_centers


class OracleRows(_Rows):
    """Distances recomputed from X on every call, as the fits did."""

    def sq_dists(self, centers):
        return _pairwise_sq_dists(self.X, centers)


def wide_data(n=3000, d=19, seed=20):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, d))


class TestFitKernelsMatchReference:
    @pytest.mark.parametrize("d", [2, 19])
    def test_cluster_means_match_member_mean_loop(self, d):
        rng = np.random.default_rng(21)
        X = wide_data(10_948, d)
        centers = rng.normal(size=(40, d))
        labels = rng.integers(0, 40, size=len(X))
        labels[labels == 7] = 8  # cluster 7 is empty and keeps its centre
        new_centers = _cluster_means(X, labels, centers)
        assert new_centers.tobytes() == loop_means(X, labels, centers).tobytes()
        assert new_centers[7].tobytes() == centers[7].tobytes()

    def test_one_column_means_within_summation_bound(self):
        # numpy's mean sums one column pairwise, bincount in row order.
        # Each sum of m terms lies within (m - 1) * eps / 2 * sum|x| of the
        # exact one, so the means lie within eps * sum|x| of each other,
        # plus a rounding of eps / 2 * |mean| for each division.
        rng = np.random.default_rng(22)
        X = wide_data(5_000, 1)
        labels = rng.integers(0, 5, size=len(X))
        centers = np.zeros((5, 1))
        new_centers = _cluster_means(X, labels, centers)
        eps = np.finfo(float).eps
        for c in range(5):
            members = np.abs(X[labels == c, 0])
            bound = 2 * eps * members.sum()
            assert abs(new_centers[c, 0] - loop_means(X, labels, centers)[c, 0]) <= bound

    def test_rows_match_pairwise_distances(self):
        X = wide_data()
        centers = np.random.default_rng(23).normal(size=(40, 19))
        for subset in (centers[:1], centers):
            assert _Rows(X).sq_dists(subset).tobytes() == _pairwise_sq_dists(X, subset).tobytes()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: KMeans(n_clusters=40, random_state=3),
            lambda: KMeans(n_clusters=8, random_state=3),
        ],
    )
    def test_fits_match_reference_fits(self, make, monkeypatch):
        X = wide_data()
        fast = make().fit(X)
        monkeypatch.setattr(kmeans_module, "_cluster_means", loop_means)
        monkeypatch.setattr(kmeans_module, "_Rows", OracleRows)
        reference = make().fit(X)
        assert fast.n_iter_ == reference.n_iter_ > 1
        assert fast.cluster_centers_.tobytes() == reference.cluster_centers_.tobytes()
        assert fast.labels_.tobytes() == reference.labels_.tobytes()
        assert fast.inertia_ == reference.inertia_


class TestDistances:
    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (10, 3))
        C = rng.normal(0, 1, (4, 3))
        fast = _pairwise_sq_dists(X, C)
        naive = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_allclose(fast, naive, atol=1e-9)

    def test_nonnegative(self):
        X = np.array([[1e8, 1e8]])
        np.testing.assert_array_equal(_pairwise_sq_dists(X, X) >= 0, True)


class TestKMeansPlusPlus:
    def test_returns_k_centers_from_data_region(self):
        X, _, _ = blobs()
        centers = _kmeans_pp_init(_Rows(X), 3, np.random.default_rng(1))
        assert centers.shape == (3, 2)


class TestKMeans:
    def test_recovers_separated_blobs(self):
        X, true_labels, _ = blobs(k=3, seed=1)
        km = KMeans(n_clusters=3, random_state=0).fit(X)
        # each true blob maps to exactly one cluster
        for blob in range(3):
            members = km.labels_[true_labels == blob]
            assert len(np.unique(members)) == 1

    def test_inertia_decreases_with_more_clusters(self):
        X, _, _ = blobs(k=4, seed=2)
        inertia = [
            KMeans(n_clusters=k, random_state=0).fit(X).inertia_ for k in (1, 2, 4)
        ]
        assert inertia[0] > inertia[1] > inertia[2]

    def test_predict_assigns_nearest_centroid(self):
        X, _, _ = blobs(k=2, seed=3)
        km = KMeans(n_clusters=2, random_state=0).fit(X)
        preds = km.predict(X)
        dists = _pairwise_sq_dists(X, km.cluster_centers_)
        np.testing.assert_array_equal(preds, np.argmin(dists, axis=1))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=5).fit(np.zeros((3, 2)))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KMeans().predict(np.zeros((2, 2)))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_property_labels_in_range_and_deterministic(self, seed):
        X, _, _ = blobs(k=2, n_per=30, seed=seed)
        a = KMeans(n_clusters=2, random_state=42).fit(X)
        b = KMeans(n_clusters=2, random_state=42).fit(X)
        np.testing.assert_array_equal(a.labels_, b.labels_)
        assert set(np.unique(a.labels_)) <= {0, 1}


class TestKMeansDetector:
    def test_classifies_separated_classes(self):
        X, true_labels, _ = blobs(k=2, sep=10.0, seed=8)
        y = (true_labels == 1).astype(int)
        detector = KMeansDetector(random_state=0).fit(X, y)
        assert accuracy_score(y, detector.predict(X)) > 0.95

    def test_fixed_k_mode(self):
        X, true_labels, _ = blobs(k=2, sep=10.0, seed=9)
        y = (true_labels == 1).astype(int)
        detector = KMeansDetector(n_clusters=4, random_state=0).fit(X, y)
        assert detector.n_clusters_ == 4
        assert accuracy_score(y, detector.predict(X)) > 0.95

    def test_cluster_labels_are_binary(self):
        X, true_labels, _ = blobs(k=3, seed=10)
        y = (true_labels > 0).astype(int)
        detector = KMeansDetector(random_state=0).fit(X, y)
        assert set(np.unique(detector.cluster_labels_)) <= {0, 1}

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            KMeansDetector().predict(np.zeros((2, 2)))

    def test_handles_multimodal_classes(self):
        """Each class made of several blobs - needs multiple clusters."""
        X1, _, _ = blobs(k=2, sep=12.0, seed=11)
        X2, _, _ = blobs(k=2, sep=12.0, seed=12)
        X = np.vstack([X1, X2 + 100.0])
        y = np.array([0] * len(X1) + [1] * len(X2))
        detector = KMeansDetector(n_clusters=16, random_state=0).fit(X, y)
        assert accuracy_score(y, detector.predict(X)) > 0.95
