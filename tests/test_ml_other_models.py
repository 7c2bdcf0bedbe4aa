"""Tests for SVM, Isolation Forest, serialization, and federated learning."""

import numpy as np
import pytest

from repro.ml import (
    CnnClassifier,
    IsolationForestDetector,
    LinearSVM,
    RandomForestClassifier,
    accuracy_score,
    load_model,
    model_size_kb,
    save_model,
)
from repro.ml.federated import FederatedClient, FederatedCoordinator, fedavg, shard_by_client
from repro.ml.isolation_forest import _average_path_length
from repro.ml.preprocessing import NotFittedError


def linear_data(n=400, d=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d))
    w = rng.normal(0, 1, d)
    y = (X @ w > 0).astype(int)
    return X, y


class TestLinearSVM:
    def test_learns_linear_boundary(self):
        X, y = linear_data()
        svm = LinearSVM(epochs=20, random_state=0).fit(X, y)
        assert accuracy_score(y, svm.predict(X)) > 0.95

    def test_decision_function_sign_matches_predict(self):
        X, y = linear_data(seed=1)
        svm = LinearSVM(epochs=5).fit(X, y)
        scores = svm.decision_function(X)
        np.testing.assert_array_equal(svm.predict(X), (scores >= 0).astype(int))

    def test_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            LinearSVM().predict(np.zeros((2, 2)))

    def test_weight_roundtrip(self):
        X, y = linear_data(seed=2)
        svm = LinearSVM(epochs=3).fit(X, y)
        weights = svm.get_weights()
        predictions = svm.predict(X)
        other = LinearSVM()
        other.set_weights(weights)
        np.testing.assert_array_equal(other.predict(X), predictions)


class TestIsolationForest:
    def test_average_path_length_known_values(self):
        assert _average_path_length(1) == 0.0
        assert _average_path_length(2) == 1.0
        assert _average_path_length(256) == pytest.approx(10.24, abs=0.3)

    def test_outliers_score_higher(self):
        rng = np.random.default_rng(0)
        inliers = rng.normal(0, 1, (400, 4))
        outliers = rng.normal(10, 0.5, (20, 4))
        forest = IsolationForestDetector(random_state=0).fit(inliers)
        assert forest.score_samples(outliers).mean() > forest.score_samples(inliers).mean()

    def test_supervised_threshold_calibration(self):
        rng = np.random.default_rng(1)
        benign = rng.normal(0, 1, (300, 4))
        attack = rng.normal(8, 1, (300, 4))
        X = np.vstack([benign, attack])
        y = np.array([0] * 300 + [1] * 300)
        forest = IsolationForestDetector(random_state=0).fit(X, y)
        assert accuracy_score(y, forest.predict(X)) > 0.9

    def test_contamination_controls_flag_rate(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (500, 3))
        forest = IsolationForestDetector(contamination=0.1, random_state=0).fit(X)
        assert forest.predict(X).mean() == pytest.approx(0.1, abs=0.05)

    def test_invalid_contamination(self):
        with pytest.raises(ValueError):
            IsolationForestDetector(contamination=0.0)

    def test_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            IsolationForestDetector().predict(np.zeros((2, 2)))


class TestSerialization:
    def test_roundtrip_preserves_predictions(self, tmp_path):
        X, y = linear_data(seed=3)
        model = RandomForestClassifier(n_estimators=5, max_depth=4).fit(X, y)
        path = tmp_path / "model.pkl"
        nbytes = save_model(model, path)
        assert nbytes == path.stat().st_size
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.predict(X), model.predict(X))

    def test_cnn_roundtrip(self, tmp_path):
        X, y = linear_data(n=100, d=12, seed=4)
        cnn = CnnClassifier(n_features=12, epochs=1, random_state=0).fit(X, y)
        path = tmp_path / "cnn.pkl"
        save_model(cnn, path)
        loaded = load_model(path)
        np.testing.assert_allclose(loaded.predict_proba(X), cnn.predict_proba(X))

    def test_model_size_excludes_caches(self):
        X, y = linear_data(n=2000, d=12, seed=5)
        cnn = CnnClassifier(n_features=12, epochs=1, random_state=0).fit(X, y)
        cnn.predict(X)  # populate forward caches
        weights_kb = sum(p.nbytes for p in cnn.net.params()) / 1000
        assert model_size_kb(cnn) < weights_kb * 1.5

    def test_kmeans_much_smaller_than_forest(self):
        """Table II's headline ordering: K-Means is the lightest model."""
        from repro.ml import KMeansDetector

        X, y = linear_data(n=800, d=10, seed=6)
        forest = RandomForestClassifier(n_estimators=20, max_depth=10).fit(X, y)
        kmeans = KMeansDetector(n_clusters=40, random_state=0).fit(X, y)
        assert model_size_kb(kmeans) < model_size_kb(forest) / 5


class TestFedAvg:
    def test_average_of_identical_is_identity(self):
        weights = [np.ones((2, 2)), np.zeros(3)]
        result = fedavg([weights, weights, weights])
        np.testing.assert_allclose(result[0], weights[0])
        np.testing.assert_allclose(result[1], weights[1])

    def test_unweighted_mean(self):
        a = [np.array([0.0])]
        b = [np.array([2.0])]
        np.testing.assert_allclose(fedavg([a, b])[0], [1.0])

    def test_sample_weighted_mean(self):
        a = [np.array([0.0])]
        b = [np.array([2.0])]
        np.testing.assert_allclose(fedavg([a, b], [3, 1])[0], [0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fedavg([])

    def test_misaligned_counts_rejected(self):
        with pytest.raises(ValueError):
            fedavg([[np.zeros(1)]], [1, 2])

    def test_shard_by_client(self):
        X = np.arange(6).reshape(6, 1)
        y = np.array([0, 0, 1, 1, 0, 1])
        ids = np.array([1, 2, 1, 2, 1, 2])
        shards = shard_by_client(X, y, ids)
        assert set(shards) == {1, 2}
        np.testing.assert_array_equal(shards[1][0].ravel(), [0, 2, 4])

    def test_federated_svm_converges(self):
        """FedAvg over three SVM clients approaches centralized accuracy."""
        X, y = linear_data(n=600, d=5, seed=7)
        shards = [(X[i::3], y[i::3]) for i in range(3)]

        def train(model, Xs, ys):
            model.fit(Xs, ys)

        base = LinearSVM(epochs=3, random_state=0).fit(X[:10], y[:10])
        clients = [
            FederatedClient(f"dev{i}", LinearSVM(epochs=3, random_state=i), Xs, ys, train)
            for i, (Xs, ys) in enumerate(shards)
        ]
        coordinator = FederatedCoordinator(clients, base.get_weights())

        def evaluate(weights):
            probe = LinearSVM()
            probe.set_weights(weights)
            return accuracy_score(y, probe.predict(X))

        coordinator.run(rounds=5, evaluate=evaluate)
        assert coordinator.rounds_completed == 5
        assert coordinator.round_history[-1] > 0.9
