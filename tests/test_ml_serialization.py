"""Round-trip tests for model persistence (PKL files + pipeline bundles).

The paper saves each trained model to a PKL file; the staged pipeline
additionally bundles the scaler and feature-extractor configuration.
All three paper models (RF, K-Means, CNN) must predict identically
after a save/load round-trip.
"""

import numpy as np
import pytest

from repro.features.pipeline import FeatureExtractor
from repro.ml import (
    CnnClassifier,
    KMeansDetector,
    ModelBundle,
    RandomForestClassifier,
    StandardScaler,
    load_model,
    load_model_bundle,
    save_model,
    save_model_bundle,
)


def make_dataset(seed=3, n=160, d=6):
    """Two well-separated classes so every model family converges."""
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n // 2, d))
    X1 = rng.normal(4.0, 1.0, size=(n // 2, d))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    order = rng.permutation(n)
    return X[order], y[order]


def fitted_models():
    X, y = make_dataset()
    rf = RandomForestClassifier(n_estimators=10, random_state=0)
    rf.fit(X, y)
    km = KMeansDetector(n_clusters=4, random_state=0)
    km.fit(X, y)
    cnn = CnnClassifier(n_features=X.shape[1], epochs=2, random_state=0)
    cnn.fit(X, y)
    return X, [("RF", rf), ("K-Means", km), ("CNN", cnn)]


class TestSaveLoadModel:
    @pytest.fixture(scope="class")
    def models(self):
        return fitted_models()

    def test_all_paper_models_roundtrip(self, models, tmp_path):
        X, trained = models
        for name, model in trained:
            path = tmp_path / f"{name}.pkl"
            size = save_model(model, path)
            assert size > 0 and path.stat().st_size == size
            restored = load_model(path)
            np.testing.assert_array_equal(
                restored.predict(X), model.predict(X),
                err_msg=f"{name} predictions changed after round-trip",
            )


class TestModelBundle:
    def test_bundle_roundtrip_with_scaler(self, tmp_path):
        X, y = make_dataset(seed=9)
        scaler = StandardScaler().fit(X)
        model = RandomForestClassifier(n_estimators=8, random_state=1)
        model.fit(scaler.transform(X), y)
        extractor = FeatureExtractor(window_seconds=2.0, stat_set="normalized")
        bundle = ModelBundle(
            model=model,
            scaler=scaler,
            extractor_config=extractor.to_config(),
            metadata={"name": "RF", "fit_seconds": 0.5},
        )
        save_model_bundle(bundle, tmp_path / "rf")
        restored = load_model_bundle(tmp_path / "rf")
        np.testing.assert_array_equal(
            restored.model.predict(restored.scaler.transform(X)),
            model.predict(scaler.transform(X)),
        )
        np.testing.assert_allclose(restored.scaler.transform(X), scaler.transform(X))
        assert restored.metadata == {"name": "RF", "fit_seconds": 0.5}
        rebuilt = FeatureExtractor.from_config(restored.extractor_config)
        assert rebuilt.feature_names == extractor.feature_names
        assert rebuilt.window_seconds == 2.0

    def test_bundle_without_scaler(self, tmp_path):
        X, y = make_dataset(seed=11)
        model = RandomForestClassifier(n_estimators=5, random_state=2)
        model.fit(X, y)
        save_model_bundle(ModelBundle(model=model), tmp_path / "bare")
        restored = load_model_bundle(tmp_path / "bare")
        assert restored.scaler is None
        assert restored.extractor_config is None
        assert restored.metadata == {}
        np.testing.assert_array_equal(restored.model.predict(X), model.predict(X))
