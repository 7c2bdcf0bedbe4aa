"""From-scratch machine learning (the scikit-learn / TensorFlow substitute).

Implements every model the paper evaluates — Random Forest
(:mod:`repro.ml.random_forest`), K-Means with k-means++ seeding
(:mod:`repro.ml.kmeans`), and a 1-D CNN with Adam (:mod:`repro.ml.cnn`) —
plus the future-work models from §V (linear SVM, Isolation Forest,
autoencoder) and the §VI federated learning emulation
(:mod:`repro.ml.federated`).  Shared infrastructure:
classification metrics (:mod:`repro.ml.metrics`), scalers and splits
(:mod:`repro.ml.preprocessing`), and PKL persistence with size metering
(:mod:`repro.ml.serialization`).
"""

from repro.ml.autoencoder import AutoencoderDetector
from repro.ml.cnn import CnnClassifier, Sequential
from repro.ml.isolation_forest import IsolationForestDetector
from repro.ml.kmeans import KMeans, KMeansDetector
from repro.ml.metrics import (
    ClassificationReport,
    accuracy_score,
    confusion_matrix,
    evaluate_classifier,
    f1_score,
    precision_score,
    recall_score,
)
from repro.ml.preprocessing import StandardScaler, train_test_split
from repro.ml.random_forest import RandomForestClassifier
from repro.ml.serialization import (
    ModelBundle,
    load_model,
    load_model_bundle,
    model_size_kb,
    save_model,
    save_model_bundle,
)
from repro.ml.svm import LinearSVM
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "AutoencoderDetector",
    "ClassificationReport",
    "CnnClassifier",
    "DecisionTreeClassifier",
    "IsolationForestDetector",
    "KMeans",
    "KMeansDetector",
    "LinearSVM",
    "ModelBundle",
    "RandomForestClassifier",
    "Sequential",
    "StandardScaler",
    "accuracy_score",
    "confusion_matrix",
    "evaluate_classifier",
    "f1_score",
    "load_model",
    "load_model_bundle",
    "model_size_kb",
    "precision_score",
    "recall_score",
    "save_model",
    "save_model_bundle",
    "train_test_split",
]
