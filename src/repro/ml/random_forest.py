"""Random Forest: bagged CART trees with per-node feature subsampling.

Follows the construction the paper describes (§IV-B): bootstrap-sampled
training sets per tree, random feature subsets per split, and majority
voting at prediction time.
"""

from __future__ import annotations

import numpy as np

from repro.ml.preprocessing import NotFittedError
from repro.ml.tree import DecisionTreeClassifier, _bin_features, _check_fit_inputs


class RandomForestClassifier:
    """An ensemble of :class:`DecisionTreeClassifier` with majority vote."""

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int | None = 12,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "sqrt",
        bootstrap: bool = True,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.trees_: list[DecisionTreeClassifier] = []
        self.n_classes_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = _check_fit_inputs(X, y)
        self.n_classes_ = int(y.max()) + 1
        codes, values = _bin_features(X)
        rng = np.random.default_rng(self.random_state)
        self.trees_ = []
        n = len(X)
        for i in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                random_state=int(rng.integers(0, 2**31)),
            )
            tree._fit_binned(codes[:, idx], values, y[idx], self.n_classes_)
            self.trees_.append(tree)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the trees' leaf class frequencies."""
        if not self.trees_:
            raise NotFittedError("RandomForestClassifier.predict before fit")
        X = np.asarray(X, dtype=float)
        proba = np.zeros((len(X), self.n_classes_))
        for tree in self.trees_:
            proba += tree.predict_proba(X)
        return proba / self.n_estimators

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote across trees."""
        if not self.trees_:
            raise NotFittedError("RandomForestClassifier.predict before fit")
        X = np.asarray(X, dtype=float)
        votes = np.zeros((len(X), self.n_classes_), dtype=int)
        for tree in self.trees_:
            predictions = tree.predict(X)
            votes[np.arange(len(X)), predictions] += 1
        return np.argmax(votes, axis=1)

    @property
    def total_nodes_(self) -> int:
        """Sum of node counts across trees (model-size proxy)."""
        return sum(tree.node_count_ for tree in self.trees_)
