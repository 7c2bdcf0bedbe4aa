"""CART decision trees with exact-histogram Gini splitting.

The building block of the Random Forest.  ``fit`` bins every feature
once into its sorted distinct values, so each row carries an integer
code per feature (the forest bins once and shares the codes across its
trees).  At a node, one ``bincount`` over ``code * n_classes + label``
gives the class counts per distinct value; a node holding far fewer
rows than the feature has distinct values counts from its own sorted
codes instead.  Per-class prefix sums over the values present in the
node then give the Gini impurity of every threshold between neighbouring
values, in O(values present) rather than O(rows).

The search is exact: it scores the same candidates with the same float
expression as sorting the node's rows would, so trees, thresholds and
the feature-subsampling random stream do not depend on the binning.
"""

from __future__ import annotations

import numpy as np

from repro.ml.preprocessing import NotFittedError

#: A node counts from its own sorted codes when the feature has more
#: than this many distinct values per row in the node.
_SORTED_ABOVE = 8


class _Node:
    """One tree node (internal or leaf)."""

    __slots__ = ("feature", "threshold", "left", "right", "prediction", "counts")

    def __init__(self) -> None:
        self.feature: int = -1
        self.threshold: float = 0.0
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.prediction: int = 0
        self.counts: np.ndarray | None = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _check_fit_inputs(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X must be 2-D and aligned with y")
    if not np.isfinite(X).all():
        raise ValueError("X contains NaN or infinity")
    return X, y


def _bin_features(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per-feature sorted distinct values, and each row's code into them.

    Codes are feature-major, shape ``(n_features, n_samples)``.
    """
    codes = np.empty((X.shape[1], len(X)), dtype=np.intp)
    values = []
    for feature in range(X.shape[1]):
        distinct, codes[feature] = np.unique(X[:, feature], return_inverse=True)
        values.append(distinct)
    return codes, values


def _value_class_counts(
    codes: np.ndarray, y: np.ndarray, n_values: int, n_classes: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct codes present in a node (ascending), their row counts,
    and their class counts ``(n_present, n_classes)``."""
    if n_values <= _SORTED_ABOVE * len(codes):
        sizes = np.bincount(codes, minlength=n_values)
        present = np.flatnonzero(sizes)
        counts = np.bincount(codes * n_classes + y, minlength=n_values * n_classes)
        return present, sizes[present], counts.reshape(n_values, n_classes)[present]
    # np.unique(codes, return_inverse=True) spelled out: at small node
    # sizes its Python-level overhead would cost more than the counting.
    ordered = np.sort(codes)
    first = np.empty(len(codes), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    present = ordered[first]
    inverse = present.searchsorted(codes)
    sizes = np.bincount(inverse, minlength=len(present))
    counts = np.bincount(inverse * n_classes + y, minlength=len(present) * n_classes)
    return present, sizes, counts.reshape(len(present), n_classes)


def _best_boundary(
    sizes: np.ndarray, counts: np.ndarray, total: np.ndarray, min_samples_leaf: int
) -> tuple[float, int] | None:
    """Best (negative weighted Gini, boundary) over a node's distinct values.

    ``sizes`` and ``counts`` are the rows and class counts per value,
    ``total`` the node's class counts.  Boundary ``i`` sends the first
    ``i + 1`` values left.  The score is the *negative weighted Gini*
    (higher is better) so callers can compare across features without
    re-deriving parent impurity.
    """
    n = int(sizes.sum())
    n_left = sizes[:-1].cumsum()
    # n_left rises strictly, so the boundaries leaving min_samples_leaf
    # rows on each side form one contiguous run.
    lo = int(n_left.searchsorted(min_samples_leaf, side="left"))
    hi = int(n_left.searchsorted(n - min_samples_leaf, side="right"))
    if lo >= hi:
        return None
    left_counts = counts[:hi].cumsum(axis=0)[lo:]
    right_counts = total - left_counts
    n_left = n_left[lo:hi]
    n_right = n - n_left
    gini_left = 1.0 - ((left_counts / n_left[:, None]) ** 2).sum(axis=1)
    gini_right = 1.0 - ((right_counts / n_right[:, None]) ** 2).sum(axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    best = int(weighted.argmin())
    return -float(weighted[best]), lo + best


class DecisionTreeClassifier:
    """A binary-split CART classifier.

    Parameters mirror scikit-learn: ``max_depth``, ``min_samples_split``,
    ``min_samples_leaf``, and ``max_features`` (``None``, an int, or
    ``"sqrt"`` for the forest's per-node feature subsampling).
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | str | None = None,
        random_state: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: _Node | None = None
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self.node_count_: int = 0

    def _n_candidate_features(self, n_features: int) -> int:
        if self.max_features is None:
            return n_features
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        return min(int(self.max_features), n_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X, y = _check_fit_inputs(X, y)
        codes, values = _bin_features(X)
        return self._fit_binned(codes, values, y, int(y.max()) + 1 if y.size else 1)

    def _fit_binned(
        self, codes: np.ndarray, values: list[np.ndarray], y: np.ndarray, n_classes: int
    ) -> "DecisionTreeClassifier":
        """Grow the tree from feature-major ``codes`` into ``values``."""
        self.n_classes_ = n_classes
        self.n_features_ = len(values)
        self.node_count_ = 0
        rng = np.random.default_rng(self.random_state)
        self.root_ = self._build(codes, values, y, np.arange(len(y)), depth=0, rng=rng)
        return self

    def _build(
        self,
        codes: np.ndarray,
        values: list[np.ndarray],
        labels: np.ndarray,
        rows: np.ndarray,
        depth: int,
        rng,
    ) -> _Node:
        node = _Node()
        self.node_count_ += 1
        y = labels[rows]
        total = np.bincount(y, minlength=self.n_classes_)
        counts = node.counts = total.astype(float)
        node.prediction = int(np.argmax(counts))
        n = len(rows)
        pure = counts.max() == n
        too_deep = self.max_depth is not None and depth >= self.max_depth
        if pure or too_deep or n < self.min_samples_split:
            return node
        k = self._n_candidate_features(self.n_features_)
        features = (
            np.arange(self.n_features_)
            if k == self.n_features_
            else rng.choice(self.n_features_, size=k, replace=False)
        )
        best_score = -np.inf
        best = None
        for feature in features:
            column = codes[feature][rows]
            distinct = values[feature]
            present, sizes, value_counts = _value_class_counts(
                column, y, len(distinct), self.n_classes_
            )
            result = _best_boundary(sizes, value_counts, total, self.min_samples_leaf)
            if result is not None and result[0] > best_score:
                best_score, boundary = result
                low, high = distinct[present[boundary]], distinct[present[boundary + 1]]
                best = int(feature), float(0.5 * (low + high)), column
        if best is None:
            return node
        node.feature, node.threshold, column = best
        # values[code] <= threshold, in code space (values are sorted).
        mask = column < np.searchsorted(values[node.feature], node.threshold, side="right")
        node.left = self._build(codes, values, labels, rows[mask], depth + 1, rng)
        node.right = self._build(codes, values, labels, rows[~mask], depth + 1, rng)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted class for each row."""
        proba = self.predict_proba(X)
        return np.argmax(proba, axis=1)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-frequency estimates for each row."""
        if self.root_ is None:
            raise NotFittedError("DecisionTreeClassifier.predict before fit")
        X = np.asarray(X, dtype=float)
        out = np.zeros((len(X), self.n_classes_))
        # Iterative mask-based traversal: each (node, indices) pair routes
        # its rows left/right in one vectorised comparison.
        stack: list[tuple[_Node, np.ndarray]] = [(self.root_, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                assert node.counts is not None
                total = node.counts.sum()
                out[idx] = node.counts / total if total else 0.0
                continue
            mask = X[idx, node.feature] <= node.threshold
            assert node.left is not None and node.right is not None
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    @property
    def depth_(self) -> int:
        """Actual depth of the fitted tree."""
        if self.root_ is None:
            raise NotFittedError("tree not fitted")

        def depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            assert node.left is not None and node.right is not None
            return 1 + max(depth(node.left), depth(node.right))

        return depth(self.root_)
