"""Tests for decision trees and the random forest."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, accuracy_score
from repro.ml.preprocessing import NotFittedError
from repro.ml.tree import _SORTED_ABOVE, _Node, _value_class_counts


# --- Oracle: the per-node sort-based split search the histogram replaced.


def _sort_split(x, y_onehot, min_samples_leaf):
    order = np.argsort(x, kind="stable")
    x_sorted = x[order]
    n = len(x_sorted)
    cum = np.cumsum(y_onehot[order], axis=0)
    total = cum[-1]
    left_counts = cum[:-1]
    right_counts = total - left_counts
    n_left = np.arange(1, n)
    n_right = n - n_left
    valid = x_sorted[1:] != x_sorted[:-1]
    valid &= (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    if not valid.any():
        return None
    gini_left = 1.0 - np.sum((left_counts / n_left[:, None]) ** 2, axis=1)
    gini_right = 1.0 - np.sum((right_counts / n_right[:, None]) ** 2, axis=1)
    weighted = (n_left * gini_left + n_right * gini_right) / n
    weighted[~valid] = np.inf
    best = int(np.argmin(weighted))
    if not np.isfinite(weighted[best]):
        return None
    threshold = 0.5 * (x_sorted[best] + x_sorted[best + 1])
    return -float(weighted[best]), float(threshold)


def _sort_build(tree, X, y_onehot, depth, rng):
    node = _Node()
    tree.node_count_ += 1
    counts = y_onehot.sum(axis=0)
    node.counts = counts
    node.prediction = int(np.argmax(counts))
    n = len(X)
    pure = counts.max() == n
    too_deep = tree.max_depth is not None and depth >= tree.max_depth
    if pure or too_deep or n < tree.min_samples_split:
        return node
    k = tree._n_candidate_features(tree.n_features_)
    features = (
        np.arange(tree.n_features_)
        if k == tree.n_features_
        else rng.choice(tree.n_features_, size=k, replace=False)
    )
    best_score, best_feature, best_threshold = -np.inf, -1, 0.0
    for feature in features:
        result = _sort_split(X[:, feature], y_onehot, tree.min_samples_leaf)
        if result is not None and result[0] > best_score:
            best_score, best_threshold = result
            best_feature = int(feature)
    if best_feature < 0:
        return node
    mask = X[:, best_feature] <= best_threshold
    node.feature, node.threshold = best_feature, best_threshold
    node.left = _sort_build(tree, X[mask], y_onehot[mask], depth + 1, rng)
    node.right = _sort_build(tree, X[~mask], y_onehot[~mask], depth + 1, rng)
    return node


def sort_fit(tree, X, y, n_classes=None):
    """Fit ``tree`` with the sort-based split search; ``n_classes`` defaults to y's."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    tree.n_classes_ = n_classes or int(y.max()) + 1
    tree.n_features_ = X.shape[1]
    tree.node_count_ = 0
    y_onehot = np.zeros((len(y), tree.n_classes_))
    y_onehot[np.arange(len(y)), y] = 1.0
    tree.root_ = _sort_build(tree, X, y_onehot, 0, np.random.default_rng(tree.random_state))
    return tree


def sort_forest_trees(forest, X, y, n_classes=None):
    """The forest's trees grown by the oracle, bootstrap for bootstrap."""
    rng = np.random.default_rng(forest.random_state)
    trees = []
    for _ in range(forest.n_estimators):
        idx = rng.integers(0, len(X), size=len(X)) if forest.bootstrap else np.arange(len(X))
        tree = DecisionTreeClassifier(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=forest.max_features,
            random_state=int(rng.integers(0, 2**31)),
        )
        trees.append(sort_fit(tree, X[idx], y[idx], n_classes))
    return trees


def nodes(root):
    """Every node of a tree, preorder."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        if not node.is_leaf:
            stack.extend((node.right, node.left))


def preorder(root):
    """(feature, threshold bits, counts bits, prediction) per node, preorder."""
    return [
        (node.feature, np.float64(node.threshold).tobytes(), node.counts.dtype,
         node.counts.tobytes(), node.prediction)
        for node in nodes(root)
    ]


def assert_same_tree(tree, oracle):
    assert tree.n_classes_ == oracle.n_classes_
    assert tree.node_count_ == oracle.node_count_
    assert preorder(tree.root_) == preorder(oracle.root_)


@st.composite
def tied_datasets(draw):
    """Small datasets with heavy ties, constant and all-distinct columns."""
    n = draw(st.integers(2, 160))
    n_classes = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["constant", "ties", "distinct"]), min_size=1, max_size=5))
    columns = []
    for kind in kinds:
        if kind == "constant":
            columns.append(np.full(n, rng.normal()))
        elif kind == "ties":
            columns.append(rng.integers(0, draw(st.integers(2, 6)), n) * 0.25 - 0.5)
        else:  # as many values as rows: small nodes take the sorted-codes path
            columns.append(rng.normal(size=n))
    X = np.column_stack(columns)
    y = rng.integers(0, n_classes, n)
    y[: min(n, n_classes)] = np.arange(min(n, n_classes))
    return X, y


def xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, (n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


def gaussian_data(n=400, seed=0, d=5, sep=2.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0, 1, (n // 2, d))
    X1 = rng.normal(sep, 1, (n // 2, d))
    X = np.vstack([X0, X1])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    return X, y


class TestDecisionTree:
    def test_fits_training_data_exactly_when_unbounded(self):
        X, y = xor_data()
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy_score(y, tree.predict(X)) == 1.0

    def test_xor_needs_depth_two(self):
        X, y = xor_data()
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert accuracy_score(y, shallow.predict(X)) < 0.75
        assert accuracy_score(y, deep.predict(X)) > 0.95

    def test_max_depth_respected(self):
        X, y = xor_data()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.depth_ <= 3

    def test_min_samples_leaf(self):
        X, y = gaussian_data(100)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(X, y)

        def check(node):
            if node.is_leaf:
                assert node.counts.sum() >= 20 or node is tree.root_
            else:
                check(node.left)
                check(node.right)

        check(tree.root_)

    def test_pure_node_stops_splitting(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf
        assert tree.node_count_ == 1

    def test_constant_features_yield_leaf(self):
        X = np.ones((10, 3))
        y = np.array([0, 1] * 5)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.root_.is_leaf

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.zeros((2, 2)))

    def test_predict_proba_rows_sum_to_one(self):
        X, y = gaussian_data()
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = tree.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((3, 2)), np.zeros(4))

    def test_generalizes_on_held_out(self):
        X, y = gaussian_data(600, seed=1)
        tree = DecisionTreeClassifier(max_depth=6).fit(X[:400], y[:400])
        assert accuracy_score(y[400:], tree.predict(X[400:])) > 0.9

    @given(st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_property_prediction_matches_training_label_on_separable(self, seed):
        """On perfectly separable 1-D data the tree recovers the rule."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(-1, 1, (60, 1))
        y = (X[:, 0] > 0.1).astype(int)
        if len(np.unique(y)) < 2:
            return
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X, y = gaussian_data(40)
        X[7, 2] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            DecisionTreeClassifier().fit(X, y)


class TestHistogramSplitSearch:
    """The histogram split search grows the sort-based oracle's trees exactly."""

    @given(
        data=tied_datasets(),
        min_samples_leaf=st.sampled_from([1, 4, 20]),
        max_features=st.sampled_from([None, "sqrt"]),
        random_state=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_trees_match_sort_oracle(self, data, min_samples_leaf, max_features, random_state):
        X, y = data
        params = dict(
            min_samples_leaf=min_samples_leaf, max_features=max_features, random_state=random_state
        )
        tree = DecisionTreeClassifier(**params).fit(X, y)
        assert_same_tree(tree, sort_fit(DecisionTreeClassifier(**params), X, y))

    def test_both_counting_paths_agree(self):
        rng = np.random.default_rng(11)
        codes = rng.integers(0, 30, 50)
        y = rng.integers(0, 3, 50)
        n_values = int(codes.max()) + 1
        assert n_values <= _SORTED_ABOVE * len(codes)  # dense histogram
        dense = _value_class_counts(codes, y, n_values, 3)
        sparse = _value_class_counts(codes, y, _SORTED_ABOVE * len(codes) + 1, 3)  # sorted
        np.testing.assert_array_equal(dense[0], np.unique(codes))
        np.testing.assert_array_equal(dense[1], np.bincount(codes)[dense[0]])
        for a, b in zip(dense, sparse):
            np.testing.assert_array_equal(a, b)

    def test_forest_matches_sort_oracle_on_both_paths(self):
        rng = np.random.default_rng(12)
        n = 600
        X = np.column_stack([
            rng.normal(size=n),  # n distinct values: nodes under n/8 rows count sorted
            rng.integers(0, 5, n),
            np.full(n, 3.0),
            rng.integers(0, 40, n) * 0.1,
        ])
        y = ((X[:, 0] + 0.3 * X[:, 1] + rng.normal(0, 0.7, n)) > 0.5).astype(int)
        forest = RandomForestClassifier(n_estimators=6, max_depth=None, random_state=3).fit(X, y)
        # Split nodes this small count column 0 (n distinct values) sorted.
        assert any(
            not node.is_leaf and node.counts.sum() * _SORTED_ABOVE < n
            for tree in forest.trees_ for node in nodes(tree.root_)
        )
        for tree, oracle in zip(forest.trees_, sort_forest_trees(forest, X, y, 2)):
            assert_same_tree(tree, oracle)


class TestRandomForest:
    def test_outperforms_or_matches_single_stump(self):
        X, y = xor_data(600, seed=2)
        forest = RandomForestClassifier(n_estimators=20, max_depth=6, random_state=0)
        forest.fit(X[:400], y[:400])
        assert accuracy_score(y[400:], forest.predict(X[400:])) > 0.9

    def test_vote_is_majority(self):
        X, y = gaussian_data(300, seed=3)
        forest = RandomForestClassifier(n_estimators=5, max_depth=4).fit(X, y)
        votes = np.stack([tree.predict(X) for tree in forest.trees_])
        expected = (votes.sum(axis=0) > 2.5).astype(int)
        np.testing.assert_array_equal(forest.predict(X), expected)

    def test_deterministic_by_seed(self):
        X, y = gaussian_data(200, seed=4)
        a = RandomForestClassifier(n_estimators=5, random_state=7).fit(X, y)
        b = RandomForestClassifier(n_estimators=5, random_state=7).fit(X, y)
        np.testing.assert_array_equal(a.predict(X), b.predict(X))

    def test_different_seeds_differ(self):
        X, y = xor_data(200, seed=5)
        a = RandomForestClassifier(n_estimators=3, max_depth=2, random_state=1).fit(X, y)
        b = RandomForestClassifier(n_estimators=3, max_depth=2, random_state=2).fit(X, y)
        assert not np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestClassifier().predict(np.zeros((2, 2)))

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_proba_valid_distribution(self):
        X, y = gaussian_data(200, seed=6)
        forest = RandomForestClassifier(n_estimators=8, max_depth=5).fit(X, y)
        proba = forest.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()

    def test_total_nodes_counts_all_trees(self):
        X, y = gaussian_data(100, seed=7)
        forest = RandomForestClassifier(n_estimators=4, max_depth=3).fit(X, y)
        assert forest.total_nodes_ == sum(t.node_count_ for t in forest.trees_)
        assert forest.total_nodes_ >= 4

    def test_predict_proba_when_bootstrap_misses_a_class(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        y = np.zeros(40, dtype=int)
        y[17] = 1
        forest = RandomForestClassifier(n_estimators=20, random_state=0).fit(X, y)
        assert all(tree.n_classes_ == 2 for tree in forest.trees_)
        proba = forest.predict_proba(X)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)
        # predict is the vote of trees sized by their own bootstrap labels.
        self_sized = sort_forest_trees(forest, X, y)
        assert min(tree.n_classes_ for tree in self_sized) == 1
        votes = np.zeros((40, 2), dtype=int)
        for tree in self_sized:
            votes[np.arange(40), tree.predict(X)] += 1
        np.testing.assert_array_equal(forest.predict(X), np.argmax(votes, axis=1))

    @pytest.mark.parametrize(
        "X, y",
        [(np.zeros((3, 2)), np.zeros(4)), (np.zeros((4, 2)), np.zeros(3)), (np.zeros(4), np.zeros(4))],
    )
    def test_misaligned_inputs_rejected(self, X, y):
        with pytest.raises(ValueError, match="2-D and aligned"):
            RandomForestClassifier(n_estimators=2).fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        X, y = gaussian_data(40)
        X[3, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinity"):
            RandomForestClassifier(n_estimators=2).fit(X, y)
