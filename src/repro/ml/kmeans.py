"""K-Means clustering for the IDS.

Two layers:

* :class:`KMeans` — Lloyd iteration with k-means++ seeding;
* :class:`KMeansDetector` — the IDS adapter: clusters the training
  features, labels each cluster by its majority ground-truth class, and
  classifies new packets by nearest centroid.
"""

from __future__ import annotations

import numpy as np

from repro.ml.preprocessing import NotFittedError


def _pairwise_sq_dists(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, (n_samples, n_centers)."""
    x_sq = np.sum(X**2, axis=1)[:, None]
    c_sq = np.sum(centers**2, axis=1)[None, :]
    return np.maximum(x_sq + c_sq - 2.0 * X @ centers.T, 0.0)


class _Rows:
    """A fit's data ``X`` with the per-row terms of its distances computed
    once: ``sq`` is ``||x||^2`` as a column, ``twice`` is ``2.0 * X``.

    :meth:`sq_dists` rounds exactly as :func:`_pairwise_sq_dists`, which
    the predict path keeps: it frees ``2.0 * X`` before the subtraction,
    and so bounds a chunk's peak (Table II's memory column).
    """

    def __init__(self, X: np.ndarray) -> None:
        self.X = X
        self.sq = np.sum(X**2, axis=1)[:, None]
        self.twice = 2.0 * X

    def sq_dists(self, centers: np.ndarray) -> np.ndarray:
        c_sq = np.sum(centers**2, axis=1)[None, :]
        return np.maximum(self.sq + c_sq - self.twice @ centers.T, 0.0)


def _cluster_means(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Each centre moved to its members' mean; an empty cluster keeps its
    old centre.

    Per column, ``bincount`` sums each cluster's members in row order, as
    ``X[labels == c].mean(axis=0)`` does for two or more columns, so the
    two agree bit for bit there.  (With one column numpy's mean sums
    pairwise, and the two differ in the last bits.)
    """
    k = len(centers)
    counts = np.bincount(labels, minlength=k)
    filled = counts > 0
    new_centers = centers.copy()
    for j in range(X.shape[1]):
        sums = np.bincount(labels, weights=X[:, j], minlength=k)
        new_centers[filled, j] = sums[filled] / counts[filled]
    return new_centers


def _nearest_center(X: np.ndarray, centers: np.ndarray, chunk: int = 256) -> np.ndarray:
    """argmin over centers, computed in row chunks to bound the working set
    (Table II's memory column is the busiest window's peak)."""
    out = np.empty(len(X), dtype=int)
    for start in range(0, len(X), chunk):
        block = X[start : start + chunk]
        out[start : start + chunk] = np.argmin(_pairwise_sq_dists(block, centers), axis=1)
    return out


def _kmeans_pp_init(rows: _Rows, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centers by D² sampling."""
    X = rows.X
    n = len(X)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = rows.sq_dists(centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[i:] = X[rng.integers(n, size=k - i)]
            break
        probabilities = closest / total
        centers[i] = X[rng.choice(n, p=probabilities)]
        closest = np.minimum(closest, rows.sq_dists(centers[i : i + 1]).ravel())
    return centers


class KMeans:
    """Lloyd's algorithm with k-means++ initialisation."""

    def __init__(
        self,
        n_clusters: int = 8,
        max_iter: int = 100,
        tol: float = 1e-6,
        random_state: int = 0,
    ) -> None:
        if n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state
        self.cluster_centers_: np.ndarray | None = None
        self.labels_: np.ndarray | None = None
        self.inertia_: float = np.inf
        self.n_iter_: int = 0

    def fit(self, X: np.ndarray) -> "KMeans":
        X = np.asarray(X, dtype=float)
        if len(X) < self.n_clusters:
            raise ValueError(
                f"n_samples={len(X)} < n_clusters={self.n_clusters}"
            )
        rng = np.random.default_rng(self.random_state)
        rows = _Rows(X)
        centers = _kmeans_pp_init(rows, self.n_clusters, rng)
        for iteration in range(self.max_iter):
            labels = np.argmin(rows.sq_dists(centers), axis=1)
            new_centers = _cluster_means(X, labels, centers)
            shift = float(np.max(np.abs(new_centers - centers)))
            centers = new_centers
            self.n_iter_ = iteration + 1
            if shift < self.tol:
                break
        dists = rows.sq_dists(centers)
        self.labels_ = np.argmin(dists, axis=1)
        self.inertia_ = float(dists[np.arange(len(X)), self.labels_].sum())
        self.cluster_centers_ = centers
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Nearest-centroid cluster index per row."""
        if self.cluster_centers_ is None:
            raise NotFittedError("KMeans.predict before fit")
        X = np.asarray(X, dtype=float)
        return _nearest_center(X, self.cluster_centers_)

    def __getstate__(self) -> dict:
        # Per-sample training assignments are a fit artefact; dropping
        # them keeps saved models at centroid size (Table II).
        state = dict(self.__dict__)
        state["labels_"] = None
        return state


class KMeansDetector:
    """Clusters traffic features, then labels clusters by majority class.

    This is the paper's K-Means IDS: unsupervised structure discovery
    (:class:`KMeans` with ``n_clusters``) with a thin supervised mapping
    from cluster to benign/malicious.
    """

    def __init__(self, n_clusters: int = 8, random_state: int = 0) -> None:
        self.n_clusters = n_clusters
        self.random_state = random_state
        self.clusterer_: KMeans | None = None
        self.cluster_labels_: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KMeansDetector":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=int)
        self.clusterer_ = KMeans(
            n_clusters=self.n_clusters, random_state=self.random_state
        ).fit(X)
        assignments = self.clusterer_.labels_
        assert assignments is not None
        labels = np.zeros(self.n_clusters, dtype=int)
        overall_majority = int(np.bincount(y).argmax())
        for cluster in range(self.n_clusters):
            members = y[assignments == cluster]
            labels[cluster] = (
                int(np.bincount(members).argmax()) if len(members) else overall_majority
            )
        self.cluster_labels_ = labels
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Benign/malicious label via nearest labelled centroid."""
        if self.clusterer_ is None or self.cluster_labels_ is None:
            raise NotFittedError("KMeansDetector.predict before fit")
        return self.cluster_labels_[self.clusterer_.predict(X)]

    @property
    def n_clusters_(self) -> int:
        if self.cluster_labels_ is None:
            raise NotFittedError("detector not fitted")
        return len(self.cluster_labels_)
