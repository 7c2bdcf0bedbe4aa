"""The end-to-end feature extractor.

Combines per-packet basic features with per-window statistics into the
model-ready matrix.  As in the paper, every packet in a window shares
that window's statistical features ("this aggregation ... prevents the
misclassification of packets belonging to different classes within the
same time window"), and the window length is user-configurable (the
paper's experiments use 1 second).

The default configuration is paper-faithful: basic features are the
timestamp/protocol/port attributes of §IV-A, and the statistical set is
the nine statistics the section walks through
(:data:`~repro.features.statistical.PAPER_STATISTICAL_FEATURE_NAMES`).
``stat_set="extended"`` and ``include_details=True`` enable the richer
feature space used by the ablation benchmarks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.basic import basic_feature_names, basic_features_batch
from repro.features.columnar import RecordBatch
from repro.features.statistical import (
    NORMALIZED_STATISTICAL_FEATURE_NAMES,
    PAPER_STATISTICAL_FEATURE_NAMES,
    STATISTICAL_FEATURE_NAMES,
    compute_window_statistics,
)


class FeatureExtractor:
    """Turns a :class:`RecordBatch` capture into per-packet feature vectors.

    Parameters
    ----------
    window_seconds:
        Statistical-aggregation window (paper default: 1 s).
    include_ips:
        Include raw src/dst IP integers as features.
    include_timestamp:
        Include the capture-relative timestamp (paper-faithful default).
    include_details:
        Add per-packet size/flag/sequence columns (ablation only).
    stat_set:
        ``"paper"`` (default), ``"extended"`` (every computed statistic),
        ``"none"``, or an explicit tuple of statistic names.
    """

    def __init__(
        self,
        window_seconds: float = 1.0,
        include_ips: bool = False,
        include_timestamp: bool = True,
        include_details: bool = False,
        stat_set: str | Sequence[str] = "paper",
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        self.include_ips = include_ips
        self.include_timestamp = include_timestamp
        self.include_details = include_details
        if stat_set == "paper":
            stat_names: tuple[str, ...] = PAPER_STATISTICAL_FEATURE_NAMES
        elif stat_set == "normalized":
            stat_names = NORMALIZED_STATISTICAL_FEATURE_NAMES
        elif stat_set == "extended":
            stat_names = STATISTICAL_FEATURE_NAMES
        elif stat_set == "none":
            stat_names = ()
        elif isinstance(stat_set, str):
            raise ValueError(f"unknown stat_set {stat_set!r}")
        else:
            unknown = set(stat_set) - set(STATISTICAL_FEATURE_NAMES)
            if unknown:
                raise ValueError(f"unknown statistic names: {sorted(unknown)}")
            stat_names = tuple(stat_set)
        self.stat_names = stat_names
        self._stat_columns = np.array(
            [STATISTICAL_FEATURE_NAMES.index(name) for name in stat_names], dtype=int
        )

    def to_config(self) -> dict:
        """JSON-serializable constructor arguments.

        ``stat_set`` is stored as the resolved tuple of statistic names,
        so a round-tripped extractor produces byte-identical matrices
        even if the named preset's contents ever change.
        """
        return {
            "window_seconds": self.window_seconds,
            "include_ips": self.include_ips,
            "include_timestamp": self.include_timestamp,
            "include_details": self.include_details,
            "stat_set": list(self.stat_names),
        }

    @classmethod
    def from_config(cls, config: dict) -> "FeatureExtractor":
        """Rebuild an extractor from :meth:`to_config` (validation re-fires)."""
        return cls(
            window_seconds=config["window_seconds"],
            include_ips=config["include_ips"],
            include_timestamp=config["include_timestamp"],
            include_details=config["include_details"],
            stat_set=tuple(config["stat_set"]),
        )

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Column names of the produced matrix."""
        return (
            basic_feature_names(
                self.include_ips, self.include_timestamp, self.include_details
            )
            + self.stat_names
        )

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def transform_window(self, batch: RecordBatch) -> np.ndarray:
        """Features for the packets of one window (real-time path)."""
        if len(batch) == 0:
            return np.empty((0, self.n_features))
        basic = basic_features_batch(
            batch, self.include_ips, self.include_timestamp, self.include_details
        )
        if not len(self.stat_names):
            return basic
        stats = compute_window_statistics(batch, self.window_seconds).to_array()
        selected = stats[self._stat_columns]
        tiled = np.tile(selected, (len(batch), 1))
        return np.hstack([basic, tiled])

    def transform(
        self, batch: RecordBatch
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Features for a whole capture (offline/training path).

        Returns ``(X, y, window_ids)`` where ``y`` holds ground-truth
        labels and ``window_ids`` the window index of each packet.

        The basic block is computed in a single vectorized pass over
        every packet, then each window of
        :meth:`~repro.features.columnar.RecordBatch.window_slices` (the
        windows the real-time IDS scores) contributes its statistics row.
        """
        n = len(batch)
        if n == 0:
            return (
                np.empty((0, self.n_features)),
                np.empty(0, dtype=int),
                np.empty(0, dtype=int),
            )
        y = batch.label.astype(int)
        window_ids = batch.window_indices(self.window_seconds)
        n_basic = self.n_features - len(self.stat_names)
        X = np.empty((n, self.n_features))
        X[:, :n_basic] = basic_features_batch(
            batch, self.include_ips, self.include_timestamp, self.include_details
        )
        # Fill statistic rows window by window: each window is the next
        # contiguous run of rows.
        if len(self.stat_names):
            start = 0
            for _, window in batch.window_slices(self.window_seconds):
                stop = start + len(window)
                stats = compute_window_statistics(window, self.window_seconds).to_array()
                X[start:stop, n_basic:] = stats[self._stat_columns]
                start = stop
        return X, y, window_ids.astype(int)
