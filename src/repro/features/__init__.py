"""Feature extraction for intrusion detection (the paper's §IV-A pipeline).

Per-packet *basic* features (:mod:`repro.features.basic`) are aggregated
with per-window *statistical* features (:mod:`repro.features.statistical`)
computed over user-configurable time windows — packet counts,
destination-port entropy, port-frequency concentration, short-lived
connections, repeated connection attempts, SYN-without-ACK counts, flow
rates, and sequence-number variance.
:class:`~repro.features.pipeline.FeatureExtractor` combines them into the
model-ready matrix where, exactly as in the paper, the statistical
features are identical for every packet inside a window.

Everything reads one representation: a capture or window held as a
columnar :class:`~repro.features.columnar.RecordBatch`, with every
statistic computed by NumPy array operations.  Offline, windows are the
capture's :meth:`~repro.features.columnar.RecordBatch.window_slices`;
the live IDS tap assembles the same windows from delivered field values
with :class:`~repro.features.window.WindowAggregator`.
"""

from repro.features.basic import BASIC_FEATURE_NAMES, basic_features_batch
from repro.features.columnar import RecordBatch
from repro.features.pipeline import FeatureExtractor
from repro.features.statistical import (
    STATISTICAL_FEATURE_NAMES,
    WindowStatistics,
    compute_window_statistics,
)
from repro.features.window import WindowAggregator

__all__ = [
    "BASIC_FEATURE_NAMES",
    "FeatureExtractor",
    "RecordBatch",
    "STATISTICAL_FEATURE_NAMES",
    "WindowAggregator",
    "WindowStatistics",
    "basic_features_batch",
    "compute_window_statistics",
]
