"""Traffic capture products: labelled datasets built from packet records.

The testbed's dataset-generation phase runs the full botnet scenario and
collects every packet the IDS tap sees into a
:class:`~repro.capture.dataset.TrafficDataset` — the artifact the paper
trains its models on (their 10-minute run produced ~3.0M malicious and
~2.2M benign packets).
"""

from repro.capture.dataset import DatasetSummary, TrafficDataset
from repro.capture.synthetic import synthetic_capture

__all__ = [
    "DatasetSummary",
    "TrafficDataset",
    "synthetic_capture",
]
