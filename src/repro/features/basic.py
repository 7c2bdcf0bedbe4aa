"""Per-packet basic features.

The paper's §IV-A basic attributes are exactly: timestamps, IP source and
destination addresses, protocol types, and source and destination ports.
That is the default set here (IPs behind a flag, see below).  TCP flags,
packet sizes, and sequence numbers appear in the paper only through the
window *statistics* (SYN-without-ACK counts, sequence-number variance,
flow rates); the ``include_details`` flag adds them per-packet for the
feature-ablation experiments.

Two deliberate defaults:

* ``include_timestamp=True`` — the paper lists timestamps first.  A
  capture-relative timestamp lets threshold-splitting models memorise
  *when* the training run's attacks happened rather than what they look
  like; keeping it faithful to the paper preserves that hazard.
* ``include_ips=False`` — on the testbed's flat LAN the infected devices
  emit both benign and attack traffic, so addresses carry little signal
  while dominating distance metrics; ``include_ips=True`` restores the
  paper's literal list.
"""

from __future__ import annotations

import numpy as np

from repro.features.columnar import RecordBatch

#: The paper's per-packet attributes (minus IPs, which are flag-gated).
CORE_FEATURE_NAMES: tuple[str, ...] = (
    "timestamp",
    "protocol",
    "src_port",
    "dst_port",
)

#: Extra per-packet columns available for ablations.
DETAIL_FEATURE_NAMES: tuple[str, ...] = (
    "size",
    "is_syn",
    "is_ack",
    "is_fin",
    "is_rst",
    "seq_norm",
)

#: Extra columns prepended when ``include_ips`` is requested.
IP_FEATURE_NAMES: tuple[str, ...] = ("src_ip", "dst_ip")

#: Backwards-friendly alias: the default column set.
BASIC_FEATURE_NAMES: tuple[str, ...] = CORE_FEATURE_NAMES


def basic_feature_names(
    include_ips: bool = False,
    include_timestamp: bool = True,
    include_details: bool = False,
) -> tuple[str, ...]:
    """Column names matching :func:`basic_features_batch`."""
    names = CORE_FEATURE_NAMES if include_timestamp else CORE_FEATURE_NAMES[1:]
    if include_details:
        names = names + DETAIL_FEATURE_NAMES
    return (IP_FEATURE_NAMES + names) if include_ips else names


def basic_features_batch(
    batch: RecordBatch,
    include_ips: bool = False,
    include_timestamp: bool = True,
    include_details: bool = False,
) -> np.ndarray:
    """The basic feature matrix for every row of a batch at once.

    Column order matches :func:`basic_feature_names`.
    """
    columns: list[np.ndarray] = []
    if include_ips:
        columns += [batch.src_ip, batch.dst_ip]
    if include_timestamp:
        columns.append(batch.timestamp)
    columns += [batch.protocol, batch.src_port, batch.dst_port]
    if include_details:
        columns += [
            batch.size,
            batch.is_syn,
            batch.is_ack,
            batch.is_fin,
            batch.is_rst,
            batch.seq / 2**32,
        ]
    if len(batch) == 0:
        return np.empty((0, len(columns)))
    return np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
