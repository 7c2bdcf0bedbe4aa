"""Per-window statistical features.

Implements every statistic the paper's §IV-A walks through:

* packet counts per window (volume spikes/drops);
* Shannon entropy of destination-port usage (floods that spray random
  ports push entropy up; single-service floods push it down);
* frequency concentration of the most-used port;
* short-lived connection identification and repeated connection attempts;
* SYN-flags-without-corresponding-ACK counting (half-handshake scans and
  SYN floods);
* flow rates and TCP sequence-number variance;

plus *frequency-normalised* variants of the count statistics (each count
divided by the window's packet total).  The normalised view matters for
scale-sensitive models: distance- and gradient-based detectors consume
relative frequencies that stay in-distribution when the live attack rate
differs from the training rate, whereas raw counts are the literal
values the paper lists (and what threshold-splitting models train on).

All statistics are computed from one window's packets only, exactly as a
streaming IDS sees them, and are attached unchanged to every packet in
the window — the paper's design choice that causes the accuracy dips at
attack boundaries.  The window arrives as a
:class:`~repro.features.columnar.RecordBatch`, so every statistic is
array work:

* entropies and port concentration via ``np.unique`` counts;
* every endpoint-tuple grouping from one ``np.lexsort`` of the rows by
  (src_ip, dst_ip, dst_port, src_port, protocol): the source, the
  (src, dst, dport) triple, the 4-tuple and the 5-tuple flow are nested
  prefixes of that order, so each level's dense group ids are a running
  count of key changes along the sorted rows;
* SYN-without-ACK, repeated-attempt and short-lived-connection counts as
  per-group flag arrays and a ``bincount`` over those ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.columnar import RecordBatch

#: The raw-count statistics of §IV-A (the paper's literal list).
PAPER_STATISTICAL_FEATURE_NAMES: tuple[str, ...] = (
    "pkt_count",
    "dport_entropy",
    "top_dport_fraction",
    "syn_count",
    "syn_without_ack",
    "short_lived_conns",
    "repeated_conn_attempts",
    "rst_count",
    "flow_rate",
    "seq_std",
)

#: Frequency-normalised view: scale-free structure of the same window.
NORMALIZED_STATISTICAL_FEATURE_NAMES: tuple[str, ...] = (
    "dport_entropy",
    "top_dport_fraction",
    "syn_ratio",
    "syn_without_ack_ratio",
    "short_lived_ratio",
    "repeated_conn_ratio",
    "rst_ratio",
    "ack_ratio",
    "udp_fraction",
    "seq_std",
)

#: Names of all computed window-statistic features, in column order.
STATISTICAL_FEATURE_NAMES: tuple[str, ...] = (
    "pkt_count",
    "byte_count",
    "mean_size",
    "std_size",
    "dport_entropy",
    "sport_entropy",
    "unique_src",
    "unique_dst_ports",
    "top_dport_fraction",
    "syn_count",
    "syn_ratio",
    "syn_without_ack",
    "syn_without_ack_ratio",
    "short_lived_conns",
    "short_lived_ratio",
    "repeated_conn_attempts",
    "repeated_conn_ratio",
    "rst_count",
    "rst_ratio",
    "ack_ratio",
    "flow_rate",
    "udp_fraction",
    "seq_std",
)


@dataclass(frozen=True)
class WindowStatistics:
    """The statistical feature values for one time window."""

    pkt_count: float
    byte_count: float
    mean_size: float
    std_size: float
    dport_entropy: float
    sport_entropy: float
    unique_src: float
    unique_dst_ports: float
    top_dport_fraction: float
    syn_count: float
    syn_ratio: float
    syn_without_ack: float
    syn_without_ack_ratio: float
    short_lived_conns: float
    short_lived_ratio: float
    repeated_conn_attempts: float
    repeated_conn_ratio: float
    rst_count: float
    rst_ratio: float
    ack_ratio: float
    flow_rate: float
    udp_fraction: float
    seq_std: float

    def to_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in STATISTICAL_FEATURE_NAMES])

    @classmethod
    def zeros(cls) -> "WindowStatistics":
        return cls(*([0.0] * len(STATISTICAL_FEATURE_NAMES)))


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (bits) of a count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def compute_window_statistics(
    batch: RecordBatch, window_seconds: float = 1.0
) -> WindowStatistics:
    """Compute all §IV-A statistics over one window's packets."""
    n = len(batch)
    if n == 0:
        return WindowStatistics.zeros()

    sizes = batch.size.astype(np.float64)
    _, dport_counts = np.unique(batch.dst_port, return_counts=True)
    _, sport_counts = np.unique(batch.src_port, return_counts=True)

    syn_mask = batch.is_syn
    ack_mask = batch.is_ack
    rst_mask = batch.is_rst
    syn_count = int(syn_mask.sum())

    # One sort groups every endpoint tuple: ordered by (src, dst, dport,
    # sport, proto), the source, the (src, dst, dport) triple, the 4-tuple
    # and the 5-tuple flow are nested prefixes.  ``opens`` marks the sorted
    # rows that start a group at the current level, and its running count
    # is each row's dense group id at that level.
    keys = (batch.src_ip, batch.dst_ip, batch.dst_port, batch.src_port, batch.protocol)
    order = np.lexsort(keys[::-1])  # lexsort's primary key comes last
    src, dst, dport, sport, proto = (column[order] for column in keys)
    opens = np.zeros(n, dtype=bool)
    opens[1:] = src[1:] != src[:-1]
    unique_src = np.count_nonzero(opens) + 1
    opens[1:] |= (dst[1:] != dst[:-1]) | (dport[1:] != dport[:-1])
    triple = np.cumsum(opens)
    opens[1:] |= sport[1:] != sport[:-1]
    quad = np.cumsum(opens)
    opens[1:] |= proto[1:] != proto[:-1]
    n_flows = np.count_nonzero(opens) + 1

    # A SYN "without corresponding ACK" is a connection opener from a
    # (src, dst, dport) that never completes the handshake within the
    # window: a SYN in a triple holding no pure ACK.  A triple opened by
    # more than one SYN is a repeated attempt.
    syn_sorted = syn_mask[order]
    n_triples = int(triple[-1]) + 1
    attempts = np.bincount(triple[syn_sorted], minlength=n_triples)
    acked = np.zeros(n_triples, dtype=bool)
    acked[triple[(ack_mask & ~syn_mask)[order]]] = True
    syn_without_ack = int(attempts[~acked].sum())
    repeated = int((attempts > 1).sum())

    # Short-lived connections: 4-tuples that both open (SYN) and
    # terminate (FIN or RST) inside the window.
    n_quads = int(quad[-1]) + 1
    opened = np.zeros(n_quads, dtype=bool)
    opened[quad[syn_sorted]] = True
    closed = np.zeros(n_quads, dtype=bool)
    closed[quad[(batch.is_fin | rst_mask)[order]]] = True
    short_lived = int((opened & closed).sum())

    tcp_seqs = batch.seq[batch.is_tcp].astype(np.float64)
    seq_std = float(np.std(tcp_seqs / 2**32)) if tcp_seqs.size else 0.0

    rst_count = int(rst_mask.sum())
    return WindowStatistics(
        pkt_count=float(n),
        byte_count=float(sizes.sum()),
        mean_size=float(sizes.mean()),
        std_size=float(sizes.std()),
        dport_entropy=_entropy(dport_counts),
        sport_entropy=_entropy(sport_counts),
        unique_src=float(unique_src),
        unique_dst_ports=float(len(dport_counts)),
        top_dport_fraction=int(dport_counts.max()) / n,
        syn_count=float(syn_count),
        syn_ratio=syn_count / n,
        syn_without_ack=float(syn_without_ack),
        syn_without_ack_ratio=syn_without_ack / n,
        short_lived_conns=float(short_lived),
        short_lived_ratio=short_lived / n,
        repeated_conn_attempts=float(repeated),
        repeated_conn_ratio=repeated / n,
        rst_count=float(rst_count),
        rst_ratio=rst_count / n,
        ack_ratio=int(ack_mask.sum()) / n,
        flow_rate=n_flows / window_seconds,
        udp_fraction=int(batch.is_udp.sum()) / n,
        seq_std=seq_std,
    )
