"""Per-record reference implementation of the §IV-A feature pipeline.

The library computes every feature from a columnar ``RecordBatch``.
This module keeps the original record-at-a-time walk — plain Python
sets, counters and loops over ``PacketRecord`` rows — as the oracle the
columnar path is held equal to (1e-9 on the statistics, exact on labels
and window ids), and the record-at-a-time live window assembler
(:class:`RowWindowAggregator`) the columnar one is held equal to.  It is
test code only: nothing in ``src/`` imports it.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter, defaultdict
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.features.pipeline import FeatureExtractor
from repro.features.statistical import WindowStatistics
from repro.sim.tracing import PacketRecord

_RST_FLAG = 0x04


def shannon_entropy(counts: Sequence[int]) -> float:
    """Shannon entropy (bits) of a count distribution; 0 for empty input."""
    total = sum(counts)
    if total <= 0:
        return 0.0
    entropy = 0.0
    for count in counts:
        if count > 0:
            p = count / total
            entropy -= p * math.log2(p)
    return entropy


def basic_features(
    record: PacketRecord,
    include_ips: bool = False,
    include_timestamp: bool = True,
    include_details: bool = False,
) -> np.ndarray:
    """The basic feature vector for one packet."""
    core: tuple[float, ...] = (
        float(record.protocol),
        float(record.src_port),
        float(record.dst_port),
    )
    if include_timestamp:
        core = (record.timestamp,) + core
    if include_details:
        core = core + (
            float(record.size),
            1.0 if record.is_syn else 0.0,
            1.0 if record.is_ack else 0.0,
            1.0 if record.is_fin else 0.0,
            1.0 if record.tcp_flags & _RST_FLAG else 0.0,
            record.seq / 2**32,
        )
    if include_ips:
        return np.array((float(record.src_ip), float(record.dst_ip)) + core)
    return np.array(core)


def compute_window_statistics_legacy(
    records: Sequence[PacketRecord], window_seconds: float = 1.0
) -> WindowStatistics:
    """All §IV-A statistics of one window, record by record."""
    if not records:
        return WindowStatistics.zeros()

    sizes = np.array([r.size for r in records], dtype=float)
    dports = Counter(r.dst_port for r in records)
    sports = Counter(r.src_port for r in records)
    unique_src = len({r.src_ip for r in records})
    udp_count = sum(1 for r in records if r.is_udp)
    rst_count = sum(1 for r in records if r.tcp_flags & _RST_FLAG)
    ack_count = sum(1 for r in records if r.is_ack)

    # SYN bookkeeping: a SYN "without corresponding ACK" is a connection
    # opener from a (src, dst, dport) that never completes the handshake
    # within the window (no later pure-ACK from the same endpoint pair).
    syns = [r for r in records if r.is_syn]
    ack_pairs = {
        (r.src_ip, r.dst_ip, r.dst_port)
        for r in records
        if r.is_ack and not r.is_syn
    }
    syn_without_ack = sum(
        1 for r in syns if (r.src_ip, r.dst_ip, r.dst_port) not in ack_pairs
    )

    # Connection-attempt analysis keyed by (src, dst, dport).
    attempts: dict[tuple[int, int, int], int] = defaultdict(int)
    for r in syns:
        attempts[(r.src_ip, r.dst_ip, r.dst_port)] += 1
    repeated = sum(1 for count in attempts.values() if count > 1)

    # Short-lived connections: flows that both open (SYN) and terminate
    # (FIN or RST) inside this single window.
    fin_or_rst = {
        (r.src_ip, r.src_port, r.dst_ip, r.dst_port)
        for r in records
        if r.is_fin or (r.tcp_flags & _RST_FLAG)
    }
    opened = {(r.src_ip, r.src_port, r.dst_ip, r.dst_port) for r in syns}
    short_lived = len(opened & fin_or_rst)

    flows = {r.flow_key for r in records}
    tcp_seqs = np.array([r.seq for r in records if r.is_tcp], dtype=float)
    seq_std = float(np.std(tcp_seqs / 2**32)) if tcp_seqs.size else 0.0

    n = len(records)
    return WindowStatistics(
        pkt_count=float(n),
        byte_count=float(sizes.sum()),
        mean_size=float(sizes.mean()),
        std_size=float(sizes.std()),
        dport_entropy=shannon_entropy(list(dports.values())),
        sport_entropy=shannon_entropy(list(sports.values())),
        unique_src=float(unique_src),
        unique_dst_ports=float(len(dports)),
        top_dport_fraction=max(dports.values()) / n,
        syn_count=float(len(syns)),
        syn_ratio=len(syns) / n,
        syn_without_ack=float(syn_without_ack),
        syn_without_ack_ratio=syn_without_ack / n,
        short_lived_conns=float(short_lived),
        short_lived_ratio=short_lived / n,
        repeated_conn_attempts=float(repeated),
        repeated_conn_ratio=repeated / n,
        rst_count=float(rst_count),
        rst_ratio=rst_count / n,
        ack_ratio=ack_count / n,
        flow_rate=len(flows) / window_seconds,
        udp_fraction=udp_count / n,
        seq_std=seq_std,
    )


def iter_windows(
    records: Sequence[PacketRecord], window_seconds: float = 1.0
) -> Iterator[tuple[int, list[PacketRecord]]]:
    """Group records into fixed windows, sorting disordered input first.

    Yields ``(window_index, records)`` for every *non-empty* window, where
    ``window_index = floor(timestamp / window_seconds)``.  Out-of-order
    input is stable-sorted by timestamp, so a jittered replay produces
    exactly the window assignment of the sorted capture.
    """
    if window_seconds <= 0:
        raise ValueError(f"window_seconds must be positive, got {window_seconds}")
    ordered = list(records)
    if any(
        ordered[i].timestamp > ordered[i + 1].timestamp
        for i in range(len(ordered) - 1)
    ):
        ordered.sort(key=lambda r: r.timestamp)
    current_index: int | None = None
    bucket: list[PacketRecord] = []
    for record in ordered:
        index = int(record.timestamp // window_seconds)
        if current_index is None:
            current_index = index
        if index != current_index:
            yield current_index, bucket
            bucket = []
            current_index = index
        bucket.append(record)
    if bucket and current_index is not None:
        yield current_index, bucket


def transform_window_legacy(
    extractor: FeatureExtractor, records: Sequence[PacketRecord]
) -> np.ndarray:
    """``extractor.transform_window``, record by record."""
    if not records:
        return np.empty((0, extractor.n_features))
    basic = np.stack(
        [
            basic_features(
                r,
                extractor.include_ips,
                extractor.include_timestamp,
                extractor.include_details,
            )
            for r in records
        ]
    )
    if not len(extractor.stat_names):
        return basic
    stats = compute_window_statistics_legacy(records, extractor.window_seconds).to_array()
    selected = stats[extractor._stat_columns]
    tiled = np.tile(selected, (len(records), 1))
    return np.hstack([basic, tiled])


def transform_legacy(
    extractor: FeatureExtractor, records: Sequence[PacketRecord]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``extractor.transform``, record by record."""
    blocks: list[np.ndarray] = []
    labels: list[int] = []
    window_ids: list[int] = []
    for index, bucket in iter_windows(records, extractor.window_seconds):
        blocks.append(transform_window_legacy(extractor, bucket))
        labels.extend(r.label for r in bucket)
        window_ids.extend([index] * len(bucket))
    if not blocks:
        return (
            np.empty((0, extractor.n_features)),
            np.empty(0, dtype=int),
            np.empty(0, dtype=int),
        )
    return (
        np.vstack(blocks),
        np.array(labels, dtype=int),
        np.array(window_ids, dtype=int),
    )


class RowWindowAggregator:
    """The live window assembler, one ``PacketRecord`` at a time.

    The rule the columnar ``WindowAggregator`` must reproduce exactly:
    buffered rows stay timestamp-sorted (``insort`` keeps arrival order
    among equal timestamps); after each row, every buffered window older
    than the window of the newest timestamp is emitted, in index order,
    as its list of rows.  A row for an already-emitted window is dropped
    and counted in ``records_dropped_late``; a row behind the newest
    timestamp counts in ``records_reordered``.
    """

    def __init__(
        self,
        window_seconds: float,
        on_window: Callable[[int, list[PacketRecord]], None],
    ) -> None:
        self.window_seconds = window_seconds
        self.on_window = on_window
        self._pending: list[PacketRecord] = []  # always timestamp-sorted
        self._max_timestamp: float | None = None
        self._next_index: int | None = None  # first index not yet emitted
        self.windows_emitted = 0
        self.records_reordered = 0
        self.records_dropped_late = 0

    def _index_of(self, record: PacketRecord) -> int:
        return int(record.timestamp // self.window_seconds)

    def add(self, record: PacketRecord) -> None:
        if self._next_index is not None and self._index_of(record) < self._next_index:
            self.records_dropped_late += 1
            return
        if self._max_timestamp is not None and record.timestamp < self._max_timestamp:
            self.records_reordered += 1
            insort(self._pending, record, key=lambda r: r.timestamp)
        else:
            self._pending.append(record)
            self._max_timestamp = record.timestamp
        self._emit_through(int(self._max_timestamp // self.window_seconds))

    def flush(self) -> None:
        self._emit_through(None)

    def _emit_through(self, limit: int | None) -> None:
        """Emit buffered windows with index < ``limit`` (all if None)."""
        while self._pending:
            index = self._index_of(self._pending[0])
            if limit is not None and index >= limit:
                return
            cut = 1
            while cut < len(self._pending) and self._index_of(self._pending[cut]) == index:
                cut += 1
            bucket = self._pending[:cut]
            del self._pending[:cut]
            self._next_index = index + 1
            self.windows_emitted += 1
            self.on_window(index, bucket)
