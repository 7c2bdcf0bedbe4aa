"""Columnar packet storage: the one stored form of a capture.

:class:`RecordBatch` holds a capture (or one window of it) as a
struct-of-arrays — one NumPy column per
:class:`~repro.sim.tracing.PacketRecord` field.  It is the form a
capture takes from the probe to the models: the probe hands its capture
over as columns, a :class:`~repro.capture.dataset.TrafficDataset` holds
one batch, and the feature pipeline computes every §IV-A statistic from
it with array operations.  Rows are always timestamp-sorted, so window
slicing is a pair of ``np.searchsorted`` lookups returning zero-copy
views.

Per-record rows remain the element of the streaming IDS (probe sink →
monitor → window aggregator), which builds one batch per window with
:meth:`RecordBatch.from_records`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.sim.packet import PROTO_TCP, PROTO_UDP, TcpFlags
from repro.sim.tracing import PacketRecord

_SYN = int(TcpFlags.SYN)
_ACK = int(TcpFlags.ACK)
_FIN = int(TcpFlags.FIN)
_RST = int(TcpFlags.RST)

#: Every column of a batch, in :class:`PacketRecord` field order.
FIELDS: tuple[str, ...] = PacketRecord._fields

#: Column dtypes, in :data:`FIELDS` order (``attack`` holds str or None).
_DTYPES = (np.float64,) + (np.int64,) * 9 + (object,)


@dataclass
class RecordBatch:
    """A struct-of-arrays view of an ordered packet capture.

    Rows are always sorted by timestamp (:meth:`from_columns` stable-sorts
    out-of-order input), which is what makes window slicing a pair of
    ``searchsorted`` lookups instead of a scan.  ``slice`` returns
    zero-copy views of the underlying columns.
    """

    timestamp: np.ndarray
    src_ip: np.ndarray
    dst_ip: np.ndarray
    protocol: np.ndarray
    src_port: np.ndarray
    dst_port: np.ndarray
    size: np.ndarray
    tcp_flags: np.ndarray
    seq: np.ndarray
    label: np.ndarray
    attack: np.ndarray  # object dtype; None for benign rows

    @classmethod
    def from_columns(cls, columns: Iterable[Sequence]) -> "RecordBatch":
        """Build a batch from one sequence per field, in :data:`FIELDS` order.

        The one constructor: timestamps become float64, the other numeric
        fields int64 and ``attack`` an object column; rows are
        stable-sorted by timestamp only when the input is out of order.
        Columns are converted one at a time, as ``columns`` yields them.
        """
        arrays = [
            np.asarray(values, dtype=dtype)
            for values, dtype in zip(columns, _DTYPES, strict=True)
        ]
        if any(len(column) != len(arrays[0]) for column in arrays):
            raise ValueError("columns differ in length")
        batch = cls(*arrays)
        n = len(batch)
        if n > 1 and np.any(np.diff(batch.timestamp) < 0):
            batch = batch.take(np.argsort(batch.timestamp, kind="stable"))
        return batch

    @classmethod
    def from_records(cls, records: Iterable[PacketRecord]) -> "RecordBatch":
        """Build the columnar store from rows (transposed once)."""
        columns = list(zip(*records))
        return cls.from_columns(columns) if columns else cls.empty()

    @classmethod
    def empty(cls) -> "RecordBatch":
        return cls.from_columns([()] * len(FIELDS))

    def __len__(self) -> int:
        return len(self.timestamp)

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        """The columns in :data:`FIELDS` order."""
        return tuple(getattr(self, name) for name in FIELDS)

    def take(self, order: np.ndarray) -> "RecordBatch":
        """A new batch with rows reordered/selected by ``order``."""
        return RecordBatch(*(column[order] for column in self.columns))

    def slice(self, start: int, stop: int) -> "RecordBatch":
        """Zero-copy row range ``[start, stop)`` (columns are views)."""
        return RecordBatch(*(column[start:stop] for column in self.columns))

    def to_records(self) -> list[PacketRecord]:
        """Per-record rows, built in one zip over the ``tolist()`` columns."""
        return list(map(PacketRecord._make, zip(*(c.tolist() for c in self.columns))))

    # ------------------------------------------------------------------
    # Derived boolean columns (same semantics as PacketRecord properties)

    @property
    def is_tcp(self) -> np.ndarray:
        return self.protocol == PROTO_TCP

    @property
    def is_udp(self) -> np.ndarray:
        return self.protocol == PROTO_UDP

    @property
    def is_syn(self) -> np.ndarray:
        return ((self.tcp_flags & _SYN) != 0) & ((self.tcp_flags & _ACK) == 0)

    @property
    def is_ack(self) -> np.ndarray:
        return (self.tcp_flags & _ACK) != 0

    @property
    def is_fin(self) -> np.ndarray:
        return (self.tcp_flags & _FIN) != 0

    @property
    def is_rst(self) -> np.ndarray:
        return (self.tcp_flags & _RST) != 0

    # ------------------------------------------------------------------
    # Window slicing

    def window_indices(self, window_seconds: float) -> np.ndarray:
        """Per-row window index: ``floor(timestamp / window_seconds)``."""
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        return (self.timestamp // window_seconds).astype(np.int64)

    def window_slices(
        self, window_seconds: float
    ) -> Iterator[tuple[int, "RecordBatch"]]:
        """Yield ``(window_index, batch_view)`` for each non-empty window.

        The per-row index column is nondecreasing (rows are sorted), so
        each window is a contiguous run located with ``np.searchsorted``
        and returned as a zero-copy slice.
        """
        if len(self) == 0:
            return
        indices = self.window_indices(window_seconds)
        windows = np.unique(indices)
        bounds = np.searchsorted(indices, windows, side="left")
        ends = np.append(bounds[1:], len(indices))
        for window, start, stop in zip(windows, bounds, ends):
            yield int(window), self.slice(int(start), int(stop))
