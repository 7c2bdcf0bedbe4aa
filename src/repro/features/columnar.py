"""Columnar packet storage: the one stored form of a capture.

:class:`RecordBatch` holds a capture (or one window of it) as a
struct-of-arrays — one NumPy column per
:class:`~repro.sim.tracing.PacketRecord` field.  It is the form a
capture takes from the probe to the models: the probe hands its capture
over as columns, a :class:`~repro.capture.dataset.TrafficDataset` holds
one batch, and the feature pipeline computes every §IV-A statistic from
it with array operations.  Rows are always timestamp-sorted, so each
time window is a contiguous run of rows, sliced out as a zero-copy view.

The real-time IDS reads the same form: offline it scores the
:meth:`RecordBatch.window_slices` of a capture, the windows training
uses, and live its window aggregator emits each closed window as one
batch built from the tap's field values.  Rows
(:meth:`RecordBatch.to_records`) are a view for inspection only.
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
    out-of-order input), which is what makes every time window a
    contiguous run of rows.  ``slice`` returns zero-copy views of the
    underlying columns.
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
        A NaN or infinite timestamp has no window and no place in the
        order, so it raises ``ValueError``.
        """
        arrays = [
            np.asarray(values, dtype=dtype)
            for values, dtype in zip(columns, _DTYPES, strict=True)
        ]
        if any(len(column) != len(arrays[0]) for column in arrays):
            raise ValueError("columns differ in length")
        if not np.isfinite(arrays[0]).all():
            raise ValueError("timestamps must be finite")
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

        The one window splitter: training (``FeatureExtractor.transform``)
        and detection (``RealTimeIds.process``) both read it.  The
        per-row index column is nondecreasing (rows are sorted), so each
        window is a contiguous run, cut where the index changes and
        returned as a zero-copy slice.
        """
        if len(self) == 0:
            return
        indices = self.window_indices(window_seconds)
        cuts = (np.flatnonzero(np.diff(indices)) + 1).tolist()
        for start, stop in zip([0, *cuts], [*cuts, len(self)]):
            yield int(indices[start]), self.slice(start, stop)
