"""Streaming time-window assignment for the real-time IDS.

Offline extraction needs no assembler: a capture is a time-sorted
:class:`~repro.features.columnar.RecordBatch`, so each window is a
contiguous run of its rows.  The live stream arrives record by record and may be out of order (jitter faults
on real taps), so :class:`WindowAggregator` buffers records inside a
configurable reorder horizon, emitting each window only once it can no
longer receive stragglers.  Records arriving for a window that has
already been emitted are dropped and counted rather than silently filed
into the wrong window.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable

from repro.sim.tracing import PacketRecord


class WindowAggregator:
    """Streaming window assembler for the real-time IDS.

    Feed records with :meth:`add`; a window is handed to
    ``on_window(index, records)`` once the stream has advanced past its
    end by at least ``reorder_horizon`` seconds, so late-but-tolerable
    stragglers (network jitter, tap scheduling) are sorted into their
    true window instead of being filed into whichever bucket was open.
    Records older than an already-emitted window cannot be re-windowed;
    they are dropped and counted in ``records_dropped_late``.
    ``records_reordered`` counts every record that arrived behind a
    newer timestamp.  Call :meth:`flush` at end of capture to emit the
    remaining buffered windows.
    """

    def __init__(
        self,
        window_seconds: float,
        on_window: Callable[[int, list[PacketRecord]], None],
        reorder_horizon: float = 0.0,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if reorder_horizon < 0:
            raise ValueError(
                f"reorder_horizon must be non-negative, got {reorder_horizon}"
            )
        self.window_seconds = window_seconds
        self.on_window = on_window
        self.reorder_horizon = reorder_horizon
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
            # Its window was already emitted; re-windowing would corrupt
            # the per-second timeline, so drop it — visibly.
            self.records_dropped_late += 1
            return
        if self._max_timestamp is not None and record.timestamp < self._max_timestamp:
            self.records_reordered += 1
            insort(self._pending, record, key=lambda r: r.timestamp)
        else:
            self._pending.append(record)
            self._max_timestamp = record.timestamp
        # Emit every window that can no longer receive stragglers: those
        # ending at or before (newest timestamp - horizon).
        assert self._max_timestamp is not None
        safe_limit = int(
            (self._max_timestamp - self.reorder_horizon) // self.window_seconds
        )
        self._emit_through(safe_limit)

    def flush(self) -> None:
        """Emit all buffered windows (end of capture)."""
        self._emit_through(None)

    def _emit_through(self, limit: int | None) -> None:
        """Emit buffered complete windows with index < ``limit`` (all if None)."""
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
