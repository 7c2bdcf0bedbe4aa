"""Streaming time-window assembly for the live IDS tap.

Offline, a capture is a time-sorted
:class:`~repro.features.columnar.RecordBatch` and each window is a
contiguous run of its rows (``window_slices``).  The live tap delivers
field values instead — one frame's values at a time — and may deliver
them out of order (jitter faults on real taps);
:class:`WindowAggregator` assembles them into the same windows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.features.columnar import RecordBatch


class WindowAggregator:
    """Streaming window assembler for the real-time IDS.

    Feed one row of field values (in :data:`~repro.features.columnar.FIELDS`
    order) at a time with :meth:`add`.
    The window of the newest timestamp is the open one; after each row,
    every buffered window older than it is handed to
    ``on_window(index, batch)``, in index order.  A row behind the
    newest timestamp counts in ``records_reordered``: it is sorted into
    the open window, or, when the stream has already passed its window,
    that window is emitted with it at once.  A row whose window was
    already emitted cannot be re-windowed; it is dropped and counted in
    ``records_dropped_late``.  Call :meth:`flush` at end of capture to
    emit the open window.
    """

    def __init__(
        self,
        window_seconds: float,
        on_window: Callable[[int, RecordBatch], None],
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        self.window_seconds = window_seconds
        self.on_window = on_window
        self._open: list[Sequence] = []  # the open window's rows, in arrival order
        self._open_index: int | None = None  # window of the newest timestamp
        self._max_timestamp: float | None = None
        self._next_index: int | None = None  # first index not yet emitted
        self.windows_emitted = 0
        self.records_reordered = 0
        self.records_dropped_late = 0

    def add(self, row: Sequence) -> None:
        """One row of field values, timestamp first."""
        timestamp = row[0]
        index = int(timestamp // self.window_seconds)
        if self._next_index is not None and index < self._next_index:
            # Its window was already emitted; re-windowing would corrupt
            # the per-second timeline, so drop it — visibly.
            self.records_dropped_late += 1
            return
        if self._max_timestamp is not None and timestamp < self._max_timestamp:
            self.records_reordered += 1
            if index != self._open_index:
                # The stream has passed its window, which closes at once.
                self._emit(index, [row])
                return
        else:
            self._max_timestamp = timestamp
            if index != self._open_index:
                self._close_open()
                self._open_index = index
        self._open.append(row)

    def flush(self) -> None:
        """Emit the open window (end of capture)."""
        self._close_open()

    def _close_open(self) -> None:
        if self._open:
            rows, self._open = self._open, []
            self._emit(self._open_index, rows)

    def _emit(self, index: int, rows: list[Sequence]) -> None:
        self._next_index = index + 1
        self.windows_emitted += 1
        # from_columns stable-sorts by timestamp: stragglers take their
        # place, rows with equal timestamps keep their arrival order.
        self.on_window(index, RecordBatch.from_columns(zip(*rows)))
