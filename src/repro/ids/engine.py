"""Stages 2-3 of the IDS: preprocessing and attack identification.

:class:`RealTimeIds` wires the pipeline of the paper's Figure 2 on
columnar windows: live, it is the capture tap and a
:class:`~repro.features.window.WindowAggregator` closes each time window
as one :class:`~repro.features.columnar.RecordBatch`; offline,
:meth:`RealTimeIds.process` scores a capture's ``window_slices``.  The
:class:`~repro.features.pipeline.FeatureExtractor` computes basic +
statistical features, the scaler normalises them, the trained model
classifies every packet, and the per-window accuracy against ground
truth is recorded (the paper's real-time metric).  Each window's
compute is timed for Table II, untraced; :meth:`RealTimeIds.finish`
re-runs the busiest scored window once under ``tracemalloc`` for its
memory column.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro import obs
from repro.features.columnar import RecordBatch
from repro.features.pipeline import FeatureExtractor
from repro.features.window import WindowAggregator
from repro.ids.meter import ResourceMeter
from repro.ids.report import (
    STATUS_DEGRADED,
    STATUS_HEALTHY,
    DetectionReport,
    WindowResult,
)
from repro.ml.serialization import model_size_kb
from repro.sim.tracing import packet_fields

if TYPE_CHECKING:
    from repro.sim.packet import Packet


class Classifier(Protocol):
    """Anything with a ``predict(X) -> labels`` method."""

    def predict(self, X: np.ndarray) -> np.ndarray: ...


class Scaler(Protocol):
    def transform(self, X: np.ndarray) -> np.ndarray: ...


class _IdentityScaler:
    """No-op scaler for models that train on raw features (trees)."""

    def fit(self, X: np.ndarray) -> "_IdentityScaler":
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return X


class RealTimeIds:
    """The real-time detection loop for one trained model."""

    def __init__(
        self,
        model: Classifier,
        model_name: str,
        extractor: FeatureExtractor | None = None,
        scaler: Scaler | None = None,
        window_seconds: float = 1.0,
        meter: ResourceMeter | None = None,
    ) -> None:
        self.model = model
        self.model_name = model_name
        self.extractor = extractor or FeatureExtractor(window_seconds=window_seconds)
        self.scaler = scaler or _IdentityScaler()
        self.window_seconds = window_seconds
        self.meter = meter or ResourceMeter(window_seconds, model=model_name)
        ctx = obs.current()
        self._obs_events = ctx.events
        self._obs_errors = ctx.registry.counter(
            "ids.classifier_errors", model=model_name
        )
        self._aggregator = WindowAggregator(window_seconds, self._on_window)
        self.report = DetectionReport(model_name)
        self.window_listeners: list = []
        self.classifier_errors = 0
        self._last_index: int | None = None
        self._degraded_intervals: list[tuple[float, float]] = []
        # The scored window with the most packets (earliest on a tie):
        # finish() re-runs it once to measure the working set.
        self._busiest: RecordBatch | None = None

    # ------------------------------------------------------------------
    # Fault awareness

    def add_window_listener(self, listener) -> None:
        """Subscribe ``listener(index, window, predictions, status)``.

        Called after every *scored* window, a ``RecordBatch`` with one
        prediction per row (outage gap-fill windows carry no packets,
        hence no verdict to act on).  This is how mitigation
        couples to detection without monkey-patching the window handler.
        """
        self.window_listeners.append(listener)

    def mark_degraded(self, start: float, stop: float) -> None:
        """Declare [start, stop) a fault interval (partition, restart).

        Windows overlapping a declared interval are scored with a
        ``degraded`` verdict so the report can separate accuracy under
        faults from accuracy on healthy traffic.
        """
        if stop <= start:
            raise ValueError(f"degraded interval must have stop > start, got {start}..{stop}")
        self._degraded_intervals.append((start, stop))

    def _window_degraded(self, index: int) -> bool:
        start = index * self.window_seconds
        stop = start + self.window_seconds
        return any(s < stop and e > start for s, e in self._degraded_intervals)

    def _emit_outage(self, index: int) -> None:
        """Record a window the IDS saw nothing in — an explicit degraded
        verdict rather than a silent gap in the report."""
        self.report.windows.append(
            WindowResult(
                window_index=index,
                start_time=index * self.window_seconds,
                n_packets=0,
                n_malicious_true=0,
                n_malicious_predicted=0,
                accuracy=0.0,
                status=STATUS_DEGRADED,
            )
        )

    # ------------------------------------------------------------------
    # Pipeline

    def __call__(self, packet: "Packet", timestamp: float) -> None:
        """Live tap: one delivered frame (non-IP frames are skipped).

        This is the probe interface, so the IDS can be added to a
        channel like a ``PacketProbe``.
        """
        if packet.ip is not None:
            self._aggregator.add(packet_fields(packet, timestamp))

    def _detect(self, window: RecordBatch) -> np.ndarray:
        """One window's detection compute: features, scaling, verdicts."""
        X = self.extractor.transform_window(window)
        X = self.scaler.transform(X)  # rebinding frees the unscaled matrix
        return self.model.predict(X)

    def _on_window(self, index: int, window: RecordBatch) -> None:
        # Fill interior gaps: windows arrive only when non-empty, so
        # missing indices mean the tap went blind (partition / restart).
        if self._last_index is not None:
            for missing in range(self._last_index + 1, index):
                self._emit_outage(missing)
        self._last_index = index
        n_packets = len(window)
        labels = window.label.astype(int)
        status = STATUS_DEGRADED if self._window_degraded(index) else STATUS_HEALTHY
        self.meter.start_window()
        try:
            predictions = np.asarray(self._detect(window), dtype=int)
            if predictions.shape != (n_packets,):
                raise ValueError(
                    f"predict returned shape {predictions.shape} "
                    f"for {n_packets} packets"
                )
        except Exception:
            # Classifier/pipeline failure mid-run: degrade the window
            # instead of taking the whole IDS down with it.
            self.classifier_errors += 1
            self._obs_errors.inc()
            predictions = np.zeros(n_packets, dtype=int)
            status = STATUS_DEGRADED
        else:
            if self._busiest is None or n_packets > len(self._busiest):
                self._busiest = window
        finally:
            self.meter.end_window()
        accuracy = float(np.mean(predictions == labels))
        start_time = index * self.window_seconds
        self._obs_events.record(
            start_time, "ids.window", detail=self.model_name, value=accuracy
        )
        self.report.windows.append(
            WindowResult(
                window_index=index,
                start_time=start_time,
                n_packets=n_packets,
                n_malicious_true=int(labels.sum()),
                n_malicious_predicted=int(predictions.sum()),
                accuracy=accuracy,
                status=status,
            )
        )
        for listener in list(self.window_listeners):
            listener(index, window, predictions, status)

    def process(self, batch: RecordBatch, until: float | None = None) -> DetectionReport:
        """Score every window of a recorded capture and finish.

        The windows are ``batch.window_slices``, the ones training reads.
        ``until`` extends degraded-outage accounting to the capture's
        nominal end time: trailing windows the tap never saw (e.g. a
        partition running past the last packet) get explicit verdicts.
        """
        for index, window in batch.window_slices(self.window_seconds):
            self._on_window(index, window)
        return self.finish(until=until)

    @property
    def records_reordered(self) -> int:
        """Live rows that arrived behind a newer timestamp."""
        return self._aggregator.records_reordered

    @property
    def records_dropped_late(self) -> int:
        """Live rows dropped because their window had already been emitted."""
        return self._aggregator.records_dropped_late

    def finish(self, until: float | None = None) -> DetectionReport:
        """Flush the final partial window and attach sustainability.

        With ``until`` given, every window in ``[0, until)`` the tap
        never saw gets an explicit degraded verdict — including the
        trailing *partial* window (``until`` lands mid-window) and the
        total-blackout case where the IDS saw no packets at all.  The
        busiest scored window's compute runs once more, traced, for the
        memory column (none without a scored window).
        """
        self._aggregator.flush()
        if until is not None:
            # Ceil with a small tolerance: until exactly on a window
            # boundary (even when the float product lands a hair above
            # it) must not conjure an extra empty window, while any
            # genuinely live partial window must get a verdict.
            final_index = max(0, math.ceil(until / self.window_seconds - 1e-9))
            start = 0 if self._last_index is None else self._last_index + 1
            for missing in range(start, final_index):
                self._emit_outage(missing)
                self._last_index = missing
        busiest = self._busiest
        if busiest is not None:
            self.meter.measure_memory(lambda: self._detect(busiest))
        self.report.sustainability = self.meter.finalize(model_size_kb(self.model))
        return self.report
