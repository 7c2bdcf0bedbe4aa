"""Run timelines: one per-second table joining every telemetry source.

The paper's evaluation *is* a timeline — per-second accuracy with dips
at attack boundaries, traffic volume collapsing under flood, queue
overflow onset.  :class:`RunTimeline` joins those series into one table:
packet and malicious counts per bucket (from the IDS window verdicts),
per-model bucketed accuracy (from
:meth:`~repro.ids.report.DetectionReport.per_second_accuracy`), and
per-kind event counts (queue drops, fault activations, attack edges,
supervisor restarts) from the telemetry event log — so a dip in one
column is attributable to the events in the same row.

Exports: JSON and CSV (deterministic — timeline content is sim-time
only), and an ASCII chart (``ddoshield timeline``) rendering traffic
bars, an accuracy column, and event markers per second.
"""

from __future__ import annotations

import json
import math
from typing import TYPE_CHECKING, Iterable

from repro.obs.events import ObsEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ids.report import DetectionReport

#: Event-kind prefixes surfaced as row markers in the ASCII chart.
MARKER_PREFIXES = ("attack", "fault", "supervisor", "mitigation")

#: Widest bucket span the dense export will materialize; beyond this the
#: export falls back to sparse rows (only buckets that hold data).  A
#: single stray far-future timestamp must not turn a chart render into a
#: multi-gigabyte allocation.
MAX_DENSE_BUCKETS = 100_000


class RunTimeline:
    """A sparse per-bucket table with deterministic dense export."""

    def __init__(self, bucket_seconds: float = 1.0) -> None:
        if bucket_seconds <= 0:
            raise ValueError(f"bucket_seconds must be positive, got {bucket_seconds}")
        self.bucket_seconds = bucket_seconds
        self._cells: dict[int, dict[str, float]] = {}
        self._marks: dict[int, list[str]] = {}
        self._columns: list[str] = []

    # ------------------------------------------------------------------
    # Building

    def _bucket(self, time: float) -> int:
        return int(time // self.bucket_seconds)

    def _cell(self, bucket: int) -> dict[str, float]:
        return self._cells.setdefault(bucket, {})

    def _register_column(self, column: str) -> None:
        if column not in self._columns:
            self._columns.append(column)

    def add_value(self, time: float, column: str, value: float, mode: str = "sum") -> None:
        """Record ``value`` into ``column`` at ``time``'s bucket.

        ``mode="sum"`` accumulates (counts); ``mode="set"`` overwrites
        (point-in-time series like accuracy or queue depth).  Non-finite
        times or values (NaN/inf from a degenerate zero-duration run)
        are dropped rather than poisoning the bucket index.
        """
        if not (math.isfinite(time) and math.isfinite(value)):
            return
        self._register_column(column)
        cell = self._cell(self._bucket(time))
        if mode == "sum":
            cell[column] = cell.get(column, 0.0) + value
        elif mode == "set":
            cell[column] = value
        else:
            raise ValueError(f"mode must be 'sum' or 'set', got {mode!r}")

    def add_mark(self, time: float, mark: str) -> None:
        """Attach a human-readable marker to ``time``'s bucket."""
        if not math.isfinite(time):
            return
        marks = self._marks.setdefault(self._bucket(time), [])
        if mark not in marks:
            marks.append(mark)

    def add_windows(self, report: "DetectionReport") -> None:
        """Traffic columns plus one accuracy column from an IDS report."""
        for window in report.windows:
            self.add_value(window.start_time, "packets", window.n_packets)
            self.add_value(window.start_time, "malicious", window.n_malicious_true)
            if window.is_degraded:
                self.add_value(window.start_time, "degraded_windows", 1.0)
        self.add_accuracy(report)

    def add_accuracy(self, report: "DetectionReport") -> None:
        """One ``acc.<model>`` column from the report's bucketed series."""
        column = f"acc.{report.model_name}"
        for entry in report.per_second_accuracy(self.bucket_seconds):
            self.add_value(entry["second"], column, entry["accuracy"], mode="set")

    def add_events(self, events: Iterable[ObsEvent | dict]) -> None:
        """Per-kind event-count columns plus chart markers."""
        for event in events:
            if isinstance(event, dict):
                event = ObsEvent.from_dict(event)
            self.add_value(event.time, f"ev.{event.kind}", event.value)
            if event.kind.split(".", 1)[0] in MARKER_PREFIXES:
                mark = f"{event.kind}[{event.detail}]" if event.detail else event.kind
                self.add_mark(event.time, mark)

    # ------------------------------------------------------------------
    # Export

    @property
    def columns(self) -> list[str]:
        """Column names in deterministic order (registration, then name)."""
        return sorted(self._columns)

    def rows(self) -> list[dict]:
        """Dense per-bucket rows from the first to the last seen bucket.

        When the bucket span exceeds :data:`MAX_DENSE_BUCKETS` (a stray
        far-future sample, or marks scattered over a huge idle range)
        only populated buckets are emitted, keeping the export bounded
        by data volume instead of time span.
        """
        if not self._cells and not self._marks:
            return []
        buckets = set(self._cells) | set(self._marks)
        first, last = min(buckets), max(buckets)
        if last - first + 1 > MAX_DENSE_BUCKETS:
            ordered: Iterable[int] = sorted(buckets)
        else:
            ordered = range(first, last + 1)
        columns = self.columns
        out = []
        for bucket in ordered:
            cell = self._cells.get(bucket, {})
            row: dict = {"second": bucket * self.bucket_seconds}
            for column in columns:
                row[column] = cell.get(column, 0.0)
            row["events"] = ";".join(self._marks.get(bucket, []))
            out.append(row)
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "bucket_seconds": self.bucket_seconds,
                "columns": self.columns,
                "rows": self.rows(),
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        columns = ["second"] + self.columns + ["events"]
        lines = [",".join(columns)]
        for row in self.rows():
            rendered = []
            for column in columns:
                value = row[column]
                if isinstance(value, float) and math.isfinite(value) and value == int(value):
                    rendered.append(str(int(value)))
                else:
                    rendered.append(str(value))
            lines.append(",".join(rendered))
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Rendering

    def render_ascii(
        self,
        traffic: str = "packets",
        accuracy: str | None = None,
        width: int = 40,
    ) -> str:
        """Per-second chart: traffic bar, accuracy %, event markers.

        ``accuracy`` picks an ``acc.<model>`` column; default is the
        first accuracy column present.
        """
        rows = self.rows()
        if not rows:
            return "(empty timeline)"
        if accuracy is None:
            acc_columns = [c for c in self.columns if c.startswith("acc.")]
            accuracy = acc_columns[0] if acc_columns else None
        peak = max((row.get(traffic, 0.0) for row in rows), default=0.0)
        title = f"{traffic} (peak {int(peak)})"
        if accuracy is not None:
            title += f" | {accuracy}"
        lines = [f"  t(s)  {title}", f"  {'-' * (8 + width + 18)}"]
        for row in rows:
            value = row.get(traffic, 0.0)
            bar = "#" * (int(round(width * value / peak)) if peak else 0)
            line = f"{row['second']:>6.0f}  {bar:<{width}} {int(value):>7}"
            if accuracy is not None:
                cell = self._cells.get(self._bucket(row["second"]), {})
                if accuracy in cell:
                    line += f"  {100.0 * cell[accuracy]:5.1f}%"
                else:
                    line += "       -"  # no scored window in this bucket
            if row["events"]:
                line += f"  {row['events']}"
            drops = row.get("ev.queue.drop", 0.0)
            if drops:
                line += f"  [queue drops: {int(drops)}]"
            lines.append(line)
        return "\n".join(lines)


def timeline_from_result(
    result,
    bucket_seconds: float = 1.0,
    events: Iterable[ObsEvent | dict] | None = None,
) -> RunTimeline:
    """Build the unified timeline of an experiment run.

    ``result`` is an :class:`~repro.testbed.experiment.ExperimentResult`;
    traffic columns come from the first detection report's windows (all
    models observe the same capture), accuracy columns from every
    report.  Events default to the run's attached telemetry snapshot;
    without telemetry, the run's own fault, supervisor and mitigation
    events (``result.events``) are used so dips stay attributable.
    """
    timeline = RunTimeline(bucket_seconds)
    reports = list(getattr(result, "detection", []))
    if reports:
        timeline.add_windows(reports[0])
        for report in reports[1:]:
            timeline.add_accuracy(report)
    if events is None:
        telemetry = getattr(result, "telemetry", None)
        events = telemetry.get("events", []) if telemetry else getattr(result, "events", [])
    timeline.add_events(events)
    mitigation = getattr(result, "mitigation", None)
    if mitigation:
        add_impact_series(timeline, mitigation.get("impact", []))
    return timeline


def add_impact_series(timeline: RunTimeline, samples: Iterable[dict]) -> None:
    """Join victim-impact samples into the timeline's recovery columns.

    ``samples`` are :class:`~repro.testbed.impact.ImpactSample` dicts;
    ``goodput`` and ``half_open`` are point-in-time, while the cumulative
    ``accepted`` counter is differenced into per-bucket connection
    completions (``conn.accepted``) so the column reads as a rate.
    """
    last_accepted: int | None = None
    for sample in samples:
        time = sample["time"]
        timeline.add_value(time, "goodput", sample["goodput_bytes"], mode="set")
        timeline.add_value(time, "half_open", sample["half_open"], mode="set")
        accepted = sample.get("accepted", 0)
        if last_accepted is not None:
            timeline.add_value(time, "conn.accepted", accepted - last_accepted)
        last_accepted = accepted
