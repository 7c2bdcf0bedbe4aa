"""Crash flight recorder: a bounded ring of recent telemetry moments.

A :class:`FlightRecorder` keeps the last N kernel dispatches, metric
events, and span opens/closes in a fixed-size ring.  It records nothing
to disk and nothing in steady state beyond the ring itself; its only
output is :meth:`dump`, called when something goes wrong — a fatal
:class:`~repro.analysis.sanitizers.SanitizerError`, a campaign run
timeout, or a crashed campaign worker — so a poisoned run leaves a
postmortem (what the kernel was doing just before death, plus the
metric state at that instant) instead of just an error string.

Everything stored is simulation-time data: entry times are sim seconds
and the attached metric snapshot excludes wall-clock instruments, so a
dump is deterministic for a seed and safe to diff across repeats.  Like
the rest of ``repro.obs``, the recorder never schedules events or
consumes RNG.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.obs.profile import callsite_label

#: Default ring size: enough to see the last few same-instant buckets and the
#: spans around them without holding a whole run in memory.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring buffer of recent observability moments."""

    __slots__ = ("capacity", "enabled", "total_recorded", "_ring")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.total_recorded = 0
        # Entries are (time, kind, detail, value); detail may be a raw
        # callback for dispatch entries, resolved to a label lazily so
        # the hot path does no string work.
        self._ring: deque = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._ring)

    def note(self, time: float, kind: str, detail: str = "", value: float = 1.0) -> None:
        """Record a generic moment (metric event, span edge, marker)."""
        if not self.enabled:
            return
        self.total_recorded += 1
        self._ring.append((time, kind, detail, value))

    def note_dispatch(self, time: float, callback: Any) -> None:
        """Record a kernel dispatch.  Hot path: callers pre-check for a
        live recorder, and the callback is stored raw (no formatting)."""
        self.total_recorded += 1
        self._ring.append((time, "dispatch", callback, 1.0))

    def to_dicts(self) -> list[dict]:
        """Ring contents oldest-first, with callbacks resolved to labels."""
        rows = []
        for time, kind, detail, value in self._ring:
            if not isinstance(detail, str):
                detail = callsite_label(detail)
            rows.append({"time": time, "kind": kind, "detail": detail, "value": value})
        return rows

    def dump(self, registry: Any = None) -> dict:
        """Postmortem payload: the ring plus (optionally) the metric
        state at dump time — the crash-instant values of every counter
        and gauge, which is the 'metric deltas' view of what the run had
        done so far.  Wall-clock metrics are excluded to keep the dump
        deterministic."""
        payload: dict = {
            "capacity": self.capacity,
            "total_recorded": self.total_recorded,
            "entries": self.to_dicts(),
        }
        if registry is not None:
            payload["metrics"] = registry.snapshot(include_wall=False)
        return payload
