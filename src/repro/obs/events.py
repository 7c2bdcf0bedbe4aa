"""Sim-time events: the one record of what happened during a run.

Counters say *how many*; events say *when*.  An :class:`ObsEvent` is one
timestamped fact — a queue drop, a fault activation, an attack launch, a
supervisor restart, a mitigation block, an IDS window verdict — recorded
against the simulator's virtual clock, so per-second timeline buckets can
attribute an accuracy dip or traffic spike to what happened in that same
second.

Two kinds of :class:`EventLog` hold them.  The telemetry log of an obs
scope (disabled by default; recording into it is then a no-op) collects
every instrumented component's events.  Each testbed also keeps an
always-on *run log* (:func:`repro.obs.run_log`): the fault injector, the
container supervisor and the mitigation controller record into it, it
mirrors each record into the telemetry log when a scope is on, and it
calls its subscribers as events arrive — the mitigation fallback is one.

Events are deterministic by construction: they carry only sim-time and
sim-derived values, never wall clocks, and export in a stable sort
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True, slots=True)
class ObsEvent:
    """One timestamped fact.

    ``kind`` is dotted and hierarchical (``queue.drop``,
    ``fault.activate``, ``attack.start``, ``supervisor.restart``,
    ``mitigation.block``, ``ids.window``); ``detail`` narrows it (queue
    name, fault or attack kind, container, blocked source) and ``value``
    carries an optional measurement (defaults to 1.0 so plain
    occurrences sum into per-second counts).  ``targets`` names whom the
    event concerns (a fault spec's targets, the supervised container)
    and ``note`` is free-form context for people (``frames_hit=…``,
    ``restart in …s``).
    """

    time: float
    kind: str
    detail: str = ""
    value: float = 1.0
    targets: tuple[str, ...] = ()
    note: str = ""

    def to_dict(self) -> dict:
        """JSON-able form; ``targets`` and ``note`` only when set."""
        payload: dict = {
            "time": self.time,
            "kind": self.kind,
            "detail": self.detail,
            "value": self.value,
        }
        if self.targets:
            payload["targets"] = list(self.targets)
        if self.note:
            payload["note"] = self.note
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ObsEvent":
        return cls(
            payload["time"],
            payload["kind"],
            payload.get("detail", ""),
            payload.get("value", 1.0),
            tuple(payload.get("targets", ())),
            payload.get("note", ""),
        )


class EventLog:
    """An append-only, optionally disabled log of :class:`ObsEvent`.

    ``subscribers`` are called with each event after it is appended.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: list[ObsEvent] = []
        self.subscribers: list[Callable[[ObsEvent], None]] = []
        # Another log that receives every event (a run log's telemetry
        # mirror, wired by obs.run_log).
        self.mirror: EventLog | None = None
        # Optional FlightRecorder mirror of recorded events (wired by
        # ObsContext.make; plain attribute to avoid imports).
        self.flight = None

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[ObsEvent]:
        return iter(self.events)

    def record(
        self,
        time: float,
        kind: str,
        detail: str = "",
        value: float = 1.0,
        targets: tuple[str, ...] = (),
        note: str = "",
    ) -> None:
        """Append one event (no-op when the log is disabled)."""
        if self.enabled:
            self.add(ObsEvent(time, kind, detail, value, targets, note))

    def add(self, event: ObsEvent) -> None:
        """Append ``event``, mirror it, then tell the subscribers."""
        if not self.enabled:
            return
        self.events.append(event)
        if self.flight is not None:
            self.flight.note(event.time, event.kind, event.detail, event.value)
        if self.mirror is not None:
            self.mirror.add(event)
        for subscriber in tuple(self.subscribers):
            subscriber(event)

    def by_kind(self, prefix: str) -> list[ObsEvent]:
        """Events whose kind equals or starts with ``prefix``."""
        return [
            e
            for e in self.events
            if e.kind == prefix or e.kind.startswith(prefix + ".")
        ]

    def to_dicts(self) -> list[dict]:
        """Deterministically ordered JSON-able export."""
        ordered = sorted(self.events, key=lambda e: (e.time, e.kind, e.detail))
        return [e.to_dict() for e in ordered]


def events_from_dicts(payload: Iterable[dict]) -> list[ObsEvent]:
    """Rebuild events from an exported snapshot."""
    return [ObsEvent.from_dict(entry) for entry in payload]
