"""The process-wide, explicitly-scoped telemetry context.

Instrumented components (the event kernel, queues, TCP, containers, the
IDS) fetch the *current* :class:`ObsContext` at construction time and
hold instrument handles.  The default context is disabled — every handle
is a shared null object, so leaving instrumentation in hot paths costs
one no-op method call.

Telemetry is turned on by *scoping*, never by mutating global flags from
afar::

    with obs.scope() as octx:          # fresh enabled context
        result = run_full_experiment(...)
    snapshot = octx.snapshot()

``scope()`` swaps the process-wide current context for the duration of
the ``with`` block and restores the previous one after, so nested
scopes (a campaign run inside a test inside a session) compose.  The
context is process-wide by design: simulation components are constructed
many layers below the experiment entry points, and threading an explicit
handle through every constructor would couple all of them to telemetry.
Each ``multiprocessing`` worker gets its own module state, so campaign
shards cannot cross-talk.

Crucially, enabling telemetry never perturbs the simulation: no extra
events are scheduled, no RNG is consumed — instruments only append to
side logs.  A run with telemetry on is bit-identical (in simulation
outcomes) to the same seed with telemetry off.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.events import EventLog
from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder
from repro.obs.profile import KernelProfiler
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanTracer


@dataclass
class ObsContext:
    """One telemetry scope: metrics + spans + events, on or off together.

    An enabled context also carries a :class:`FlightRecorder` (the crash
    postmortem ring — always on with telemetry, it is nearly free) and,
    when requested with ``make(profile=True)``, a
    :class:`KernelProfiler` that the event kernel routes dispatches
    through.
    """

    registry: MetricsRegistry
    tracer: SpanTracer
    events: EventLog
    enabled: bool
    flight: FlightRecorder | None = None
    profiler: KernelProfiler | None = None

    @classmethod
    def make(
        cls,
        enabled: bool = True,
        profile: bool = False,
        flight_capacity: int = DEFAULT_CAPACITY,
    ) -> "ObsContext":
        flight = FlightRecorder(capacity=flight_capacity) if enabled else None
        ctx = cls(
            registry=MetricsRegistry(enabled=enabled),
            tracer=SpanTracer(enabled=enabled),
            events=EventLog(enabled=enabled),
            enabled=enabled,
            flight=flight,
            profiler=KernelProfiler() if (enabled and profile) else None,
        )
        # Spans and metric events feed the flight ring as they happen.
        ctx.tracer.flight = flight
        ctx.events.flight = flight
        return ctx

    def snapshot(self, include_wall: bool = True) -> dict:
        """JSON-able dump of everything this scope observed.

        With ``include_wall=False`` the result is deterministic for a
        seed: wall-clock metrics, span wall costs, and profiler wall
        attributions are dropped (sim-time content is identical either
        way).
        """
        payload = {
            "metrics": self.registry.snapshot(include_wall=include_wall),
            "spans": self.tracer.to_dicts(include_wall=include_wall),
            "events": self.events.to_dicts(),
            "flight": self.flight.to_dicts() if self.flight is not None else [],
        }
        if self.profiler is not None:
            payload["profile"] = self.profiler.snapshot(include_wall=include_wall)
        return payload


_DISABLED = ObsContext.make(enabled=False)
_current = _DISABLED


def current() -> ObsContext:
    """The context instrumented components should record into *now*."""
    return _current


def run_log() -> EventLog:
    """A fresh always-on run log that mirrors into the current scope's events."""
    log = EventLog()
    log.mirror = _current.events
    return log


@contextmanager
def scope(ctx: ObsContext | None = None, profile: bool = False) -> Iterator[ObsContext]:
    """Make ``ctx`` (default: a fresh enabled context) current for a block."""
    global _current
    if ctx is None:
        ctx = ObsContext.make(enabled=True, profile=profile)
    previous = _current
    _current = ctx
    try:
        yield ctx
    finally:
        _current = previous
