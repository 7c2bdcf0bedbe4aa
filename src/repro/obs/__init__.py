"""repro.obs — unified telemetry: metrics, sim-time spans, run timelines.

One import surface for the three telemetry primitives plus the scoping
API every instrumented component uses::

    from repro import obs

    ctx = obs.current()                      # ambient context (disabled default)
    packets = ctx.registry.counter("sim.packets", node="cam-1")
    with ctx.tracer.span("tcp.handshake", node="cam-1"):
        ...
    with obs.scope() as octx:                # enable for one run
        result = run_full_experiment(...)
    snapshot = octx.snapshot(include_wall=False)   # deterministic export

Telemetry never perturbs the simulation (no scheduled events, no RNG)
and never enters pipeline cache keys.
"""

from repro.obs.context import ObsContext, current, run_log, scope
from repro.obs.events import EventLog, ObsEvent, events_from_dicts
from repro.obs.flight import FlightRecorder
from repro.obs.profile import KernelProfiler, callsite_label, classify_owner
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_INSTRUMENT,
    NullInstrument,
)
from repro.obs.timeline import RunTimeline, timeline_from_result
from repro.obs.trace import NULL_SPAN, Span, SpanHandle, SpanTracer, chrome_trace

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventLog",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "KernelProfiler",
    "MetricsRegistry",
    "NULL_INSTRUMENT",
    "NULL_SPAN",
    "NullInstrument",
    "ObsContext",
    "ObsEvent",
    "RunTimeline",
    "Span",
    "SpanHandle",
    "SpanTracer",
    "callsite_label",
    "chrome_trace",
    "classify_owner",
    "current",
    "events_from_dicts",
    "run_log",
    "scope",
    "timeline_from_result",
]
