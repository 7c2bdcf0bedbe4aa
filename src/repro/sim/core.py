"""Event-driven simulation kernel.

The :class:`Simulator` owns virtual time and a priority queue of pending
:class:`Event` objects.  Everything in the testbed — packet transmissions,
TCP retransmission timers, application think times, Mirai attack schedules
— is expressed as events scheduled on one shared simulator instance.

The kernel is instance-based rather than a process-wide singleton (unlike
NS-3's ``Simulator::Schedule``) so tests can run many independent
simulations in one interpreter without cross-talk.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.analysis.sanitizers import Sanitizer
    from repro.obs.registry import Counter, Gauge


#: Event times must be finite: one event at +inf would set ``now`` to inf
#: and every later ``schedule`` would land there too.
_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised on kernel misuse (negative delays, scheduling in the past,
    non-finite times)."""


@dataclass(eq=False, slots=True)
class Event:
    """A callback scheduled at an absolute virtual time.

    The simulator's heap holds ``(time, priority, seq, event)`` entries,
    so heapq compares plain tuples in C and pops events in
    :meth:`sort_key` order: chronological, lower ``priority`` first at
    the same timestamp, FIFO among equal ``(time, priority)``.  ``seq``
    is a per-simulator monotonic counter, so no two entries tie and a
    comparison never reaches the event itself — callbacks and payload
    are never compared (which would either raise or, worse, order by
    ``id()`` and silently differ between runs).  Events themselves
    define no ordering.  The bucket-shuffle race detector re-pushes a
    permuted bucket under fresh heap ``seq`` numbers; the event keeps
    the ``seq`` it was scheduled with.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[..., Any]
    args: tuple = ()
    cancelled: bool = False
    _sim: "Simulator | None" = field(default=None, repr=False)
    _in_heap: bool = field(default=False, repr=False)

    def sort_key(self) -> tuple[float, int, int]:
        """The deterministic total order the event heap uses."""
        return (self.time, self.priority, self.seq)

    def cancel(self) -> None:
        """Prevent the event from running; the owning simulator reclaims
        heap space lazily once enough cancelled events accumulate."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None and self._in_heap:
            self._sim._note_cancelled()


class PeriodicEvent:
    """Anchored periodic schedule: tick ``k`` fires at ``t0 + k*interval``.

    Rescheduling with ``schedule(interval, ...)`` from inside the callback
    accumulates float rounding (``now + interval`` drifts by one ulp every
    few thousand ticks), so tick counts near phase boundaries depend on
    how long the schedule has run.  Anchoring each tick to the start time
    keeps 10k ticks on exact multiples.
    """

    __slots__ = (
        "sim", "interval", "callback", "args", "priority", "t0",
        "ticks", "cancelled", "_event",
    )

    def __init__(
        self,
        sim: "Simulator",
        interval: float,
        callback: Callable[..., Any],
        args: tuple,
        priority: int,
        t0: float,
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.args = args
        self.priority = priority
        self.t0 = t0
        self.ticks = 0
        self.cancelled = False
        self._event: Event | None = sim.schedule_abs(
            t0 + interval, self._fire, priority=priority
        )

    @property
    def next_time(self) -> float:
        """Absolute time of the next tick (anchored, not accumulated)."""
        return self.t0 + (self.ticks + 1) * self.interval

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.ticks += 1
        self.callback(*self.args)
        if self.cancelled:
            return
        self._event = self.sim.schedule_abs(
            self.next_time, self._fire, priority=self.priority
        )

    def cancel(self) -> None:
        """Stop the periodic schedule (safe to call from the callback)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()


class Simulator:
    """Discrete-event scheduler with virtual time in seconds.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, do_something, arg1, arg2)
        sim.run(until=10.0)
    """

    #: Default event priority; transmissions and app logic use this.
    PRIORITY_NORMAL = 0
    #: Timers fire after normal events at the same instant.
    PRIORITY_TIMER = 1
    #: Compact the heap once cancelled events exceed this fraction of it
    #: (and the heap is large enough for the sweep to be worthwhile).
    COMPACT_FRACTION = 0.5
    COMPACT_MIN_SIZE = 64

    def __init__(
        self,
        sanitize: bool | str | None = None,
        shuffle_buckets: int | None = None,
    ) -> None:
        """``sanitize`` enables runtime invariant checks: ``True`` raises
        :class:`~repro.analysis.sanitizers.SanitizerError` on the first
        violation, ``"collect"`` records them on ``sanitizer.violations``,
        ``None`` (default) defers to the ``REPRO_SANITIZE`` env var.

        ``shuffle_buckets`` arms the bucket-shuffle race detector: a
        seed makes the kernel deterministically permute every
        equal-``(time, priority)`` event bucket before dispatch, so any
        hidden order dependence among "simultaneous" events (the hazard
        lint rule ORD002 flags statically) changes observable results.
        A correct simulation is bit-identical for every seed.  ``None``
        defers to the ``REPRO_SHUFFLE`` env var (unset/empty = off)."""
        from repro.analysis.sanitizers import make_sanitizer, shuffle_seed_from_env
        from repro import obs

        if shuffle_buckets is None:
            shuffle_buckets = shuffle_seed_from_env()
        self.shuffle_seed: int | None = shuffle_buckets
        self._shuffle_rng = (
            random.Random(shuffle_buckets) if shuffle_buckets is not None else None
        )
        self._now = 0.0
        #: ``(time, priority, seq, event)`` entries; see :class:`Event`.
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._events_executed = 0
        self._cancelled_in_heap = 0
        self._compactions = 0
        self.sanitizer: "Sanitizer | None" = make_sanitizer(sanitize)
        self._finalized = False
        # Telemetry handles are grabbed once here.  With the ambient
        # registry disabled all four are None, so the run loop and the
        # schedule calls pay one `is None` check, not a no-op call.
        # Instrumentation never schedules events or consumes RNG —
        # outcomes are identical either way.
        ctx = obs.current()
        registry = ctx.registry
        self._obs_dispatched: Counter | None = None
        self._obs_heap_depth: Gauge | None = None
        self._obs_compactions: Counter | None = None
        self._obs_buckets_drained: Counter | None = None
        if registry.enabled:
            self._obs_dispatched = registry.counter("sim.events_dispatched")
            self._obs_heap_depth = registry.gauge("sim.heap_depth")
            self._obs_compactions = registry.counter("sim.heap_compactions")
            self._obs_buckets_drained = registry.counter("sim.buckets_drained")
        # Flight recorder and profiler ride the same ambient context;
        # both default to None so the dispatch site pays one `is None`
        # check per event when observability is off (bound pinned by
        # repro.obs.bench / tests/test_obs.py).
        flight = ctx.flight
        self._flight = flight if (flight is not None and flight.enabled) else None
        profiler = ctx.profiler
        self._profiler = profiler if (profiler is not None and profiler.enabled) else None
        if ctx.enabled:
            ctx.tracer.bind_clock(lambda: self._now)
        if self.sanitizer is not None:
            self.sanitizer.register_simulator("sim", self)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events run so far (for instrumentation)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return len(self._heap) - self._cancelled_in_heap

    @property
    def heap_compactions(self) -> int:
        """How many lazy heap compactions have run (for instrumentation)."""
        return self._compactions

    def state_hash(self) -> str:
        """Digest of kernel-observable state for shuffle-identity checks.

        Covers virtual time, the executed-event count and the multiset
        of pending ``(time, priority)`` keys.  Event sequence numbers
        are deliberately excluded: they encode schedule *order*, which a
        bucket shuffle legitimately permutes — everything hashed here
        must be identical across shuffle seeds when handlers commute.
        """
        digest = hashlib.sha256()
        digest.update(f"{self._now!r}|{self._events_executed}".encode())
        pending = sorted(
            (when, priority)
            for when, priority, _, event in self._heap
            if not event.cancelled
        )
        for when, priority in pending:
            digest.update(f"|{when!r},{priority}".encode())
        return digest.hexdigest()

    def _note_cancelled(self) -> None:
        """An event in the heap was cancelled; compact if too many linger.

        Long fault/retry schedules cancel far-future events (retransmit
        timers, restart backoffs) that would otherwise sit in the heap
        until their original firing time.  Once they exceed
        ``COMPACT_FRACTION`` of the heap, rebuild it without them.
        """
        self._cancelled_in_heap += 1
        if (
            len(self._heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_in_heap > len(self._heap) * self.COMPACT_FRACTION
        ):
            kept = []
            for entry in self._heap:
                if entry[3].cancelled:
                    entry[3]._in_heap = False
                else:
                    kept.append(entry)
            # In-place so run()'s local heap alias stays valid when a
            # callback's cancellations trigger a sweep mid-run.
            self._heap[:] = kept
            heapq.heapify(self._heap)
            self._cancelled_in_heap = 0
            self._compactions += 1
            if self._obs_compactions is not None:
                self._obs_compactions.inc()
                self._obs_heap_depth.set(len(self._heap))

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # Written as `not >=` so NaN fails the check too.
        if not delay >= 0:
            raise SimulationError(
                f"delay must be a non-negative number of seconds, got {delay}"
            )
        # The push is inlined rather than delegated to schedule_abs: this
        # is the kernel's busiest entry point.  `now + delay >= now` holds
        # for any delay that passed the check above, so only the finite
        # check remains.
        when = self._now + delay
        if when == _INF:
            raise SimulationError(f"cannot schedule at t={when}: times must be finite")
        seq = next(self._seq)
        event = Event(when, priority, seq, callback, args, False, self, True)
        heapq.heappush(self._heap, (when, priority, seq, event))
        if self._obs_heap_depth is not None:
            self._obs_heap_depth.set(len(self._heap))
        return event

    def schedule_abs(
        self,
        when: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute virtual time ``when``."""
        if not when >= self._now:
            raise SimulationError(
                f"cannot schedule at t={when}: not a time at or after the "
                f"current time t={self._now}"
            )
        if when == _INF:  # -inf already failed the check above
            raise SimulationError(f"cannot schedule at t={when}: times must be finite")
        seq = next(self._seq)
        event = Event(when, priority, seq, callback, args, False, self, True)
        heapq.heappush(self._heap, (when, priority, seq, event))
        if self._obs_heap_depth is not None:
            self._obs_heap_depth.set(len(self._heap))
        return event

    def schedule_periodic(
        self,
        interval: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        t0: float | None = None,
    ) -> PeriodicEvent:
        """Run ``callback(*args)`` every ``interval`` seconds, drift-free.

        Tick ``k`` fires at exactly ``t0 + k*interval`` (``t0`` defaults to
        the current time); see :class:`PeriodicEvent`.  The first tick is at
        ``t0 + interval``.  Cancel via the returned handle.
        """
        if not 0 < interval < _INF:
            raise SimulationError(
                f"interval must be positive and finite, got {interval}"
            )
        anchor = self._now if t0 is None else t0
        if not abs(anchor) < _INF:
            raise SimulationError(f"t0 must be a finite time, got {t0}")
        return PeriodicEvent(self, interval, callback, args, priority, anchor)

    def run(self, until: float | None = None) -> None:
        """Run events in order until the queue drains or ``until`` is reached.

        One event is popped and dispatched per iteration, so a ``stop()``
        or an exception leaves every undispatched event pending.  When
        ``until`` is given, virtual time is advanced exactly to it on
        return even if the queue drained earlier, so back-to-back ``run``
        calls observe monotonic time.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run())")
        self._running = True
        self._stopped = False
        heap = self._heap
        shuffle = self._shuffle_rng
        # Telemetry counts buckets: runs of consecutive dispatches that
        # share one bit-equal (time, priority).
        last_key = None
        in_bucket = False
        try:
            while heap and not self._stopped:
                when, priority, seq, event = heap[0]
                if until is not None and when > until:
                    break
                heapq.heappop(heap)
                event._in_heap = False
                if event.cancelled:
                    # cancel() increments the ledger for every event that is
                    # in the heap, so the pop-side decrement is exact — a
                    # defensive `if > 0` guard here would mask drift and let
                    # COMPACT_FRACTION trigger spurious sweeps on long runs.
                    self._cancelled_in_heap -= 1
                    continue
                if (
                    shuffle is not None
                    and seq == event.seq  # not yet permuted
                    and heap
                    and heap[0][0] == when  # repro: lint-ok[FLT001]
                    and heap[0][1] == priority
                ):
                    self._shuffle_bucket(event)
                    continue
                if self.sanitizer is not None:
                    self.sanitizer.check_event(event, self._now)
                self._now = when
                self._events_executed += 1
                if self._obs_dispatched is not None:
                    self._obs_dispatched.inc()
                    self._obs_heap_depth.set(len(heap))
                    key = (when, priority)
                    if key == last_key:  # repro: lint-ok[FLT001]
                        if not in_bucket:
                            in_bucket = True
                            self._obs_buckets_drained.inc()
                    else:
                        last_key = key
                        in_bucket = False
                if self._flight is not None:
                    self._flight.note_dispatch(when, event.callback)
                if self._profiler is None:
                    event.callback(*event.args)
                else:
                    self._profiler.dispatch(event)
            if until is not None and not self._stopped and self._now < until:
                self._now = until
        finally:
            self._running = False
        if self.sanitizer is not None:
            self.sanitizer.check_conservation(self._now)

    def _shuffle_bucket(self, first: Event) -> None:
        """Race detector: bucket mates claim to commute, so a seeded
        permutation of ``[first, *mates]`` must not change results.

        The permuted bucket goes back on the heap under fresh ``seq``
        numbers, so events it schedules at the same instant still run
        after it, and a ``stop()`` or an exception leaves its rest
        pending.  Each event keeps the ``seq`` it was scheduled with:
        a heap entry whose ``seq`` differs was already permuted.
        """
        heap = self._heap
        bucket = [first]
        while (
            heap
            and heap[0][0] == first.time  # repro: lint-ok[FLT001]
            and heap[0][1] == first.priority
        ):
            mate = heapq.heappop(heap)[3]
            if mate.cancelled:
                mate._in_heap = False
                self._cancelled_in_heap -= 1
            else:
                bucket.append(mate)
        self._shuffle_rng.shuffle(bucket)
        for event in bucket:
            event._in_heap = True
            heapq.heappush(heap, (event.time, event.priority, next(self._seq), event))

    def finalize(self) -> None:
        """Run end-of-simulation sanitizer checks (idempotent).

        With sanitizers enabled this verifies packet conservation and
        socket/port hygiene one last time; without them it is a no-op,
        so experiment flows can call it unconditionally.
        """
        if self.sanitizer is None or self._finalized:
            return
        self._finalized = True
        self.sanitizer.finalize(self._now)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def clear(self) -> None:
        """Drop all pending events (used between experiment phases)."""
        for entry in self._heap:
            entry[3]._in_heap = False
        self._heap.clear()
        self._cancelled_in_heap = 0
