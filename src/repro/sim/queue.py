"""Transmit queues for net devices.

CSMA devices enqueue frames while the channel is busy.  Under a DDoS
flood the queue overflows and drops packets — the mechanism by which the
simulated TServer's goodput collapses, exactly as on a real congested
link.  Capacity is counted in packets.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.sim.packet import Packet

if TYPE_CHECKING:
    from repro.obs.registry import Counter


class DropTailQueue:
    """Fixed-capacity FIFO that drops arrivals when full."""

    def __init__(self, capacity: int = 100) -> None:
        if capacity < 1:
            raise ValueError(f"queue capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._items: deque[Packet] = deque()
        self.enqueued = 0
        self.dropped = 0
        self.dequeued = 0
        self.flushed = 0
        # Telemetry stays off until bind_obs() — a bare queue (unit
        # tests) registers nothing; owners label it once they know its
        # name and clock.  Counters stay None while the registry is
        # disabled, so the per-frame path pays an `is None` check, not a
        # no-op call.
        self._obs_enqueued: Counter | None = None
        self._obs_dropped: Counter | None = None
        self._obs_flushed: Counter | None = None
        self._obs_events = obs.current().events
        self._obs_name = ""
        self._obs_clock: Callable[[], float] | None = None

    def bind_obs(self, name: str, clock: Callable[[], float]) -> None:
        """Attach a queue name and sim clock for labeled, timestamped telemetry."""
        registry = obs.current().registry
        if registry.enabled:
            self._obs_enqueued = registry.counter("queue.enqueued", queue=name)
            self._obs_dropped = registry.counter("queue.dropped", queue=name)
            self._obs_flushed = registry.counter("queue.flushed", queue=name)
        self._obs_name = name
        self._obs_clock = clock

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def _record_drop_event(self) -> None:
        if self._obs_events.enabled and self._obs_clock is not None:
            self._obs_events.record(
                self._obs_clock(), "queue.drop", detail=self._obs_name
            )

    def enqueue(self, packet: Packet) -> bool:
        """Append ``packet``; return False (and count a drop) when full."""
        if self.is_full:
            self.dropped += 1
            if self._obs_dropped is not None:
                self._obs_dropped.inc()
            self._record_drop_event()
            return False
        self._items.append(packet)
        self.enqueued += 1
        if self._obs_enqueued is not None:
            self._obs_enqueued.inc()
        return True

    def dequeue(self) -> Packet | None:
        """Pop the oldest packet."""
        if not self._items:
            return None
        self.dequeued += 1
        return self._items.popleft()

    def peek(self) -> Packet | None:
        """Look at the oldest packet without removing it."""
        return self._items[0] if self._items else None

    def conservation_error(self) -> str | None:
        """Describe a packet-conservation breach, or None when conserved.

        The invariant (checked by the runtime sanitizers): every packet
        ever accepted is either dequeued, flushed, or still queued —
        ``enqueued == dequeued + flushed + len(queue)``.
        """
        backlog = len(self._items)
        if self.enqueued != self.dequeued + self.flushed + backlog:
            return (
                f"enqueued={self.enqueued} != dequeued={self.dequeued} + "
                f"flushed={self.flushed} + backlog={backlog}"
            )
        return None

    def clear(self) -> None:
        """Discard all queued packets, accounting them as flushed.

        Flushes happen on link partition or container kill; counting them
        keeps queue statistics conserved:
        ``enqueued == dequeued + flushed + len(queue)``
        (``dropped`` counts rejected arrivals, which were never enqueued).
        """
        if self._obs_flushed is not None:
            self._obs_flushed.inc(len(self._items))
        self.flushed += len(self._items)
        self._items.clear()
