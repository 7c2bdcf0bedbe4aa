"""Runtime simulation sanitizers (TSan/ASan-style, for the event kernel).

Opt-in invariant checkers enabled with ``Simulator(sanitize=True)`` or
``REPRO_SANITIZE=1``.  Components self-register as they are built
(simulators, net device queues, channels, TCP stacks) and the simulator
consults the sanitizer:

* per executed event — **event-time monotonicity** (no event may run
  before current virtual time);
* at every ``run()`` drain — **kernel cancel-ledger exactness** (the
  lazy-compaction counter equals the cancelled events in the heap) and
  **packet conservation** per queue
  (``enqueued == dequeued + flushed + len(queue)``) and per channel
  (``dequeued == delivered + impaired + filtered + in-flight``);
* at :meth:`~repro.sim.core.Simulator.finalize` — **socket/port leak
  detection** (no CLOSED-but-registered sockets, no ephemeral port held
  without an owner).

Each violation raises :class:`SanitizerError` with a context snapshot in
fatal mode (the default), or is collected on ``Sanitizer.violations``
with ``Simulator(sanitize="collect")`` / ``REPRO_SANITIZE=collect``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.sim.channel import CsmaChannel
    from repro.sim.queue import DropTailQueue
    from repro.sim.tcp import TcpStack

#: Truthy spellings accepted by the REPRO_SANITIZE environment variable.
_ENV_TRUE = frozenset({"1", "true", "yes", "on"})
_ENV_FALSE = frozenset({"", "0", "false", "no", "off"})


def shuffle_seed_from_env(env: dict[str, str] | None = None) -> int | None:
    """Resolve ``REPRO_SHUFFLE`` to a bucket-shuffle seed (None = off).

    The seed drives :class:`~repro.sim.core.Simulator`'s deterministic
    permutation of equal-``(time, priority)`` event buckets — the
    runtime race detector for handlers ORD002 reasons about statically.
    """
    raw = (env if env is not None else os.environ).get("REPRO_SHUFFLE", "")
    value = raw.strip()
    if value == "" or value.lower() in ("0", "off", "false", "no"):
        return None
    try:
        return int(value, 0)
    except ValueError:
        raise ValueError(
            f"REPRO_SHUFFLE={raw!r} not understood (integer seed, or empty/0 "
            "to disable)"
        ) from None


def sanitize_mode_from_env(env: dict[str, str] | None = None) -> bool | str:
    """Resolve ``REPRO_SANITIZE`` to False / True / ``"collect"``."""
    raw = (env if env is not None else os.environ).get("REPRO_SANITIZE", "")
    value = raw.strip().lower()
    if value in _ENV_FALSE:
        return False
    if value in _ENV_TRUE:
        return True
    if value == "collect":
        return "collect"
    raise ValueError(
        f"REPRO_SANITIZE={raw!r} not understood (use 1/0 or 'collect')"
    )


class SanitizerError(RuntimeError):
    """A simulation invariant was violated (sanitizers enabled, fatal mode)."""

    def __init__(self, kind: str, message: str, context: dict[str, Any]):
        self.kind = kind
        self.context = dict(context)
        detail = ", ".join(f"{k}={v!r}" for k, v in sorted(self.context.items()))
        super().__init__(f"[{kind}] {message}" + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class Violation:
    """One recorded invariant violation (non-fatal mode)."""

    kind: str
    message: str
    time: float
    context: tuple[tuple[str, Any], ...]

    def describe(self) -> str:
        detail = ", ".join(f"{k}={v!r}" for k, v in self.context)
        return f"t={self.time:.6f} [{self.kind}] {self.message}" + (
            f" ({detail})" if detail else ""
        )


@dataclass
class Sanitizer:
    """Invariant checker shared by one simulator and its components."""

    fatal: bool = True
    violations: list[Violation] = field(default_factory=list)
    _queues: list[tuple[str, "DropTailQueue"]] = field(default_factory=list)
    _channels: list[tuple[str, "CsmaChannel"]] = field(default_factory=list)
    _tcp_stacks: list["TcpStack"] = field(default_factory=list)
    _simulators: list[tuple[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Registration (called by components as the testbed is assembled)

    def register_simulator(self, label: str, sim: Any) -> None:
        self._simulators.append((label, sim))

    def register_queue(self, label: str, queue: "DropTailQueue") -> None:
        self._queues.append((label, queue))

    def register_channel(self, label: str, channel: "CsmaChannel") -> None:
        self._channels.append((label, channel))

    def register_tcp_stack(self, stack: "TcpStack") -> None:
        self._tcp_stacks.append(stack)

    # ------------------------------------------------------------------
    # Violation plumbing

    def violation(
        self, kind: str, message: str, time: float = 0.0, **context: Any
    ) -> None:
        """Raise (fatal mode) or record one violation."""
        if self.fatal:
            error = SanitizerError(kind, message, context)
            # When an obs scope is live, ship the flight-recorder ring
            # with the error so the fatal violation carries a postmortem
            # of the kernel's last moments, not just an invariant name.
            from repro import obs

            ctx = obs.current()
            if ctx.enabled and ctx.flight is not None:
                error.flight_dump = ctx.flight.dump(registry=ctx.registry)
            raise error
        self.violations.append(
            Violation(
                kind=kind,
                message=message,
                time=time,
                context=tuple(sorted(context.items())),
            )
        )

    def report(self) -> str:
        """Human-readable summary of collected violations."""
        if not self.violations:
            return "sanitizers: clean (no violations)"
        lines = [f"sanitizers: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v.describe()}" for v in self.violations)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Checks

    def check_event(self, event: Any, now: float) -> None:
        """Event-time monotonicity: nothing executes before current time.

        Written as ``not >=`` so a NaN event time is flagged too."""
        if not event.time >= now:
            self.violation(
                "event-monotonicity",
                "event scheduled to execute before current simulation time",
                time=now,
                event_time=event.time,
                now=now,
                callback=getattr(event.callback, "__qualname__", repr(event.callback)),
            )

    def check_conservation(self, now: float) -> None:
        """Kernel cancel ledger plus packet conservation per queue/channel."""
        for label, sim in self._simulators:
            # Kernel cancel-ledger exactness: the lazy-compaction counter
            # must equal the number of cancelled events actually sitting in
            # the heap, or COMPACT_FRACTION fires spurious sweeps (drifted
            # high) / never fires (drifted low).
            actual = sum(1 for entry in sim._heap if entry[3].cancelled)
            if actual != sim._cancelled_in_heap:
                self.violation(
                    "kernel-ledger",
                    f"simulator {label} cancel ledger drifted from the heap",
                    time=now,
                    simulator=label,
                    ledger=sim._cancelled_in_heap,
                    cancelled_in_heap=actual,
                    heap_depth=len(sim._heap),
                )
        for label, queue in self._queues:
            problem = queue.conservation_error()
            if problem is not None:
                self.violation(
                    "queue-conservation",
                    f"queue {label} leaked packets: {problem}",
                    time=now,
                    queue=label,
                    enqueued=queue.enqueued,
                    dequeued=queue.dequeued,
                    flushed=queue.flushed,
                    backlog=len(queue),
                )
        for label, channel in self._channels:
            in_flight = getattr(channel, "frames_in_flight", 0)
            dequeued = getattr(channel, "frames_dequeued", None)
            if dequeued is None:
                continue
            filtered = getattr(channel, "frames_filtered", 0)
            accounted = (
                channel.frames_delivered + channel.frames_impaired + filtered + in_flight
            )
            if dequeued != accounted:
                self.violation(
                    "channel-conservation",
                    f"channel {label} lost frames: dequeued != "
                    "delivered + impaired + filtered + in-flight",
                    time=now,
                    channel=label,
                    dequeued=dequeued,
                    delivered=channel.frames_delivered,
                    impaired=channel.frames_impaired,
                    filtered=filtered,
                    in_flight=in_flight,
                )
            if in_flight < 0:
                self.violation(
                    "channel-conservation",
                    f"channel {label} delivered more frames than it transmitted",
                    time=now,
                    channel=label,
                    in_flight=in_flight,
                )

    def check_teardown(self, now: float) -> None:
        """Socket/port leak detection at simulator teardown."""
        from repro.sim.tcp import EPHEMERAL_BASE, TcpState

        for stack in self._tcp_stacks:
            node_name = stack.node.name
            for key, sock in list(stack.sockets.items()):
                if sock.state is TcpState.CLOSED:
                    self.violation(
                        "socket-leak",
                        f"node {node_name} holds a CLOSED socket that was "
                        "never deregistered",
                        time=now,
                        node=node_name,
                        local_port=sock.local_port,
                        remote_port=sock.remote_port,
                    )
            owned = {
                sock.local_port
                for sock in stack.sockets.values()
            } | set(stack.listeners)
            for port in sorted(stack._ports_in_use):
                if port >= EPHEMERAL_BASE and port not in owned:
                    self.violation(
                        "port-leak",
                        f"node {node_name} holds ephemeral port {port} with "
                        "no owning socket",
                        time=now,
                        node=node_name,
                        port=port,
                    )
            for sock in stack.sockets.values():
                if (
                    sock.local_port >= EPHEMERAL_BASE
                    and sock.local_port not in stack._ports_in_use
                ):
                    self.violation(
                        "port-leak",
                        f"node {node_name} socket port {sock.local_port} was "
                        "released while the socket is still registered",
                        time=now,
                        node=node_name,
                        port=sock.local_port,
                    )

    def finalize(self, now: float) -> list[Violation]:
        """Run every teardown check; returns collected violations."""
        self.check_conservation(now)
        self.check_teardown(now)
        return list(self.violations)


def make_sanitizer(sanitize: bool | str | None) -> Sanitizer | None:
    """Resolve a ``Simulator(sanitize=…)`` argument to a sanitizer.

    ``None`` defers to ``REPRO_SANITIZE``; ``True`` is fatal mode;
    ``"collect"`` records violations without raising; ``False`` disables.
    """
    mode = sanitize_mode_from_env() if sanitize is None else sanitize
    if mode is False:
        return None
    if mode is True:
        return Sanitizer(fatal=True)
    if mode == "collect":
        return Sanitizer(fatal=False)
    raise ValueError(f"sanitize={sanitize!r} not understood (bool or 'collect')")
