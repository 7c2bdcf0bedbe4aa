"""Compose-style orchestration and supervision of multi-container scenarios.

The testbed's run scripts bring up the Attacker, N Devs, the TServer and
the IDS together.  :class:`Orchestrator` plays docker-compose: declare
:class:`ServiceSpec` entries (image, replicas, limits), call
:meth:`Orchestrator.up`, and get named running containers each attached
to the shared LAN through a tap bridge.

It is also the supervisor of the fault-injection subsystem: containers
can be :meth:`kill`-ed (crash faults), probed for health, and restarted
under a :class:`RestartPolicy` — exponential backoff with deterministic
jitter and a max-restart circuit breaker, mirroring Docker's
``restart: on-failure`` semantics.  Restarted containers are re-attached
to the LAN through the tap bridge and their processes started again.
Every supervision decision is recorded as a ``supervisor.<action>``
:class:`~repro.obs.events.ObsEvent` in the orchestrator's run log
(:attr:`Orchestrator.events`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import obs
from repro.containers.bridge import TapBridge
from repro.containers.container import Container, ContainerState
from repro.containers.image import Image, Registry
from repro.containers.resources import ResourceLimits
from repro.obs.events import EventLog
from repro.sim.core import Event, Simulator
from repro.sim.topology import CsmaLan

RESTART_MODES = ("no", "on-failure", "always")


@dataclass(frozen=True)
class RestartPolicy:
    """When and how the supervisor resurrects a dead container.

    ``mode`` follows Docker: ``no`` never restarts, ``on-failure``
    restarts only crashed (killed) containers, ``always`` also restarts
    cleanly stopped ones.  Consecutive restarts back off exponentially
    from ``backoff_base`` up to ``backoff_cap`` with ``jitter``
    (a fraction of the delay, drawn from the supervisor's seeded RNG so
    runs stay reproducible).  After ``max_restarts`` consecutive failures
    the circuit breaker opens and the container stays down; a container
    that stays up ``reset_after`` seconds closes the breaker again.
    """

    mode: str = "no"
    max_restarts: int = 5
    backoff_base: float = 1.0
    backoff_cap: float = 30.0
    jitter: float = 0.1
    reset_after: float = 10.0

    def __post_init__(self) -> None:
        if self.mode not in RESTART_MODES:
            raise ValueError(f"restart mode must be one of {RESTART_MODES}, got {self.mode!r}")
        if self.max_restarts < 1:
            raise ValueError(f"max_restarts must be >= 1, got {self.max_restarts}")
        if self.backoff_base <= 0 or self.backoff_cap < self.backoff_base:
            raise ValueError(
                f"need 0 < backoff_base <= backoff_cap, got {self.backoff_base}/{self.backoff_cap}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, streak: int, rng: random.Random) -> float:
        """Delay before restart attempt number ``streak`` (0-based)."""
        delay = min(self.backoff_cap, self.backoff_base * (2.0**streak))
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.uniform(-1.0, 1.0)
        return delay


@dataclass
class ServiceSpec:
    """One service in the compose file: an image plus deployment settings."""

    name: str
    image: Image
    replicas: int = 1
    limits: ResourceLimits | None = None
    queue_capacity: int = 512
    restart: RestartPolicy | None = None


@dataclass
class _Supervision:
    """Per-container supervision state."""

    policy: RestartPolicy
    streak: int = 0
    pending: Event | None = None
    health_event: Event | None = None


class Orchestrator:
    """Creates, starts, stops, supervises, and looks up containers on one LAN."""

    def __init__(
        self,
        sim: Simulator,
        lan: CsmaLan,
        seed: int = 0,
        events: EventLog | None = None,
    ) -> None:
        self.sim = sim
        self.lan = lan
        self.bridge = TapBridge(sim, lan)
        self.registry = Registry()
        self.containers: dict[str, Container] = {}
        self._services: list[ServiceSpec] = []
        self._supervised: dict[str, _Supervision] = {}
        self._rng = random.Random(seed)
        self.events = events if events is not None else obs.run_log()
        ctx = obs.current()
        self._obs_registry = ctx.registry
        self._obs_restarts = ctx.registry.counter("container.restarts")

    def add_service(self, spec: ServiceSpec) -> None:
        """Register a service to be instantiated by :meth:`up`."""
        self._services.append(spec)
        self.registry.push(spec.image)

    def up(self) -> list[Container]:
        """Create and start every declared service replica."""
        started: list[Container] = []
        for spec in self._services:
            for replica in range(spec.replicas):
                name = spec.name if spec.replicas == 1 else f"{spec.name}-{replica}"
                container = self.run(name, spec.image, spec.limits, spec.queue_capacity)
                if spec.restart is not None:
                    self.supervise(name, spec.restart)
                started.append(container)
        return started

    def run(
        self,
        name: str,
        image: Image,
        limits: ResourceLimits | None = None,
        queue_capacity: int = 512,
    ) -> Container:
        """``docker run``: create a container on a fresh ghost node, start it."""
        if name in self.containers:
            raise ValueError(f"container name already in use: {name}")
        node = self.bridge.create_ghost_node(name, queue_capacity=queue_capacity)
        container = Container(name, image, self.sim, node, limits=limits)
        self.containers[name] = container
        container.start()
        return container

    def stop(self, name: str) -> None:
        """Stop one container (keeps it listed, like ``docker stop``)."""
        self.containers[name].stop()

    def remove(self, name: str) -> None:
        """Stop (if needed) and remove a container and its ghost node."""
        self.unsupervise(name)
        container = self.containers.pop(name)
        if container.state is ContainerState.RUNNING:
            container.stop()
        self.bridge.disconnect(container.node)

    def down(self) -> None:
        """Stop and remove everything (``docker compose down``)."""
        for name in list(self.containers):
            self.remove(name)

    def ps(self) -> list[tuple[str, str, str]]:
        """List (name, image, state) rows, like ``docker ps -a``."""
        return [
            (c.name, c.image.reference, c.state.value)
            for c in self.containers.values()
        ]

    def get(self, name: str) -> Container:
        try:
            return self.containers[name]
        except KeyError:
            raise KeyError(f"no such container: {name}") from None

    # ------------------------------------------------------------------
    # Supervision: crash faults, health probes, restart policies

    def supervise(self, name: str, policy: RestartPolicy) -> None:
        """Put ``name`` under ``policy``; exits now trigger the supervisor."""
        container = self.get(name)
        if name in self._supervised:
            self._supervised[name].policy = policy
            return
        self._supervised[name] = _Supervision(policy)
        container.on_exit.append(self._on_container_exit)

    def unsupervise(self, name: str) -> None:
        """Drop supervision: cancel pending restarts and health probes."""
        state = self._supervised.pop(name, None)
        if state is None:
            return
        if state.pending is not None:
            state.pending.cancel()
        if state.health_event is not None:
            state.health_event.cancel()
        container = self.containers.get(name)
        if container is not None and self._on_container_exit in container.on_exit:
            container.on_exit.remove(self._on_container_exit)

    def kill(self, name: str) -> None:
        """Crash one container (``docker kill``); supervision may revive it."""
        self._record(name, "kill")
        self.containers[name].kill()

    def add_health_probe(
        self,
        name: str,
        interval: float = 1.0,
        check=None,
    ) -> None:
        """Probe ``name`` every ``interval`` sim-seconds.

        ``check(container) -> bool`` defaults to
        :meth:`Container.is_healthy`.  A probe that finds a RUNNING
        container unhealthy kills it, which hands it to the restart
        policy — catching silent deaths (a wedged process that never
        crashed the container).
        """
        if interval <= 0:
            raise ValueError(f"health probe interval must be positive, got {interval}")
        container = self.get(name)
        if name not in self._supervised:
            # Health without a policy still detects, it just cannot revive.
            self.supervise(name, RestartPolicy(mode="no"))
        probe = check if check is not None else Container.is_healthy

        def tick() -> None:
            state = self._supervised.get(name)
            if state is None or name not in self.containers:
                return
            live = self.containers[name]
            if live.state is ContainerState.RUNNING and not probe(live):
                self._record(name, "unhealthy")
                live.kill()
            state.health_event = self.sim.schedule(interval, tick)

        self._supervised[name].health_event = self.sim.schedule(interval, tick)

    def _on_container_exit(self, container: Container, failed: bool) -> None:
        state = self._supervised.get(container.name)
        if state is None:
            return
        self._record(
            container.name, "exit", f"{'failed' if failed else 'clean'}"
        )
        policy = state.policy
        wants_restart = policy.mode == "always" or (policy.mode == "on-failure" and failed)
        if not wants_restart:
            return
        # A healthy stretch closes the circuit breaker.
        uptime = container.uptime
        if state.streak and uptime >= policy.reset_after:
            state.streak = 0
        if state.streak >= policy.max_restarts:
            self._record(
                container.name,
                "giveup",
                f"circuit breaker open after {state.streak} restarts",
            )
            return
        delay = policy.backoff(state.streak, self._rng)
        state.streak += 1
        self._record(container.name, "backoff", f"restart in {delay:.2f}s")
        state.pending = self.sim.schedule(delay, self._restart, container.name)

    def _restart(self, name: str) -> None:
        state = self._supervised.get(name)
        if state is not None:
            state.pending = None
        container = self.containers.get(name)
        if container is None or container.state is ContainerState.RUNNING:
            return
        # Re-plumb the tap first so processes re-open sockets on a live LAN.
        self.bridge.reconnect(container.node)
        container.restart()
        self._record(name, "restart", f"attempt {container.restart_count}")

    def restarts_of(self, name: str) -> int:
        return self.get(name).restart_count

    def _record(self, name: str, action: str, note: str = "") -> None:
        self.events.record(
            self.sim.now, f"supervisor.{action}", name, targets=(name,), note=note
        )
        if action == "restart":
            self._obs_restarts.inc()

    def sample_resources(self) -> None:
        """Publish each container's cgroup-style CPU/memory into telemetry.

        Point-in-time gauges labeled by container — the analogue of one
        ``docker stats`` sample.  Cheap no-ops when telemetry is off.
        """
        if not self._obs_registry.enabled:
            return
        for name, container in sorted(self.containers.items()):
            usage = container.resources.usage
            self._obs_registry.gauge("container.cpu_seconds", container=name).set(
                usage.cpu_seconds
            )
            self._obs_registry.gauge("container.memory_bytes", container=name).set(
                usage.memory_bytes
            )
            self._obs_registry.gauge(
                "container.peak_memory_bytes", container=name
            ).set(usage.peak_memory_bytes)
