"""Orchestration and supervision of the testbed's containers.

The testbed's run scripts bring up the Attacker, N Devs, the TServer and
the IDS together.  :class:`Orchestrator` plays ``docker run``: each
:meth:`Orchestrator.run` gives a named running container attached to the
shared LAN through a tap bridge, and the testbed ``exec``-s the role's
processes into it.

It is also the supervisor of the fault-injection subsystem: containers
can be :meth:`kill`-ed (crash faults) and restarted under a
:class:`RestartPolicy` — exponential backoff with deterministic jitter
and a max-restart circuit breaker, mirroring Docker's
``restart: on-failure`` semantics.  Restarted containers are re-attached
to the LAN through the tap bridge and their processes started again.
Every supervision decision is recorded as a ``supervisor.<action>``
:class:`~repro.obs.events.ObsEvent` in the orchestrator's run log
(:attr:`Orchestrator.events`), and each restart counts on the
``container.restarts`` metric.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro import obs
from repro.containers.bridge import TapBridge
from repro.containers.container import Container, ContainerState
from repro.containers.image import Image
from repro.faults.plan import RESTART_MODES
from repro.obs.events import EventLog
from repro.sim.core import Event, Simulator
from repro.sim.topology import CsmaLan


@dataclass(frozen=True)
class RestartPolicy:
    """When and how the supervisor resurrects a dead container.

    ``mode`` follows Docker: ``no`` never restarts, ``on-failure``
    restarts crashed (killed) containers, never cleanly stopped ones.
    Consecutive restarts back off exponentially from ``backoff_base`` up
    to ``backoff_cap`` with ``jitter`` (a fraction of the delay, drawn
    from the supervisor's seeded RNG so runs stay reproducible).  After
    ``max_restarts`` consecutive failures the circuit breaker opens and
    the container stays down; a container that stays up ``reset_after``
    seconds closes the breaker again.
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
class _Supervision:
    """Per-container supervision state."""

    policy: RestartPolicy
    streak: int = 0
    pending: Event | None = None


class Orchestrator:
    """Creates, crashes, supervises, and looks up containers on one LAN."""

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
        self.containers: dict[str, Container] = {}
        self._supervised: dict[str, _Supervision] = {}
        self._rng = random.Random(seed)
        self.events = events if events is not None else obs.run_log()
        self._obs_restarts = obs.current().registry.counter("container.restarts")

    def run(self, name: str, image: Image) -> Container:
        """``docker run``: create a container on a fresh ghost node, start it."""
        if name in self.containers:
            raise ValueError(f"container name already in use: {name}")
        node = self.bridge.create_ghost_node(name)
        container = Container(name, image, self.sim, node)
        self.containers[name] = container
        container.start()
        return container

    def get(self, name: str) -> Container:
        try:
            return self.containers[name]
        except KeyError:
            raise KeyError(f"no such container: {name}") from None

    # ------------------------------------------------------------------
    # Supervision: crash faults and restart policies

    def supervise(self, name: str, policy: RestartPolicy) -> None:
        """Put ``name`` under ``policy``; exits now trigger the supervisor."""
        container = self.get(name)
        if name in self._supervised:
            self._supervised[name].policy = policy
            return
        self._supervised[name] = _Supervision(policy)
        container.on_exit.append(self._on_container_exit)

    def unsupervise(self, name: str) -> None:
        """Drop supervision: cancel a pending restart."""
        state = self._supervised.pop(name, None)
        if state is None:
            return
        if state.pending is not None:
            state.pending.cancel()
        self.containers[name].on_exit.remove(self._on_container_exit)

    def kill(self, name: str) -> None:
        """Crash one container (``docker kill``); supervision may revive it."""
        self._record(name, "kill")
        self.containers[name].kill()

    def _on_container_exit(self, container: Container, failed: bool) -> None:
        state = self._supervised.get(container.name)
        if state is None:
            return
        self._record(
            container.name, "exit", f"{'failed' if failed else 'clean'}"
        )
        policy = state.policy
        if policy.mode == "no" or not failed:
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
        container = self.containers[name]
        if container.state is ContainerState.RUNNING:
            return
        # Re-plumb the tap first so processes re-open sockets on a live LAN.
        self.bridge.reconnect(container.node)
        container.restart()
        self._record(name, "restart", f"attempt {container.restart_count}")

    def _record(self, name: str, action: str, note: str = "") -> None:
        self.events.record(
            self.sim.now, f"supervisor.{action}", name, targets=(name,), note=note
        )
        if action == "restart":
            self._obs_restarts.inc()
