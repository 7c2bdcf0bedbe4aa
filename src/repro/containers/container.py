"""Containers and the processes they host.

A :class:`Container` owns a simulated network node (via a tap bridge)
and a set of :class:`Process` instances.  Processes are the "IoT
binaries" of the paper: event-driven objects that open sockets on the
container's node and schedule work on the shared simulator.
``container.exec(...)`` injects a process into a running container —
how the testbed starts each role's binaries, and exactly how the Mirai
loader drops a bot onto a compromised device.  A container crashes with
:meth:`Container.kill` and comes back with :meth:`Container.restart`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.containers.image import Image
from repro.sim.core import Simulator

if TYPE_CHECKING:
    from repro.sim.node import Node


class ContainerState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"  # crashed (killed), not a clean stop


class ContainerError(RuntimeError):
    """Raised on lifecycle misuse (starting a started container, etc.)."""


class Process:
    """Base class for everything that runs inside a container.

    Subclasses implement :meth:`on_start` (open sockets, schedule work)
    and optionally :meth:`on_stop` (cancel timers, close sockets).
    """

    name = "process"

    def __init__(self) -> None:
        self.container: "Container | None" = None
        self.running = False

    # ------------------------------------------------------------------
    # Conveniences available once attached

    @property
    def sim(self) -> Simulator:
        assert self.container is not None, "process not attached to a container"
        return self.container.sim

    @property
    def node(self) -> "Node":
        assert self.container is not None, "process not attached to a container"
        return self.container.node

    # ------------------------------------------------------------------
    # Lifecycle hooks

    def start(self, container: "Container") -> None:
        self.container = container
        self.running = True
        self.on_start()

    def stop(self) -> None:
        if not self.running:
            return
        self.running = False
        self.on_stop()

    def on_start(self) -> None:  # pragma: no cover - overridden
        """Open sockets and schedule initial events."""

    def on_stop(self) -> None:
        """Cancel timers and release resources (override when needed)."""


class Container:
    """A running instance of an image, attached to one simulated node."""

    def __init__(self, name: str, image: Image, sim: Simulator, node: "Node") -> None:
        self.name = name
        self.image = image
        self.sim = sim
        self.node = node
        self.state = ContainerState.CREATED
        self.processes: list[Process] = []
        self.started_at: float | None = None
        self.stopped_at: float | None = None
        self.restart_count = 0
        #: Supervision hooks fired on every exit: ``fn(container, failed)``.
        self.on_exit: list = []

    def __repr__(self) -> str:
        return f"Container({self.name!r}, image={self.image.reference!r}, state={self.state.value})"

    def start(self) -> None:
        """Boot: the container runs; :meth:`exec` then adds its processes."""
        if self.state is ContainerState.RUNNING:
            raise ContainerError(f"{self.name} is already running")
        self.state = ContainerState.RUNNING
        self.started_at = self.sim.now

    def exec(self, process: Process) -> Process:
        """Inject and start an extra process (``docker exec`` analogue)."""
        if self.state is not ContainerState.RUNNING:
            raise ContainerError(f"cannot exec in {self.state.value} container {self.name}")
        self.processes.append(process)
        process.start(self)
        return process

    def stop(self) -> None:
        """Stop all processes; the node stays attached but goes quiet."""
        if self.state is not ContainerState.RUNNING:
            raise ContainerError(f"{self.name} is not running")
        for process in self.processes:
            process.stop()
        self.state = ContainerState.STOPPED
        self.stopped_at = self.sim.now
        self._fire_exit(failed=False)

    def kill(self) -> None:
        """Crash the container: processes die and the tap is unplugged.

        Unlike :meth:`stop`, a kill marks the container FAILED (so
        ``on-failure`` restart policies trigger) and detaches its net
        devices from the medium — a crashed device drops off the LAN,
        flushing any frames still queued on its NIC.
        """
        if self.state is not ContainerState.RUNNING:
            raise ContainerError(f"cannot kill {self.state.value} container {self.name}")
        for process in self.processes:
            process.stop()
        for iface in self.node.interfaces:
            if iface.device.attached:
                iface.device.detach()
        self.state = ContainerState.FAILED
        self.stopped_at = self.sim.now
        self._fire_exit(failed=True)

    def restart(self) -> None:
        """Boot a stopped/crashed container again with its existing processes.

        Every process the container hosted is started again, re-opening
        its sockets and rescheduling its work on the shared simulator.  The
        caller (normally the orchestrator's supervisor) is responsible
        for re-attaching the node's devices through the tap bridge first.
        """
        if self.state is ContainerState.RUNNING:
            raise ContainerError(f"{self.name} is already running")
        if self.state is ContainerState.CREATED:
            raise ContainerError(f"{self.name} was never started; use start()")
        self.state = ContainerState.RUNNING
        self.started_at = self.sim.now
        self.stopped_at = None
        self.restart_count += 1
        for process in self.processes:
            process.start(self)

    def _fire_exit(self, failed: bool) -> None:
        for hook in list(self.on_exit):
            hook(self, failed)

    @property
    def uptime(self) -> float:
        """Virtual seconds this container has been running."""
        if self.started_at is None:
            return 0.0
        end = self.stopped_at if self.stopped_at is not None else self.sim.now
        return end - self.started_at
