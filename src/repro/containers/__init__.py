"""Container runtime emulation (Docker substitute).

DDoShield-IoT runs each role — Attacker, Devs, TServer, IDS — inside a
Docker container grafted onto the NS-3 network through a tap bridge.
This subpackage reproduces that operational surface: images declaring
the processes to run (:mod:`repro.containers.image`), containers with a
lifecycle and cgroup-style resource accounting
(:mod:`repro.containers.container`, :mod:`repro.containers.resources`),
tap bridges that attach containers to simulated ghost nodes
(:mod:`repro.containers.bridge`), and a compose-style orchestrator
(:mod:`repro.containers.orchestrator`).
"""

from repro.containers.bridge import TapBridge
from repro.containers.container import Container, ContainerState, Process
from repro.containers.image import Image
from repro.containers.orchestrator import Orchestrator, RestartPolicy, ServiceSpec
from repro.containers.resources import ResourceAccountant, ResourceLimits, ResourceUsage

__all__ = [
    "Container",
    "ContainerState",
    "Image",
    "Orchestrator",
    "Process",
    "ResourceAccountant",
    "ResourceLimits",
    "ResourceUsage",
    "RestartPolicy",
    "ServiceSpec",
    "TapBridge",
]
