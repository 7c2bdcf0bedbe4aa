"""Container runtime emulation (Docker substitute).

DDoShield-IoT runs each role — Attacker, Devs, TServer, IDS — inside a
Docker container grafted onto the NS-3 network through a tap bridge.
This subpackage keeps the part of that surface the testbed runs: named
images (:mod:`repro.containers.image`), containers that host the
role's ``exec``-ed processes and crash and restart
(:mod:`repro.containers.container`), tap bridges that attach containers
to simulated ghost nodes (:mod:`repro.containers.bridge`), and an
orchestrator that runs containers and supervises them under restart
policies (:mod:`repro.containers.orchestrator`).  Table II's CPU and
memory come from :mod:`repro.ids.meter`, not from the containers.
"""

from repro.containers.bridge import TapBridge
from repro.containers.container import Container, ContainerState, Process
from repro.containers.image import Image
from repro.containers.orchestrator import Orchestrator, RestartPolicy

__all__ = [
    "Container",
    "ContainerState",
    "Image",
    "Orchestrator",
    "Process",
    "RestartPolicy",
    "TapBridge",
]
